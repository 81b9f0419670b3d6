package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The benchmark entry points delegate to the suite bodies so that `go test
// -bench` and the cmd/bench JSON snapshots measure exactly the same code.

func BenchmarkEngine(b *testing.B) { benchEngine(b) }

func BenchmarkNetworkRun(b *testing.B) {
	b.Run("fresh", benchNetworkRunFresh)
	b.Run("reuse", benchNetworkRunReuse)
	b.Run("onoff", benchNetworkRunOnOff)
	b.Run("mesh8", benchNetworkRunMesh8)
}

func BenchmarkReplay(b *testing.B) { benchReplay(b) }

func BenchmarkSweep(b *testing.B) { benchSweep(b) }

func BenchmarkReplications(b *testing.B) { benchReplications(b) }

func BenchmarkSweepScaling(b *testing.B) { benchSweepScaling(b) }

func TestSuiteNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Suite() {
		if c.Name == "" || c.Run == nil {
			t.Fatalf("suite case %+v incomplete", c)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate case name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestWriteJSON(t *testing.T) {
	recs := []Record{
		{Name: "Engine", Iterations: 100, NsPerOp: 42.5, AllocsPerOp: 0,
			Metrics: map[string]float64{"events/sec": 1e6}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "test-label", recs); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("cmd/bench output is not valid JSON: %v", err)
	}
	if rep.Label != "test-label" || len(rep.Cases) != 1 || rep.Cases[0].Name != "Engine" {
		t.Fatalf("round-trip mismatch: %+v", rep)
	}
	if !strings.HasPrefix(rep.GoVersion, "go") {
		t.Fatalf("go version not stamped: %q", rep.GoVersion)
	}
	if rep.Cases[0].Metrics["events/sec"] != 1e6 {
		t.Fatalf("custom metrics lost: %+v", rep.Cases[0].Metrics)
	}
}
