package noc

import (
	"reflect"
	"testing"
)

// intraBase is a mid-load scenario cheap enough for the differential
// matrix below.
func intraBase(t *testing.T, extra ...Option) *Scenario {
	t.Helper()
	opts := append([]Option{
		Quarc(16), LocalizedDests(PortL, 4),
		MsgLen(16), Rate(0.004), Alpha(0.05),
		Seed(21), Warmup(1000), Measure(8000),
	}, extra...)
	s, err := NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withIntra recompiles s from its Spec with the retired
// intra_parallelism field set to p, the way a stored client spec that
// still carries the field reaches the evaluator.
func withIntra(t *testing.T, s *Scenario, p int) *Scenario {
	t.Helper()
	sp := s.Spec()
	sp.IntraParallelism = p
	out, err := sp.Scenario()
	if err != nil {
		t.Fatalf("intra_parallelism=%d: %v", p, err)
	}
	return out
}

// TestIntraParallelismBitwise pins that the retired intra_parallelism
// field is inert: for every value, on both the stateless and the pooled
// simulator, a spec carrying it evaluates bitwise-identically to the
// same spec without it — across arrival processes and with metrics
// recording on.
func TestIntraParallelismBitwise(t *testing.T) {
	cases := []struct {
		name  string
		extra []Option
	}{
		{name: "poisson"},
		{name: "onoff", extra: []Option{OnOff(4, 0.5)}},
		{name: "bernoulli-falls-back", extra: []Option{Arrival("bernoulli")}},
		{name: "metrics-falls-back", extra: []Option{Metrics(50)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := intraBase(t, tc.extra...)
			serial, err := (Simulator{}).Evaluate(base)
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, serial)
			for _, p := range []int{2, 4, 8} {
				s := withIntra(t, base, p)
				got, err := (Simulator{}).Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if gj := resultJSON(t, got); gj != want {
					t.Errorf("p=%d: result diverges\n got %s\nwant %s", p, gj, want)
				}
				pooled := NewPooledSimulator()
				got2, err := pooled.Evaluate(s)
				if err != nil {
					t.Fatalf("p=%d pooled: %v", p, err)
				}
				if gj := resultJSON(t, got2); gj != want {
					t.Errorf("p=%d: pooled result diverges\n got %s\nwant %s", p, gj, want)
				}
			}
		})
	}
}

// TestIntraParallelismSaturationRerun pins the saturated path: a
// saturating spec carrying intra_parallelism still reports exactly the
// serial engine's truncated saturated Result.
func TestIntraParallelismSaturationRerun(t *testing.T) {
	base := intraBase(t, Rate(0.05), SatQueue(20), Measure(20000))
	serial, err := (Simulator{}).Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Saturated {
		t.Fatal("saturation scenario did not saturate serially")
	}
	got, err := (Simulator{}).Evaluate(withIntra(t, base, 4))
	if err != nil {
		t.Fatal(err)
	}
	if gj, want := resultJSON(t, got), resultJSON(t, serial); gj != want {
		t.Errorf("saturated result diverges\n got %s\nwant %s", gj, want)
	}
}

// TestIntraParallelismSpec pins the declarative surface of the retired
// field: it still parses, canonicalizes to zero, leaves the Fingerprint
// unperturbed, compiles to a scenario whose Spec omits it, and is still
// range-checked.
func TestIntraParallelismSpec(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"intra_parallelism": 4, "rate": 0.004}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.IntraParallelism != 4 {
		t.Fatalf("parsed intra_parallelism %d, want 4", sp.IntraParallelism)
	}
	if c := sp.Canonical(); c.IntraParallelism != 0 {
		t.Errorf("canonical form keeps intra_parallelism %d", c.IntraParallelism)
	}
	plain := sp
	plain.IntraParallelism = 0
	if sp.Fingerprint() != plain.Fingerprint() {
		t.Error("intra_parallelism perturbs the spec fingerprint")
	}
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Spec(); got.IntraParallelism != 0 {
		t.Errorf("Scenario.Spec() reports intra_parallelism %d", got.IntraParallelism)
	}
	if !reflect.DeepEqual(s.Spec(), plain.Canonical()) {
		t.Errorf("spec round-trip diverges: %+v vs %+v", s.Spec(), plain.Canonical())
	}
	if _, err := ParseSpec([]byte(`{"intra_parallelism": -1}`)); err == nil {
		t.Error("negative intra_parallelism accepted")
	}
}
