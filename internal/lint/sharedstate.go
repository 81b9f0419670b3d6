package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// checkSharedState is the machine-readable audit of mutable state on the
// result path: replications, sweep points and served requests run
// concurrently, and any state two of them could touch is a way for one
// run to perturb another's bitwise-deterministic result, so every piece
// of it must be known. The pass inventories, for each package on the
// result path:
//
//   - every package-level variable, with the functions that mutate it at
//     runtime (outside init functions, package-level var initializers,
//     New*/Reset* constructors and Register* wrappers) — assignment,
//     index/field stores, address-taking, and pointer-receiver method
//     calls (a mutex Lock mutates the mutex) all count;
//   - every struct field written at runtime, with its writers.
//
// The inventory is emitted as the sorted, byte-reproducible JSON
// artifact lint/sharedstate.json via SharedStateJSON. A package-level
// variable with runtime writers is additionally a diagnostic unless its
// declaration carries a "//quarcflow:shared <reason>" justification —
// the audit's way of forcing each global either to registration-time
// immutability or to a documented concurrency story.
const sharedDirective = "//quarcflow:shared"

// SharedGlobal is one package-level variable in the inventory.
type SharedGlobal struct {
	Package string `json:"package"`
	Name    string `json:"name"`
	Type    string `json:"type"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	// Writers lists the functions (funcKey form) that mutate the
	// variable outside init-time contexts, sorted; empty means the
	// variable is registration-time immutable.
	Writers []string `json:"writers"`
	// Justification carries the //quarcflow:shared reason when the
	// declaration documents why runtime mutation is safe.
	Justification string `json:"justification,omitempty"`
}

// SharedField is one runtime-written struct field in the inventory.
type SharedField struct {
	Package string `json:"package"`
	Type    string `json:"type"`
	// Field is the written field name; "*" records whole-struct stores
	// (*p = T{...}).
	Field     string   `json:"field"`
	FieldType string   `json:"fieldType,omitempty"`
	Writers   []string `json:"writers"`
}

// SharedStateReport is the full audit across the configured packages.
type SharedStateReport struct {
	Globals []SharedGlobal `json:"globals"`
	Fields  []SharedField  `json:"fields"`
}

// SharedStateJSON renders the report in its canonical byte form: sorted
// entries, two-space indentation, trailing newline. The committed
// lint/sharedstate.json baseline is exactly these bytes.
func SharedStateJSON(r *SharedStateReport) []byte {
	if r == nil {
		r = &SharedStateReport{}
	}
	if r.Globals == nil {
		r.Globals = []SharedGlobal{}
	}
	if r.Fields == nil {
		r.Fields = []SharedField{}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		// The report is plain data; encoding cannot fail.
		panic(fmt.Sprintf("lint: encoding sharedstate report: %v", err))
	}
	return buf.Bytes()
}

func (c *Config) isSharedState(path string) bool {
	for _, p := range c.SharedStatePackages {
		if path == p {
			return true
		}
	}
	return false
}

func checkSharedState(cx *context) {
	if !cx.cfg.isSharedState(cx.pkg.Path) {
		return
	}
	a := &sharedAudit{
		cx:      cx,
		globals: make(map[types.Object]*SharedGlobal),
		fields:  make(map[string]*SharedField),
		writers: make(map[types.Object]map[string]bool),
		fwriter: make(map[string]map[string]bool),
	}
	a.collectGlobals()
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.scanFunc(fd)
		}
	}
	a.emit()
}

// sharedAudit accumulates one package's inventory.
type sharedAudit struct {
	cx      *context
	globals map[types.Object]*SharedGlobal
	fields  map[string]*SharedField // key: Type + "." + Field
	writers map[types.Object]map[string]bool
	fwriter map[string]map[string]bool
}

// collectGlobals inventories every package-level var declaration,
// capturing any //quarcflow:shared justification. A malformed directive
// (no reason) is itself a diagnostic, like a malformed waiver.
func (a *sharedAudit) collectGlobals() {
	cx := a.cx
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				just, malformedAt := sharedJustification(gd, vs)
				if malformedAt.IsValid() {
					cx.reportf(malformedAt, "malformed %s: a justification reason is required", sharedDirective)
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time interface assertions own no state
					}
					obj := cx.pkg.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					p := cx.pkg.Fset.Position(name.Pos())
					file := p.Filename
					if cx.cfg.BaseDir != "" {
						if rel, err := filepath.Rel(cx.cfg.BaseDir, file); err == nil {
							file = filepath.ToSlash(rel)
						}
					}
					a.globals[obj] = &SharedGlobal{
						Package:       cx.pkg.Path,
						Name:          name.Name,
						Type:          types.TypeString(obj.Type(), types.RelativeTo(cx.pkg.Types)),
						File:          file,
						Line:          p.Line,
						Justification: just,
					}
				}
			}
		}
	}
}

// sharedJustification extracts the //quarcflow:shared reason from a var
// spec's doc or line comments (or the enclosing GenDecl's doc). The
// second result is the position of a malformed (reason-less) directive.
func sharedJustification(gd *ast.GenDecl, vs *ast.ValueSpec) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{vs.Doc, vs.Comment, gd.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, sharedDirective) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, sharedDirective))
			if reason == "" {
				return "", c.Pos()
			}
			return reason, token.NoPos
		}
	}
	return "", token.NoPos
}

// initTimeWriter reports whether writes inside fd count as init-time:
// init functions, New*/new* constructors, Reset* methods, and Register*
// wrappers (registryhygiene separately pins that Register* calls only
// happen at init time).
func initTimeWriter(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	switch {
	case fd.Recv == nil && name == "init":
		return true
	case strings.HasPrefix(name, "New"), strings.HasPrefix(name, "new"):
		return true
	case strings.HasPrefix(name, "Reset"), strings.HasPrefix(name, "reset"):
		return true
	case strings.HasPrefix(name, "Register"):
		return true
	}
	return false
}

// scanFunc records every global and struct-field mutation fd performs.
func (a *sharedAudit) scanFunc(fd *ast.FuncDecl) {
	if initTimeWriter(fd) {
		return
	}
	cx := a.cx
	who := funcKey(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				a.recordWrite(lhs, who)
			}
		case *ast.IncDecStmt:
			a.recordWrite(n.X, who)
		case *ast.UnaryExpr:
			// &global escapes a mutable reference.
			if n.Op == token.AND {
				if obj := cx.objectOf(n.X); obj != nil {
					if _, tracked := a.globals[obj]; tracked {
						a.addGlobalWriter(obj, who)
					}
				}
			}
		case *ast.CallExpr:
			// A pointer-receiver method call on a tracked global mutates
			// it (sync.Mutex.Lock, rand.PCG.Seed, ...).
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj := cx.objectOf(sel.X); obj != nil {
					if _, tracked := a.globals[obj]; tracked && cx.isPointerReceiverCall(sel) {
						a.addGlobalWriter(obj, who)
					}
				}
			}
		}
		return true
	})
}

// isPointerReceiverCall reports whether sel resolves to a method with a
// pointer receiver — the shape of a mutating call.
func (cx *context) isPointerReceiverCall(sel *ast.SelectorExpr) bool {
	s, ok := cx.pkg.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, isPtr := recv.Type().(*types.Pointer)
	return isPtr
}

// recordWrite attributes one lvalue store. A store whose lvalue path is
// rooted at a tracked global (direct, indexed, or through a field path)
// mutates that global; a store through a named-struct field is
// additionally recorded in the field inventory.
func (a *sharedAudit) recordWrite(lhs ast.Expr, who string) {
	cx := a.cx
	lhs = ast.Unparen(lhs)
	if obj := cx.rootObject(lhs); obj != nil {
		if _, tracked := a.globals[obj]; tracked {
			a.addGlobalWriter(obj, who)
		}
	}
	switch lhs := lhs.(type) {
	case *ast.StarExpr:
		// *p = T{...}: a whole-struct store through a pointer.
		if named := cx.namedStructOf(cx.typeOf(lhs.X)); named != nil {
			a.addFieldWriter(named, "*", "", who)
		}
	case *ast.SelectorExpr:
		// x.f = v: resolve the owning struct type of f.
		if sl, ok := cx.pkg.TypesInfo.Selections[lhs]; ok && sl.Kind() == types.FieldVal {
			if field, ok := sl.Obj().(*types.Var); ok {
				if named := cx.owningStruct(sl, field); named != nil {
					ft := types.TypeString(field.Type(), types.RelativeTo(cx.pkg.Types))
					a.addFieldWriter(named, field.Name(), ft, who)
				}
			}
		}
	}
}

// namedStructOf unwraps pointers to a named struct type declared in the
// audited package, or nil.
func (cx *context) namedStructOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != cx.pkg.Types {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// owningStruct resolves the named struct a selected field belongs to,
// walking the selection's receiver type (embedded fields resolve to the
// embedding chain's last named hop).
func (cx *context) owningStruct(sl *types.Selection, field *types.Var) *types.Named {
	t := sl.Recv()
	// Follow the implicit field path of embedded structs.
	idx := sl.Index()
	for i := 0; i < len(idx)-1; i++ {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(idx[i]).Type()
	}
	return cx.namedStructOf(t)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func (a *sharedAudit) addGlobalWriter(obj types.Object, who string) {
	if a.writers[obj] == nil {
		a.writers[obj] = make(map[string]bool)
	}
	a.writers[obj][who] = true
}

func (a *sharedAudit) addFieldWriter(named *types.Named, field, fieldType, who string) {
	key := named.Obj().Name() + "." + field
	if a.fields[key] == nil {
		a.fields[key] = &SharedField{
			Package:   a.cx.pkg.Path,
			Type:      named.Obj().Name(),
			Field:     field,
			FieldType: fieldType,
		}
	}
	if a.fwriter[key] == nil {
		a.fwriter[key] = make(map[string]bool)
	}
	a.fwriter[key][who] = true
}

// emit finalizes the package's slice of the report: globals sorted by
// name, fields by (type, field), writers sorted within each entry —
// and reports the diagnostics for undocumented runtime-mutated globals.
func (a *sharedAudit) emit() {
	cx := a.cx
	objs := make([]types.Object, 0, len(a.globals))
	for obj := range a.globals {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name() < objs[j].Name() })
	for _, obj := range objs {
		g := a.globals[obj]
		g.Writers = sortedKeys(a.writers[obj])
		if len(g.Writers) > 0 && g.Justification == "" {
			cx.reportf(obj.Pos(), "package-level var %s is mutated at runtime on the result path (by %s): document the concurrency story with %s <reason> or refactor to registration-time immutability", g.Name, strings.Join(g.Writers, ", "), sharedDirective)
		}
		cx.shared.Globals = append(cx.shared.Globals, *g)
	}
	keys := make([]string, 0, len(a.fields))
	for k := range a.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fld := a.fields[k]
		fld.Writers = sortedKeys(a.fwriter[k])
		cx.shared.Fields = append(cx.shared.Fields, *fld)
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
