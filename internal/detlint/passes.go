// The DL pass suite. Each pass is small because the heavy lifting — full
// type information — is already done by the loader; a rule is a walk
// over typed ASTs.
package detlint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// funcObj resolves a call's callee to its *types.Func (function or
// method), or nil for indirect/builtin calls.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathOf returns the defining package path of a function, resolving
// methods to their receiver's package.
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// methodKey renders a method as "pkgsegment.RecvType.Name", or "" for
// plain functions.
func methodKey(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return ""
	}
	return typeKey(named.Obj()) + "." + f.Name()
}

// ---- DL001: wall clocks and math/rand in deterministic packages ----

// wallClockFuncs are the time-package functions that read the wall
// clock. time.Duration arithmetic and constants are fine; obtaining "now"
// is not — simulated time is the only clock deterministic code may read.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// DL001 forbids nondeterminism sources in deterministic packages.
var DL001 = &Analyzer{
	Code: "DL001",
	Name: "determinism-sources",
	Doc:  "no time.Now/Since/Until and no math/rand in deterministic packages",
	Run: func(p *Pass) {
		if !p.Cfg.Deterministic(p.Pkg.ImportPath) {
			return
		}
		p.walkFiles(func(file *ast.File) {
			for _, imp := range file.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					p.Reportf(imp.Pos(), "deterministic package imports %s; use the seeded splitmix64 streams (fault.Mix64) instead", path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := funcObj(p.Pkg.Info, call)
				if f == nil {
					return true
				}
				if pkgPathOf(f) == "time" && wallClockFuncs[f.Name()] {
					p.Reportf(call.Pos(), "deterministic package reads the wall clock via time.%s; simulated time is the only clock allowed here", f.Name())
				}
				return true
			})
		})
	},
}

// ---- DL002: ordered output from an unordered map iteration ----

// fmtOutputFunc reports whether f is an fmt function that writes output
// (Sprint* only produces a value; Print*/Fprint* emit in call order).
func fmtOutputFunc(f *types.Func) bool {
	return pkgPathOf(f) == "fmt" &&
		(strings.HasPrefix(f.Name(), "Print") || strings.HasPrefix(f.Name(), "Fprint"))
}

// DL002 forbids driving ordered sinks from a `range` over a map: the
// iteration order is deliberately randomized by the runtime, so any
// output, manifest row, trace event, or metric observation emitted per
// iteration lands in a different order each run. The simulator's event
// calendar is such a sink as well: events booked (or cancelled and
// rebooked) per iteration tie-break in booking order, so equal-time
// completions would fire in map order. The fix is always the same —
// collect the keys, sort, range the slice (or keep the set in a slice).
var DL002 = &Analyzer{
	Code: "DL002",
	Name: "map-range-output",
	Doc:  "no writes to output/manifest/trace sinks or sim event bookings from a range over a map",
	Run: func(p *Pass) {
		info := p.Pkg.Info
		sinks := map[string]bool{}
		for _, s := range p.Cfg.OrderedSinks {
			sinks[s] = true
		}
		p.walkFiles(func(file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				ast.Inspect(rng.Body, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					f := funcObj(info, call)
					if f == nil {
						return true
					}
					if fmtOutputFunc(f) {
						p.Reportf(call.Pos(), "fmt.%s inside a range over a map: iteration order is randomized; sort the keys and range the slice", f.Name())
						return true
					}
					if mk := methodKey(f); mk != "" {
						recv := mk[:strings.LastIndexByte(mk, '.')]
						if sinks[recv] {
							p.Reportf(call.Pos(), "%s call inside a range over a map: iteration order is randomized; sort the keys and range the slice", mk)
						}
					}
					return true
				})
				return true
			})
		})
	},
}

// ---- DL003: metric/series names must be catalogued ----

// cataloguedCalls lists, as "pkgsegment.Type.Method", the
// name-accepting emission APIs whose name must be catalogued.
var cataloguedCalls = map[string]bool{
	"metrics.Registry.Counter":   true,
	"metrics.Registry.Gauge":     true,
	"metrics.Registry.Histogram": true,
	"metrics.Registry.Phase":     true,
	"trace.Recorder.Sample":      true,
}

// DL003 cross-checks every constant metric/series name string against
// the live catalogue (metrics.Catalogue() via the injected predicate),
// so a typo cannot mint a name that DESIGN.md's tables — themselves
// pinned to the catalogue — do not know about. Non-constant names
// (derived series like the sim's per-resource counters) are out of
// scope for a static check.
var DL003 = &Analyzer{
	Code: "DL003",
	Name: "catalogued-names",
	Doc:  "every constant metric/series name must be in the catalogue",
	Run: func(p *Pass) {
		if p.Cfg.CataloguedName == nil {
			return
		}
		info := p.Pkg.Info
		p.walkFiles(func(file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := funcObj(info, call)
				if f == nil {
					return true
				}
				if !cataloguedCalls[methodKey(f)] || len(call.Args) == 0 {
					return true
				}
				tv, ok := info.Types[call.Args[0]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true // dynamic name: not statically checkable
				}
				name := constant.StringVal(tv.Value)
				if !p.Cfg.CataloguedName(name) {
					p.Reportf(call.Args[0].Pos(), "%s name %q is not in the catalogue; add it to metrics.Catalogue() (and DESIGN.md's table) or fix the typo",
						methodKey(f), name)
				}
				return true
			})
		})
	},
}

// ---- DL004: nil-is-inert receivers must tolerate nil ----

// DL004 enforces the nil-is-inert contract on the observability types:
// every exported pointer-receiver method that dereferences its receiver
// (reads a field) must contain an explicit receiver-nil comparison.
// Methods that only delegate (pass the receiver along, call other
// methods on it) are exempt — the guarded callee handles nil.
var DL004 = &Analyzer{
	Code: "DL004",
	Name: "nil-inert-receivers",
	Doc:  "exported methods of nil-is-inert types must nil-check the receiver before touching fields",
	Run: func(p *Pass) {
		inert := map[string]bool{}
		for _, t := range p.Cfg.NilInert {
			inert[t] = true
		}
		info := p.Pkg.Info
		p.walkFiles(func(file *ast.File) {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
					continue
				}
				if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
					continue // unnamed receiver can't be dereferenced
				}
				recvIdent := fd.Recv.List[0].Names[0]
				recvObj := info.Defs[recvIdent]
				if recvObj == nil {
					continue
				}
				ptr, ok := recvObj.Type().(*types.Pointer)
				if !ok {
					continue
				}
				named := namedOf(ptr)
				if named == nil || !inert[typeKey(named.Obj())] {
					continue
				}
				hasNilCheck := false
				var firstDeref token.Pos
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.BinaryExpr:
						if x.Op == token.EQL || x.Op == token.NEQ {
							if isRecvNilCmp(info, recvObj, x.X, x.Y) || isRecvNilCmp(info, recvObj, x.Y, x.X) {
								hasNilCheck = true
							}
						}
					case *ast.SelectorExpr:
						if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recvObj {
							if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal && !firstDeref.IsValid() {
								firstDeref = x.Pos()
							}
						}
					case *ast.StarExpr:
						if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recvObj && !firstDeref.IsValid() {
							firstDeref = x.Pos()
						}
					}
					return true
				})
				if firstDeref.IsValid() && !hasNilCheck {
					p.Reportf(fd.Name.Pos(), "%s.%s dereferences its receiver without a nil check; %s is nil-is-inert, so a nil receiver must be tolerated",
						named.Obj().Name(), fd.Name.Name, typeKey(named.Obj()))
				}
			}
		})
	},
}

// isRecvNilCmp reports whether a == b compares the receiver against nil.
func isRecvNilCmp(info *types.Info, recv types.Object, a, b ast.Expr) bool {
	id, ok := ast.Unparen(a).(*ast.Ident)
	if !ok || info.Uses[id] != recv {
		return false
	}
	nb, ok := ast.Unparen(b).(*ast.Ident)
	return ok && nb.Name == "nil" && info.Uses[nb] == types.Universe.Lookup("nil")
}

// ---- DL005: seeded-RNG discipline ----

// seededCtors maps the sanctioned splitmix64 entry points
// ("pkgsegment.Func") to the index of their seed argument. The
// constructors themselves are the approved RNG surface; what DL005
// polices is where the seed comes from.
var seededCtors = map[string]int{
	"fault.Mix64":          0,
	"fault.NewPlan":        0,
	"fault.NewPlanChecked": 0,
	"fault.NewStream":      0,
	"chaos.Schedule":       0,
}

// DL005 enforces seed provenance in deterministic packages: seeds passed
// to the splitmix64 constructors must flow from a flag, config field, or
// parent stream — never a compile-time literal, which silently couples a
// supposedly seed-controlled run to a constant buried in the code.
var DL005 = &Analyzer{
	Code: "DL005",
	Name: "seed-provenance",
	Doc:  "splitmix64 constructors only, and seeds must flow from a flag/config, not literals",
	Run: func(p *Pass) {
		if !p.Cfg.Deterministic(p.Pkg.ImportPath) {
			return
		}
		info := p.Pkg.Info
		p.walkFiles(func(file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := funcObj(info, call)
				if f == nil {
					return true
				}
				// Any math/rand construction is out — the only sanctioned
				// generator family is the splitmix64 stream set.
				if pp := pkgPathOf(f); pp == "math/rand" || pp == "math/rand/v2" {
					p.Reportf(call.Pos(), "deterministic package constructs %s.%s; the sanctioned RNG surface is the seeded splitmix64 family (fault.Mix64 and the stream constructors built on it)",
						pp, f.Name())
					return true
				}
				key := f.Name()
				if f.Pkg() != nil {
					seg := f.Pkg().Path()
					if i := strings.LastIndexByte(seg, '/'); i >= 0 {
						seg = seg[i+1:]
					}
					key = seg + "." + f.Name()
				}
				argIdx, tracked := seededCtors[key]
				if !tracked || len(call.Args) <= argIdx {
					return true
				}
				if tv, ok := info.Types[call.Args[argIdx]]; ok && tv.Value != nil {
					p.Reportf(call.Args[argIdx].Pos(), "literal seed %s passed to %s; seeds must flow from a flag, config field, or parent stream so runs stay reproducible under external control",
						tv.Value.ExactString(), key)
				}
				return true
			})
		})
	},
}

// ---- DL006: no mutable package state in deterministic packages ----

// packageVar resolves a written expression to the package-level
// variable it stores into, or nil: the variable itself (x, or pkg.X
// from another package), or a package-level map under an index store
// (m[k]).
func packageVar(info *types.Info, lhs ast.Expr) *types.Var {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		tv, ok := info.Types[ix.X]
		if !ok {
			return nil
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return nil
		}
		lhs = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	switch x := lhs.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// DL006 forbids writing package-level variables from function bodies
// in deterministic packages: an assignment, an op-assignment, ++/--, or
// a map-index store. Concurrent studies (benchsuite -j N) share every
// package variable, so one such write lets one study move another's
// numbers; state belongs in a parameter or a struct the caller owns.
// init functions are exempt — they run once, before any study starts.
var DL006 = &Analyzer{
	Code: "DL006",
	Name: "package-state-writes",
	Doc:  "no package-level variable is written inside a function body in deterministic packages (init exempt)",
	Run: func(p *Pass) {
		if !p.Cfg.Deterministic(p.Pkg.ImportPath) {
			return
		}
		info := p.Pkg.Info
		report := func(lhs ast.Expr) {
			if v := packageVar(info, lhs); v != nil {
				p.Reportf(lhs.Pos(), "package-level variable %s.%s written inside a function: concurrent studies share it, so pass the state through a parameter or a struct field instead",
					v.Pkg().Name(), v.Name())
			}
		}
		p.walkFiles(func(file *ast.File) {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					return x.Recv != nil || x.Name.Name != "init"
				case *ast.AssignStmt:
					if x.Tok != token.DEFINE {
						for _, lhs := range x.Lhs {
							report(lhs)
						}
					}
				case *ast.IncDecStmt:
					report(x.X)
				}
				return true
			})
		})
	},
}

// ---- DL007: no exported API that only tests reach ----

// internalPkg reports whether an import path lies under an internal/
// tree, whose exports only this module can import.
func internalPkg(path string) bool {
	return strings.Contains(path, "/internal/")
}

// DL007 reports every exported function, method, type, constant and
// variable under internal/ that no non-test code references: not the
// linted packages, the module, or perfbench, which is its own module
// and sees the framework only through its exports. A test reaching it
// does not count, because API kept alive only by its tests is a second
// mechanism nothing runs. A method is exempt when its type satisfies an
// interface the program uses (it is called through the interface, or
// by fmt and errors), and so is each Keep entry: a test oracle,
// observer or fault trigger for behaviour production keeps.
var DL007 = &Analyzer{
	Code: "DL007",
	Name: "test-only-exports",
	Doc:  "every exported identifier under internal/ has a non-test use in the module or perfbench, or a keep-list reason",
	Run: func(p *Pass) {
		if !internalPkg(p.Pkg.ImportPath) {
			return
		}
		info := p.Pkg.Info
		check := func(id *ast.Ident) {
			obj := info.Defs[id]
			k := objKey(obj)
			if !id.IsExported() || k == "" || p.prog.used[k] {
				return
			}
			// The key without the import path's directory, as
			// "pkgsegment.Name" or "pkgsegment.Type.Method".
			seg := k[strings.LastIndexByte(p.Pkg.ImportPath, '/')+1:]
			if _, kept := p.Cfg.Keep[seg]; kept {
				return
			}
			if f, ok := obj.(*types.Func); ok && p.prog.satisfiesInterface(f) {
				return
			}
			p.Reportf(id.Pos(), "exported %s has no non-test use in the module or perfbench; delete it, or keep it on the DL007 keep list with the reason a test needs it", seg)
		}
		p.walkFiles(func(file *ast.File) {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								check(id)
							}
						}
					}
				}
			}
		})
	},
}

// satisfiesInterface reports whether method f belongs to the method
// set by which its receiver type satisfies an interface the program
// uses.
func (prog *program) satisfiesInterface(f *types.Func) bool {
	sig := f.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return false
	}
	have := map[string]string{}
	mset := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Type())
	}
	for _, iface := range prog.ifaces[f.Name()] {
		ok := true
		for name, s := range iface {
			if have[name] != s {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
