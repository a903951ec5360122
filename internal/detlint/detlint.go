// Package detlint is the framework-tier static analyzer: a suite of
// determinism lints run over this repository's own Go source, enforcing
// at compile time the invariants the test suite otherwise discovers at
// run time (bit-identical -j1 vs -jN, zero-fault ≡ clean, traced ≡
// untraced).
//
// The pass model deliberately mirrors golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a type-checked Pass — but is
// implemented on the standard library alone (go/ast + go/types, with
// export data served by `go list -export`), so the linter builds in a
// hermetic environment with no module downloads. cmd/detlint is the
// command-line driver; the pass catalogue (DL001–DL007) is documented in
// DESIGN.md §13, and a docs test pins the table to Catalogue below.
//
// Rules are scoped by package role rather than annotation:
//
//   - "deterministic" packages (the simulation kernel, the device and
//     host models built on it, the executor, planners, the parallel
//     layer, fault/chaos/resilience, the serving driver, obs, and the
//     experiment harnesses) must not read wall clocks or unseeded
//     randomness (DL001, DL005), nor write package-level variables from
//     function bodies (DL006);
//   - every package that renders output, manifests, or traces, or books
//     simulator events, must not do so from an unordered map iteration
//     (DL002);
//   - metric and series names must exist in the live catalogue
//     (DL003), so a typo cannot mint an undocumented series;
//   - the nil-is-inert observability types must actually be inert when
//     nil (DL004);
//   - every export under internal/ must have a non-test use somewhere in
//     the module or perfbench (DL007), a whole-program rule.
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressable as file:line:col. detlint
// rules guard hard invariants, so every finding is an error.
type Diagnostic struct {
	Pkg  string // import path of the offending package
	File string // file path as reported by the loader
	Line int
	Col  int
	Code string // DL001…
	Msg  string
}

// Format renders the canonical `file:line:col: CODE: message` shape.
func (d Diagnostic) Format() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Code, d.Msg)
}

// Analyzer is one detlint pass.
type Analyzer struct {
	Code string // diagnostic code the pass emits (DL001…)
	Name string // short slug (determinism-sources…)
	Doc  string // one-line summary, surfaced in DESIGN.md §13
	Run  func(*Pass)
}

// Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Cfg   Config
	Pkg   *Package
	prog  *program
	diags *[]Diagnostic
	an    *Analyzer
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pkg:  p.Pkg.ImportPath,
		File: position.Filename,
		Line: position.Line,
		Col:  position.Column,
		Code: p.an.Code,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Config scopes the passes. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// DeterministicPkgs are the final import-path segments of packages
	// whose outputs must be bit-deterministic: no wall clocks, no
	// math/rand, seeded splitmix64 streams only.
	DeterministicPkgs []string
	// NilInert names the nil-is-inert observability types as
	// "pkgsegment.Type"; every exported pointer-receiver method of such a
	// type must tolerate a nil receiver (DL004).
	NilInert []string
	// OrderedSinks names types (as "pkgsegment.Type") whose method calls
	// count as ordered output for DL002's map-range rule.
	OrderedSinks []string
	// CataloguedName reports whether a metric or series name is in the
	// one catalogue (metrics.Catalogued); nil disables DL003's
	// cross-check.
	CataloguedName func(name string) bool
	// RefModules are the modules, as directories relative to the main
	// module's root, whose non-test code DL007 counts uses in.
	RefModules []string
	// Keep maps the exports DL007 lets stand without a non-test use, as
	// "pkgsegment.Name" or "pkgsegment.Type.Method", to the reason a
	// test needs them.
	Keep map[string]string
}

// DefaultConfig scopes the passes to this repository's layering.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"sim", "plan", "par", "fault", "chaos", "resilience", "experiments", "driver", "obs",
			// The device and host models and the executor that drives them.
			"nvme", "csd", "exec", "flash", "host", "storage", "interconnect", "platform",
			// The front half that builds the prepared programs concurrent
			// studies share read-only.
			"core", "baseline", "profile",
		},
		NilInert: []string{"trace.Recorder", "par.Pool", "metrics.Registry", "obs.Windows", "obs.Collector", "obs.DriftReport"},
		OrderedSinks: []string{
			"report.Table", "trace.Recorder",
			"metrics.Registry", "metrics.Counter", "metrics.Gauge", "metrics.Histogram",
			// The event calendar is an ordered sink too: events booked at
			// equal times fire in booking order.
			"sim.Sim", "sim.Event", "sim.Resource", "sim.Link",
		},
		// CataloguedName is installed by cmd/detlint and the tests; it is
		// injected rather than imported here so the linter package itself
		// has no dependency edge back into the framework it lints.
		CataloguedName: nil,
		RefModules:     []string{".", "perfbench"},
		Keep: map[string]string{
			"builtins.NewMapContext":      "fake: the builtin and interpreter tests run programs against an in-memory Context",
			"csd.Device.DemandAt":         "trigger: the §III-D case-1 demand that exec's preempt tests and BenchmarkAblationPreempt inject",
			"detlint.Catalogue":           "oracle: the docs test pins DESIGN.md §13's pass table to it",
			"flash.Array.ReadTime":        "oracle: the unloaded read model TestReadTimeMatchesMeasured and storage's TestReadBillsFlashTime hold simulated reads to",
			"flash.Array.SetAvailability": "trigger: the flash co-tenant that BenchmarkAblationStorageTenant and the flash availability tests inject",
			"host.Host.Preempt":           "trigger: TestPreemptReachesDevice posts the §III-D case-1 command from the host side",
			"nvme.QueuePair.Deadlined":    "observer: TestStaleDeviceRunsGolden and the pooled queue pair's reference test count deadline abandonments",
			"plan.BnBExactLines":          "oracle: TestBnBExactGuarantee pins it to the node budget, TestBnBConstantsMatchPlanner pins AV008's threshold to it",
			"sim.Resource.InFlight":       "observer: TestGroupedResourceMatchesReference compares busy servers with the reference resource",
			"sim.Resource.QueueLen":       "observer: TestGroupedResourceMatchesReference compares queue depth with the reference resource",
			"storage.Store.Lookup":        "observer: the storage, csd and core tests check that writes and preloads create objects",
		},
	}
}

// Deterministic reports whether the package at import path is held to
// the bit-determinism contract.
func (c Config) Deterministic(importPath string) bool {
	seg := importPath
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	for _, p := range c.DeterministicPkgs {
		if seg == p {
			return true
		}
	}
	return false
}

// typeKey renders a named type as "pkgsegment.Type" for config matching.
func typeKey(obj *types.TypeName) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	seg := obj.Pkg().Path()
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	return seg + "." + obj.Name()
}

// namedOf unwraps pointers and aliases down to the named type, if any.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		case *types.Alias:
			t = types.Unalias(x)
		default:
			return nil
		}
	}
}

// Analyzers returns the full pass suite in catalogue order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DL001, DL002, DL003, DL004, DL005, DL006, DL007,
	}
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by file, line, column, code. refs is the reference
// set LoadRefs returns; DL007 counts uses in it and in pkgs.
func Run(cfg Config, pkgs, refs []*Package) []Diagnostic {
	var diags []Diagnostic
	prog := newProgram(append(append([]*Package{}, pkgs...), refs...))
	for _, pkg := range pkgs {
		for _, an := range Analyzers() {
			an.Run(&Pass{Cfg: cfg, Pkg: pkg, prog: prog, diags: &diags, an: an})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return diags
}

// PassInfo is one catalogue row — the source of truth for DESIGN.md
// §13's tier-1 table, pinned by a docs test.
type PassInfo struct {
	Code  string
	Name  string
	Doc   string
	Scope string // which packages the pass applies to
}

// Catalogue returns the pass catalogue in documentation order.
func Catalogue() []PassInfo {
	scopeDet := "deterministic packages"
	out := []PassInfo{
		{DL001.Code, DL001.Name, DL001.Doc, scopeDet},
		{DL002.Code, DL002.Name, DL002.Doc, "all packages"},
		{DL003.Code, DL003.Name, DL003.Doc, "all packages"},
		{DL004.Code, DL004.Name, DL004.Doc, "nil-is-inert types"},
		{DL005.Code, DL005.Name, DL005.Doc, scopeDet},
		{DL006.Code, DL006.Name, DL006.Doc, scopeDet},
		{DL007.Code, DL007.Name, DL007.Doc, "internal/ packages, whole program"},
	}
	return out
}

// walkFiles applies fn to every top-level declaration's AST in the
// package, file by file.
func (p *Pass) walkFiles(fn func(file *ast.File)) {
	for _, f := range p.Pkg.Files {
		fn(f)
	}
}
