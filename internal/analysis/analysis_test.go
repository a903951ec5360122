package analysis

import (
	"reflect"
	"testing"

	"activego/internal/lang/builtins"
	"activego/internal/lang/parser"
)

func mustAnalyze(t *testing.T, src string) *Report {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep
}

func TestDefUseSets(t *testing.T) {
	rep := mustAnalyze(t, `x = 1
y = x + 2
z = y * x
`)
	f, ok := rep.byLine[3]
	if !ok {
		t.Fatal("no fact for line 3")
	}
	if !reflect.DeepEqual(f.Defs, []string{"z"}) {
		t.Errorf("line 3 defs = %v, want [z]", f.Defs)
	}
	if !reflect.DeepEqual(f.Uses, []string{"x", "y"}) {
		t.Errorf("line 3 uses = %v, want [x y]", f.Uses)
	}
}

func TestAugAssignUsesTarget(t *testing.T) {
	rep := mustAnalyze(t, `acc = 0
acc += 5
`)
	f, _ := rep.byLine[2]
	if !reflect.DeepEqual(f.Uses, []string{"acc"}) {
		t.Errorf("aug-assign uses = %v, want [acc]", f.Uses)
	}
	if !reflect.DeepEqual(f.Defs, []string{"acc"}) {
		t.Errorf("aug-assign defs = %v, want [acc]", f.Defs)
	}
}

// dataDeps returns the data-dependence edges flowing into line.
func dataDeps(r *Report, line int) []DepEdge {
	var out []DepEdge
	for _, e := range r.Deps {
		if e.To == line && e.Kind == EdgeData {
			out = append(out, e)
		}
	}
	return out
}

func TestStraightLineDataDeps(t *testing.T) {
	rep := mustAnalyze(t, `x = 1
y = x + 2
`)
	deps := dataDeps(rep, 2)
	if len(deps) != 1 || deps[0].From != 1 || deps[0].Var != "x" {
		t.Errorf("DataDeps(2) = %v, want one x edge from line 1", deps)
	}
}

func TestLoopCarriedDependence(t *testing.T) {
	// acc on line 3 is defined both at line 1 (loop entry) and at line 3
	// itself (back edge). The self-edge is suppressed; the entry edge is
	// kept.
	rep := mustAnalyze(t, `acc = 0
for i in range(10):
    acc = acc + i
`)
	deps := dataDeps(rep, 3)
	var vars []string
	for _, e := range deps {
		vars = append(vars, e.Var)
	}
	wantFrom := map[int]string{1: "acc", 2: "i"}
	if len(deps) != 2 {
		t.Fatalf("DataDeps(3) = %v (vars %v), want edges from lines 1 and 2", deps, vars)
	}
	for _, e := range deps {
		if wantFrom[e.From] != e.Var {
			t.Errorf("unexpected edge %+v", e)
		}
	}
	// The loop-carried def must be visible in the reaching-def sets even
	// though the self-edge is suppressed in Deps.
	if got := rep.useDefs[3]["acc"]; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("reaching defs of acc at line 3 = %v, want [1 3]", got)
	}
}

func TestControlDependence(t *testing.T) {
	rep := mustAnalyze(t, `x = 1
if x > 0:
    y = 2
`)
	var ctrl []DepEdge
	for _, e := range rep.Deps {
		if e.Kind == EdgeControl {
			ctrl = append(ctrl, e)
		}
	}
	if len(ctrl) != 1 || ctrl[0].From != 2 || ctrl[0].To != 3 {
		t.Errorf("control edges = %v, want one 2->3 edge", ctrl)
	}
}

func TestIfElseJoinReachingDefs(t *testing.T) {
	// Both branch defs of y reach the use at line 6.
	rep := mustAnalyze(t, `x = 1
if x > 0:
    y = 2
else:
    y = 3
z = y
`)
	got := rep.useDefs[6]["y"]
	if !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("reaching defs of y at line 6 = %v, want [3 5]", got)
	}
}

func TestUndefinedUse(t *testing.T) {
	rep := mustAnalyze(t, `y = x + 1
`)
	und := rep.undefined
	if !reflect.DeepEqual(und[1], []string{"x"}) {
		t.Errorf("undefined at line 1 = %v, want [x]", und[1])
	}
}

func TestConditionalDefStillUndefinedOnOtherPath(t *testing.T) {
	// y is only defined on the then-path; the merge point still sees the
	// def (reaching-defs is a may-analysis), so no undefined report.
	// But a variable never defined anywhere must be reported.
	rep := mustAnalyze(t, `x = 1
if x > 0:
    y = 2
z = y + w
`)
	und := rep.undefined
	if !reflect.DeepEqual(und[4], []string{"w"}) {
		t.Errorf("undefined at line 4 = %v, want [w]", und[4])
	}
}

func TestEffects(t *testing.T) {
	rep := mustAnalyze(t, `t = load("x")
s = vsum(t)
print(s)
store("out", s)
`)
	cases := []struct {
		line int
		want builtins.Effect
	}{
		{1, builtins.EffectReadsStorage},
		{2, builtins.EffectPure},
		{3, builtins.EffectHostOnly},
		{4, builtins.EffectHostOnly},
	}
	for _, c := range cases {
		f, _ := rep.byLine[c.line]
		if f.Effect != c.want {
			t.Errorf("line %d effect = %v, want %v", c.line, f.Effect, c.want)
		}
	}
}

func TestUnknownBuiltinIsHostOnly(t *testing.T) {
	rep := mustAnalyze(t, `x = mystery(1)
`)
	f, _ := rep.byLine[1]
	if f.Effect != builtins.EffectHostOnly {
		t.Errorf("unknown builtin effect = %v, want host-only", f.Effect)
	}
	if reason, pinned := rep.HostPinned()[1]; !pinned || reason == "" {
		t.Errorf("HostPinned()[1] = %q %v, want pinned with reason", reason, pinned)
	}
}

func TestLoopDepthAndParents(t *testing.T) {
	rep := mustAnalyze(t, `for i in range(3):
    for j in range(3):
        x = i + j
`)
	f, _ := rep.byLine[3]
	if f.LoopDepth != 2 {
		t.Errorf("LoopDepth = %d, want 2", f.LoopDepth)
	}
	if !reflect.DeepEqual(f.Parents, []int{1, 2}) {
		t.Errorf("Parents = %v, want [1 2]", f.Parents)
	}
}

func TestBreakMakesFollowersUnreachable(t *testing.T) {
	rep := mustAnalyze(t, `for i in range(3):
    break
    x = 1
y = 2
`)
	f, _ := rep.byLine[3]
	if !f.Unreachable {
		t.Error("line 3 should be unreachable after break")
	}
	f4, _ := rep.byLine[4]
	if f4.Unreachable {
		t.Error("line 4 follows the loop, not the break; should be reachable")
	}
	// The dead def on line 3 must not feed the dependence graph.
	for _, e := range rep.Deps {
		if e.From == 3 || e.To == 3 {
			t.Errorf("unreachable line 3 has dependence edge %+v", e)
		}
	}
}

func TestBreakInsideIfDoesNotKillLoopTail(t *testing.T) {
	// A conditional break leaves the rest of the body reachable.
	rep := mustAnalyze(t, `for i in range(10):
    if i > 5:
        break
    x = i
y = x
`)
	f, _ := rep.byLine[4]
	if f.Unreachable {
		t.Error("line 4 after a conditional break must stay reachable")
	}
	if got := rep.useDefs[5]["x"]; !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("reaching defs of x at line 5 = %v, want [4]", got)
	}
}

func TestLiveAtExitNotDead(t *testing.T) {
	// z is never read but survives to program end — the final environment
	// is observable output, so it is NOT a dead store.
	rep := mustAnalyze(t, `z = 42
`)
	if len(rep.deadDefs) != 0 {
		t.Errorf("deadDefs = %v, want none (final env is live)", rep.deadDefs)
	}
}

func TestOverwrittenUnreadDefIsDead(t *testing.T) {
	rep := mustAnalyze(t, `z = 1
z = 2
`)
	if len(rep.deadDefs) != 1 || rep.deadDefs[0].line != 1 {
		t.Errorf("deadDefs = %v, want the line-1 def of z", rep.deadDefs)
	}
}

func TestAnalyzeAllWorkloadsClean(t *testing.T) {
	// Every embedded workload program must analyze without undefined
	// uses or stray breaks — they all run today, so the analysis must
	// agree they are well-formed.
	for _, src := range workloadSources(t) {
		rep := mustAnalyze(t, src.code)
		if len(rep.undefined) != 0 {
			t.Errorf("%s: undefined uses %v", src.name, rep.undefined)
		}
		if len(rep.breakOutsideLoop) != 0 {
			t.Errorf("%s: break outside loop at %v", src.name, rep.breakOutsideLoop)
		}
	}
}
