package exec_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"activego/internal/codegen"
	"activego/internal/driver"
	"activego/internal/exec"
	"activego/internal/lang/interp"
	"activego/internal/lang/parser"
	"activego/internal/lang/value"
	"activego/internal/nvme"
	"activego/internal/plan"
	"activego/internal/platform"
	"activego/internal/workloads"
)

// flatten collapses a dynamic trace to one record per source line in
// ascending line order: costs summed, writes keeping each variable's
// final size on that line. Read sizes are then rewritten to the size the
// executor's move-semantics walk will actually bill — the bytes of the
// last writer on an earlier line — so the static billing model and the
// executor see identical inputs.
func flatten(tr *interp.Trace) []interp.LineRecord {
	byLine := map[int]*interp.LineRecord{}
	for i := range tr.Records {
		rec := &tr.Records[i]
		f, ok := byLine[rec.Line]
		if !ok {
			f = &interp.LineRecord{Line: rec.Line}
			byLine[rec.Line] = f
		}
		f.Cost.Add(rec.Cost)
		for _, r := range rec.Reads {
			found := false
			for j := range f.Reads {
				if f.Reads[j].Name == r.Name {
					found = true
					break
				}
			}
			if !found {
				f.Reads = append(f.Reads, r)
			}
		}
		for _, w := range rec.Writes {
			found := false
			for j := range f.Writes {
				if f.Writes[j].Name == w.Name {
					f.Writes[j].Bytes = w.Bytes // final size wins
					found = true
					break
				}
			}
			if !found {
				f.Writes = append(f.Writes, w)
			}
		}
	}
	lines := make([]int, 0, len(byLine))
	for ln := range byLine {
		lines = append(lines, ln)
	}
	sort.Ints(lines)
	out := make([]interp.LineRecord, 0, len(lines))
	for _, ln := range lines {
		out = append(out, *byLine[ln])
	}
	// Rewrite read sizes to the last earlier-line writer's bytes; drop
	// reads of variables no earlier line wrote (both the executor and the
	// plan model skip unknown homes, but their sizes would differ).
	lastWrite := map[string]int64{}
	for i := range out {
		var reads []interp.VarUse
		for _, r := range out[i].Reads {
			if b, ok := lastWrite[r.Name]; ok {
				reads = append(reads, interp.VarUse{Name: r.Name, Bytes: b})
			}
		}
		out[i].Reads = reads
		for _, w := range out[i].Writes {
			lastWrite[w.Name] = w.Bytes
		}
	}
	return out
}

// estimatesOf mirrors a flattened trace into plan.LineEstimates carrying
// only what the residency model reads: per-variable flows.
func estimatesOf(recs []interp.LineRecord) []plan.LineEstimate {
	out := make([]plan.LineEstimate, len(recs))
	for i := range recs {
		e := plan.LineEstimate{Line: recs[i].Line, Execs: 1}
		for _, r := range recs[i].Reads {
			e.Reads = append(e.Reads, plan.VarFlow{Name: r.Name, Bytes: float64(r.Bytes)})
		}
		for _, w := range recs[i].Writes {
			e.Writes = append(e.Writes, plan.VarFlow{Name: w.Name, Bytes: float64(w.Bytes)})
		}
		out[i] = e
	}
	return out
}

// TestResidencyBillingAgreesWithExecutor is the property test tying the
// planner's Equation 1 residency model to the executor's measured link
// traffic: for every workload and a spread of partitions, the executor's
// D2HBytes must equal the model's variable crossings plus the host lines'
// storage streaming plus the CSD lines' queue traffic, byte for byte.
func TestResidencyBillingAgreesWithExecutor(t *testing.T) {
	params := workloads.TestParams()
	rng := rand.New(rand.NewSource(7))
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst := spec.Build(params)
			prog, err := parser.Parse(inst.Source)
			if err != nil {
				t.Fatal(err)
			}
			trace, _, err := interp.Run(prog, inst.Registry.Context(1))
			if err != nil {
				t.Fatal(err)
			}
			recs := flatten(trace)
			ests := estimatesOf(recs)
			lines := make([]int, len(recs))
			for i := range recs {
				lines[i] = recs[i].Line
			}

			parts := []codegen.Partition{
				codegen.NewPartition(),         // all host
				codegen.NewPartition(lines...), // all CSD
			}
			for k := 0; k < 4; k++ { // seeded random subsets
				p := codegen.NewPartition()
				for _, ln := range lines {
					if rng.Intn(2) == 1 {
						p.CSDLines[ln] = true
					}
				}
				parts = append(parts, p)
			}

			for pi, part := range parts {
				p := platform.Default()
				m := plan.MachineFromPlatform(p)
				res, err := exec.Run(p, &interp.Trace{Records: recs}, exec.Options{
					Backend:      codegen.C,
					Partition:    part,
					UseCallQueue: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				ev := plan.EvaluatePlacement(ests, part, m)
				want := ev.CrossBytes
				for i := range recs {
					if part.OnCSD(recs[i].Line) {
						want += float64(nvme.SQESize + nvme.CQESize + p.Dev.Cfg.StatusBytes)
					} else {
						want += float64(recs[i].Cost.StorageBytes)
					}
				}
				if res.D2HBytes != want {
					t.Errorf("partition %d %v: executor D2H=%v, model=%v (crossings %v over %d moves)",
						pi, part.Lines(), res.D2HBytes, want, ev.CrossBytes, ev.Crossings)
				}
				_ = fmt.Sprintf("%v", part)
			}
		})
	}
}

// refCrossBytes is the executor's residency walk as it stood when
// residency was a map keyed by variable name, kept as the oracle for
// the slot-indexed one: a read of a variable resident on the other unit
// pulls its last-written bytes across the link once, and a write leaves
// the variable on the writer's unit. It covers static runs, where each
// record runs on its partition's unit.
func refCrossBytes(recs []interp.LineRecord, part codegen.Partition) int64 {
	type state struct {
		csd   bool
		bytes int64
	}
	home := map[string]state{}
	var cross int64
	for _, rec := range recs {
		csd := part.OnCSD(rec.Line)
		for _, rd := range rec.Reads {
			st, ok := home[rd.Name]
			if !ok {
				continue
			}
			if st.csd != csd {
				cross += st.bytes
				st.csd = csd
				home[rd.Name] = st
			}
		}
		for _, w := range rec.Writes {
			home[w.Name] = state{csd, w.Bytes}
		}
	}
	return cross
}

// TestResidencyWithoutInterpreter replays traces that never went through
// the interpreter, numbered by Trace.Slots on their first replay:
// driver.Synthetic's scenarios and seeded fixtures whose records reuse
// one or two variable names, read them twice in one record, read them
// before any write and overwrite them with new sizes. Under every
// partition tried, the executor's link bytes must equal the name-keyed
// residency walk plus the host lines' storage streaming plus the CSD
// lines' queue traffic, byte for byte.
func TestResidencyWithoutInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var traces []*interp.Trace
	for _, sc := range []*driver.Scenario{
		driver.Synthetic("small", 4, 5e5, 1<<18),
		driver.Synthetic("large", 8, 2e6, 1<<20),
	} {
		traces = append(traces, sc.Trace)
	}
	for k := 0; k < 40; k++ {
		names := []string{"x", "x", "y"}[:1+k%2*2]
		tr := &interp.Trace{}
		for i := 0; i < 2+rng.Intn(30); i++ {
			rec := interp.LineRecord{Line: 1 + rng.Intn(5), Cost: value.Cost{KernelWork: 1e4, StorageBytes: int64(rng.Intn(2) * 4096)}}
			for r := rng.Intn(3); r > 0; r-- {
				rec.Reads = append(rec.Reads, interp.VarUse{Name: names[rng.Intn(len(names))], Bytes: 1})
			}
			for w := rng.Intn(2); w > 0; w-- {
				rec.Writes = append(rec.Writes, interp.VarUse{Name: names[rng.Intn(len(names))], Bytes: int64(1 + rng.Intn(1<<16))})
			}
			tr.Records = append(tr.Records, rec)
		}
		traces = append(traces, tr)
	}
	for ti, tr := range traces {
		for pi := 0; pi < 4; pi++ {
			part := codegen.NewPartition()
			for _, ln := range tr.Lines() {
				if pi == 1 || pi > 1 && rng.Intn(2) == 1 {
					part.CSDLines[ln] = true
				}
			}
			p := platform.Default()
			res, err := exec.Run(p, tr, exec.Options{Backend: codegen.C, Partition: part, UseCallQueue: true})
			if err != nil {
				t.Fatal(err)
			}
			want := float64(refCrossBytes(tr.Records, part))
			for i := range tr.Records {
				if part.OnCSD(tr.Records[i].Line) {
					want += float64(nvme.SQESize + nvme.CQESize + p.Dev.Cfg.StatusBytes)
				} else {
					want += float64(tr.Records[i].Cost.StorageBytes)
				}
			}
			if res.D2HBytes != want {
				t.Errorf("trace %d, partition %v: executor D2H=%v, name-keyed walk=%v", ti, part.Lines(), res.D2HBytes, want)
			}
		}
	}
}
