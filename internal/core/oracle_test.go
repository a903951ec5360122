package core_test

import (
	"testing"

	"activego/internal/core"
	"activego/internal/plan"
	"activego/internal/workloads"
)

// TestWorkloadPlansMatchOracle pins the runtime's planning entry to the
// brute-force oracle on every embedded workload at -scalediv 2048: the
// prepared plan — never-win pins and branch-and-bound together — must
// equal plan.Optimal over the legality-only constraints in partition,
// T_CSD and T_host. The plan package's property tests compare the two
// on random estimates only; this runs them on sampled programs.
// Blackscholes has exactly plan.MaxOptimalLines free lines.
func TestWorkloadPlansMatchOracle(t *testing.T) {
	params := workloads.Params{ScaleDiv: 2048, Seed: 42}
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			inst := spec.Build(params)
			pr, err := core.ForWorkload(inst).Prepare(inst)
			if err != nil {
				t.Fatal(err)
			}
			got := pr.Plan
			want := plan.Optimal(got.Estimates, plan.Constraints{HostOnly: pr.Analysis.HostPinned()}, pr.Machine)
			if !got.Partition.Equal(want.Partition) || got.TCSD != want.TCSD || got.THost != want.THost {
				t.Errorf("%s plans %v (T_CSD %.17g, T_host %.17g), the oracle %v (T_CSD %.17g, T_host %.17g)",
					got.Planner, got.Partition.Lines(), got.TCSD, got.THost, want.Partition.Lines(), want.TCSD, want.THost)
			}
		})
	}
}
