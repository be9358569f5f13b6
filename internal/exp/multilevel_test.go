package exp

import (
	"bytes"
	"testing"

	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

// multilevelSweep is a small all-collectives multilevel batch on the
// 3-site asymmetric layout (the shape GridMPI's two-site lanes cannot
// handle).
func multilevelSweep() []Experiment {
	asym := Asym(Site(grid5000.Rennes, 3), Site(grid5000.Nancy, 2), Site(grid5000.Sophia, 2))
	var exps []Experiment
	for _, p := range []string{"bcast", "reduce", "allreduce", "gather", "scatter", "allgather", "alltoall", "barrier"} {
		exps = append(exps, Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   MultilevelTuning,
			Topology: asym,
			Workload: PatternWorkload(p, 64<<10, 2),
		})
	}
	return exps
}

// TestMultilevelDeterministicAcrossWorkers: the multilevel batch's
// canonical result bytes are identical whatever the pool size, and
// across reruns — collective staging must not leak scheduling
// nondeterminism into the results.
func TestMultilevelDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		results := NewRunner(workers).RunAll(multilevelSweep())
		for _, res := range results {
			if res.Err != "" {
				t.Fatalf("%s: %s", res.Exp.Name(), res.Err)
			}
		}
		return MarshalResults(results)
	}
	seq := marshal(1)
	for _, workers := range []int{4, 4} { // second 4 is the rerun
		if par := marshal(workers); !bytes.Equal(seq, par) {
			t.Fatalf("multilevel results diverged at %d workers (%d vs %d bytes)", workers, len(par), len(seq))
		}
	}
}

// TestMultilevelRejectsRay2Mesh: the application builds its own
// communication stack, so the tuning level must refuse rather than
// silently measure flat collectives under a multilevel label.
func TestMultilevelRejectsRay2Mesh(t *testing.T) {
	res := Run(Experiment{
		Impl:     mpiimpl.GridMPI,
		Tuning:   MultilevelTuning,
		Workload: Ray2MeshWorkload(grid5000.Rennes, 0.02),
	})
	if res.Err == "" {
		t.Fatal("ray2mesh under multilevel tuning did not error")
	}
}
