package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
	"repro/internal/sim"
)

var updateTraceFlat = flag.Bool("update-trace-flat", false, "rewrite testdata/event_order_flat.golden from the current kernel")

// flatTraceExperiments lock the non-multilevel collective paths that the
// other event-order goldens leave uncovered: GridMPI's two-site lane
// broadcast and allreduce (with as many lanes as sites have nodes, and
// with fewer lanes than the larger site), the flat reduce+bcast
// allreduce on a non-power-of-two world, and GridMPI's single-cluster
// scatter+ring broadcast.
func flatTraceExperiments() []exp.Experiment {
	full := exp.Tuning{TCP: true, MPI: true}
	even := exp.Asym(exp.Site(grid5000.Rennes, 4), exp.Site(grid5000.Nancy, 4))
	odd := exp.Asym(exp.Site(grid5000.Rennes, 3), exp.Site(grid5000.Nancy, 2))
	cluster := exp.Cluster(6)
	return []exp.Experiment{
		{Impl: mpiimpl.GridMPI, Tuning: full, Topology: even, Workload: exp.PatternWorkload("bcast", 2<<20, 1)},
		{Impl: mpiimpl.GridMPI, Tuning: full, Topology: even, Workload: exp.PatternWorkload("allreduce", 256<<10, 2)},
		{Impl: mpiimpl.GridMPI, Tuning: full, Topology: odd, Workload: exp.PatternWorkload("bcast", 1<<20, 1)},
		{Impl: mpiimpl.MPICH2, Tuning: full, Topology: odd, Workload: exp.PatternWorkload("allreduce", 64<<10, 2)},
		{Impl: mpiimpl.GridMPI, Tuning: full, Topology: cluster, Workload: exp.PatternWorkload("bcast", 1<<20, 1)},
		{Impl: mpiimpl.GridMPI, Tuning: full, Topology: cluster, Workload: exp.PatternWorkload("allreduce", 64<<10, 2)},
	}
}

// TestFlatEventOrderTrace replays the committed (time, seq) execution
// stream of the flat and two-site collectives. Any change to tree shape,
// lane assignment, phase tagging or send order shows up here byte-exactly
// at the first diverging event. Regenerate only for a deliberate
// semantic change, with -update-trace-flat.
func TestFlatEventOrderTrace(t *testing.T) {
	var buf bytes.Buffer
	sim.NewHook = func(k *sim.Kernel) {
		k.SetTracer(func(at sim.Time, seq uint64) {
			fmt.Fprintf(&buf, "%d %d\n", int64(at), seq)
		})
	}
	defer func() { sim.NewHook = nil }()

	for _, e := range flatTraceExperiments() {
		fmt.Fprintf(&buf, "# %s\n", e.Name())
		res := exp.Run(e)
		if res.Err != "" {
			t.Fatalf("%s: %s", e.Name(), res.Err)
		}
		if res.DNF {
			t.Fatalf("%s: did not finish", e.Name())
		}
		fmt.Fprintf(&buf, "= elapsed %d\n", int64(res.Elapsed))
	}

	golden := filepath.Join("testdata", "event_order_flat.golden")
	if *updateTraceFlat {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d bytes, %d lines", golden, buf.Len(), bytes.Count(buf.Bytes(), []byte("\n")))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (generate with -update-trace-flat): %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("flat event order diverged at line %d:\n  got  %q\n  want %q",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("event stream length changed: got %d lines, want %d", len(gotLines), len(wantLines))
}
