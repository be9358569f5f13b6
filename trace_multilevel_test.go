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

var updateTraceML = flag.Bool("update-trace-multilevel", false, "rewrite testdata/event_order_multilevel.golden from the current kernel")

// multilevelTraceExperiments lock the multilevel collectives' execution
// order: every staged pattern on the 3-site asymmetric layout where
// GridMPI's two-site lanes give up and the multilevel gateways genuinely
// differ from the flat trees. Sizes straddle the eager/rendezvous and
// striping thresholds so the gateway hops exercise both protocols.
func multilevelTraceExperiments() []exp.Experiment {
	asym := exp.Asym(
		exp.Site(grid5000.Rennes, 2),
		exp.Site(grid5000.Nancy, 1),
		exp.Site(grid5000.Sophia, 1),
	)
	var exps []exp.Experiment
	for _, w := range []exp.Workload{
		exp.PatternWorkload("bcast", 2<<20, 1),
		exp.PatternWorkload("reduce", 256<<10, 2),
		exp.PatternWorkload("allreduce", 256<<10, 2),
		exp.PatternWorkload("gather", 64<<10, 2),
		exp.PatternWorkload("scatter", 64<<10, 2),
		exp.PatternWorkload("allgather", 64<<10, 2),
		exp.PatternWorkload("alltoall", 64<<10, 2),
		exp.PatternWorkload("barrier", 0, 4),
	} {
		exps = append(exps, exp.Experiment{
			Impl:     mpiimpl.GridMPI,
			Tuning:   exp.MultilevelTuning,
			Topology: asym,
			Workload: w,
		})
	}
	return exps
}

// TestMultilevelEventOrderTrace replays the committed (time, seq)
// execution stream of the multilevel collectives. Any change to gateway
// selection, phase tagging or staging order shows up here byte-exactly
// at the first diverging event. Regenerate only for a deliberate
// semantic change, with -update-trace-multilevel.
func TestMultilevelEventOrderTrace(t *testing.T) {
	var buf bytes.Buffer
	sim.NewHook = func(k *sim.Kernel) {
		k.SetTracer(func(at sim.Time, seq uint64) {
			fmt.Fprintf(&buf, "%d %d\n", int64(at), seq)
		})
	}
	defer func() { sim.NewHook = nil }()

	for _, e := range multilevelTraceExperiments() {
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

	golden := filepath.Join("testdata", "event_order_multilevel.golden")
	if *updateTraceML {
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
		t.Fatalf("missing golden (generate with -update-trace-multilevel): %v", err)
	}
	got := buf.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("multilevel event order diverged at line %d:\n  got  %q\n  want %q",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("event stream length changed: got %d lines, want %d", len(gotLines), len(wantLines))
}
