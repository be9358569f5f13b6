// Command perfbench is the repository's benchmark: a single-process,
// closed-loop harness that drives one workload through the public API
// of internal/exp with one client, one Runner worker and one experiment
// in flight, checks every result against a recorded digest, and prints
// one JSON object as its last line of output.
//
//	perfbench --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the workload with per-layer timing around the calls into each
// layer and prints the per-layer metrics. See README.md for what each
// workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// mainCPU is the process CPU time used before main: the runtime's and
// the packages' initialisation, the one-off part of set-up. The process
// CPU clock starts at exec, so this is measured from process start.
var mainCPU time.Duration

func main() {
	mainCPU = cpuNow()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
}

var errFlagParse = errors.New("flag parsing failed")

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: paper-cold, paper-warm or rank-scale")
	seed := fs.Int64("seed", 1, "workload seed; it permutes the experiment order of each pass")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's result caches (removed afterwards)")
	capture := fs.Bool("capture", false, "recapture the paper experiment list into ./"+paperInputFile+" and exit")
	check := fs.Bool("check-inputs", false, "recapture the paper experiment list and fail if the committed one differs")
	if err := fs.Parse(args); err != nil {
		return errFlagParse
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch {
	case *capture:
		list, err := captureList()
		if err != nil {
			return err
		}
		return os.WriteFile(paperInputFile, marshalInputs(list), 0o644)
	case *check:
		return checkInputs()
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b, err := newBench(*workload, *seed, dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: workload %s seed %d seconds %d trace %d GOMAXPROCS %d\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var rep report
	if *trace == 1 {
		rep, err = tracedRun(b, time.Duration(*seconds)*time.Second, stderr)
	} else {
		rep, err = measure(b, time.Duration(*seconds)*time.Second, stderr)
	}
	if err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// timed is what the untraced and traced runs share: set-up and the
// timed phase.
type timed struct {
	setup  time.Duration // process CPU time from process start to the first timed experiment
	passes []pass
	calib  [2]float64 // host calibration before and after, ms
}

func (t timed) attempted() (n, failed int) {
	for _, p := range t.passes {
		n += len(p.lat)
		failed += p.fail
	}
	return n, failed
}

// runTimed performs set-up spec.setupReps times, then whole passes
// until the timed phase has lasted d and at least minPasses passes
// completed.
func runTimed(b *bench, d time.Duration) (timed, error) {
	var t timed
	t.calib[0] = calibrate()
	reps := make([]float64, 0, b.spec.setupReps)
	for i := 0; i < b.spec.setupReps; i++ {
		start := cpuNow()
		if err := b.setup(); err != nil {
			return t, err
		}
		reps = append(reps, (cpuNow() - start).Seconds())
	}
	// Before main there is only the runtime and package initialisation;
	// it happens once, so it is added to the median of the repeatable part.
	t.setup = mainCPU + time.Duration(median(reps)*float64(time.Second))
	start := time.Now()
	for len(t.passes) < b.spec.minPasses || time.Since(start) < d {
		p, _, err := b.runPass(nil)
		if err != nil {
			return t, err
		}
		t.passes = append(t.passes, p)
	}
	t.calib[1] = calibrate()
	return t, nil
}

// typicalLatencies is each experiment's median CPU time over the passes,
// in milliseconds, sorted. The workloads mix experiments whose costs
// differ by three orders of magnitude; taking each one's median first
// keeps a pass-to-pass hiccup of one experiment from moving the
// percentiles, which are then read off the sorted medians.
func typicalLatencies(passes []pass) []float64 {
	lat := make([]float64, len(passes[0].lat))
	for i := range lat {
		v := make([]float64, len(passes))
		for k, p := range passes {
			v[k] = ms(p.lat[i])
		}
		lat[i] = median(v)
	}
	sort.Float64s(lat)
	return lat
}

// measure is the untraced run: the end-to-end metrics.
func measure(b *bench, d time.Duration, stderr io.Writer) (report, error) {
	t, err := runTimed(b, d)
	if err != nil {
		return report{}, err
	}
	var rates, wallRates, allocs []float64
	for _, p := range t.passes {
		rates = append(rates, float64(len(p.lat))/p.cpu.Seconds())
		wallRates = append(wallRates, float64(len(p.lat))/p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6)
	}
	fmt.Fprintf(stderr, "perfbench: per-pass experiments per CPU second %.2f\n", rates)
	lat := typicalLatencies(t.passes)
	tailP := tailPercentile(b.spec.minPasses * len(b.exps))
	n, failed := t.attempted()
	fmt.Fprintf(stderr, "perfbench: %d passes, %d experiments; tail at p%g of %d per-experiment medians; %.2f experiments per wall-clock second; host calibration %.2f ms before, %.2f ms after\n",
		len(t.passes), n, tailP, len(lat), median(wallRates), t.calib[0], t.calib[1])
	return report{
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {t.setup.Seconds(), "s"},
			"exp_per_s":   {median(rates), "1/s"},
			"exp_p50_ms":  {percentile(lat, 50), "ms"},
			"exp_tail_ms": {percentile(lat, tailP), "ms"},
			"alloc_mb":    {median(allocs), "MB"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}, nil
}
