package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/mpi"
	"repro/internal/mpiimpl"
	"repro/internal/npb"
	"repro/internal/sim"
)

// The traced run prices each layer from outside: it times calls into
// each layer's public functions around the same work the untraced run
// does, and touches no program code.
//
//   - sim: kernels are collected through sim.NewHook, installed only
//     here; Kernel.Executed gives the exact event count.
//   - exp store: a Store wrapper times DiskCache.Load and Store.
//   - npb, perf, ray2mesh: Runner.Run time of computed experiments,
//     less store time, summed by workload kind.
//   - netsim, mpi, tcpsim: every pattern and NPB experiment is run
//     again step by step through the calls exp.Run makes
//     (mpiimpl.Configure, Topology.Build, mpi.NewWorld, the body,
//     World.RunTimeout), and its Elapsed, DNF and census must equal
//     exp.Run's.

// timingStore wraps a Runner's backing store and takes the CPU time of
// its calls.
type timingStore struct {
	inner      exp.Store
	load       time.Duration
	store      time.Duration
	loadCalls  int
	storeCalls int
}

func (s *timingStore) Load(fp string) (exp.Result, bool) {
	t := cpuNow()
	res, ok := s.inner.Load(fp)
	s.load += cpuNow() - t
	s.loadCalls++
	return res, ok
}

func (s *timingStore) Store(fp string, res exp.Result) error {
	t := cpuNow()
	err := s.inner.Store(fp, res)
	s.store += cpuNow() - t
	s.storeCalls++
	return err
}

// layerTotals accumulates one traced pass.
type layerTotals struct {
	events      uint64
	simTime     time.Duration // computed experiments, store time excluded
	byKind      map[string]time.Duration
	hits        int
	hitOverhead time.Duration
	p2pSends    int64
	rendezvous  int64
	unexpected  int64
	store       timingStore
	pass        pass
}

// kindLayer maps a workload kind to the layer whose run time it is.
func kindLayer(kind string) string {
	switch kind {
	case exp.KindNPB:
		return "npb"
	case exp.KindRay2Mesh:
		return "ray2mesh"
	case exp.KindPattern:
		return "mpi" // priced by the replay's mpi.run_ms.* instead
	default: // pingpong, trace, fabric: perf.PingPong / perf.BandwidthTrace
		return "perf"
	}
}

// tracedRun runs the workload untraced and then traced for d each, so
// the difference is the tracing overhead, then replays the simulated
// experiments step by step, and reports the per-layer metrics.
func tracedRun(b *bench, d time.Duration, stderr io.Writer) (report, error) {
	plain, err := runTimed(b, d)
	if err != nil {
		return report{}, err
	}

	var kernels []*sim.Kernel
	sim.NewHook = func(k *sim.Kernel) { kernels = append(kernels, k) }
	defer func() { sim.NewHook = nil }()
	ts := &timingStore{}
	b.ts = ts
	defer func() { b.ts = nil }()
	var totals []layerTotals
	var want []exp.Result // the first traced pass's results, for the replay
	start := time.Now()
	for len(totals) < b.spec.minPasses || time.Since(start) < d {
		lt := layerTotals{byKind: make(map[string]time.Duration)}
		*ts = timingStore{}
		var seen timingStore // store totals up to the previous call
		observe := func(e exp.Experiment, res exp.Result, took time.Duration) {
			for _, k := range kernels {
				lt.events += k.Executed
			}
			kernels = kernels[:0]
			load := ts.load - seen.load
			spent := load + ts.store - seen.store
			seen = *ts
			if res.Cached {
				lt.hits++
				lt.hitOverhead += took - load
			} else {
				lt.simTime += took - spent
				lt.byKind[kindLayer(e.Workload.Kind)] += took - spent
			}
			lt.p2pSends += res.Census.P2PSends
			lt.rendezvous += res.Census.Rendezvous
			lt.unexpected += res.Census.Unexpected
		}
		p, res, err := b.runPass(observe)
		if err != nil {
			return report{}, err
		}
		if want == nil {
			want = res
		}
		lt.store, lt.pass = *ts, p
		totals = append(totals, lt)
	}
	sim.NewHook = nil
	b.ts = nil

	// Exact counts repeat from pass to pass, or the determinism contract
	// is broken and the traced passes fail.
	failed := 0
	first := totals[0]
	for _, lt := range totals {
		failed += lt.pass.fail
		if lt.events != first.events || lt.p2pSends != first.p2pSends ||
			lt.rendezvous != first.rendezvous || lt.unexpected != first.unexpected {
			fmt.Fprintln(stderr, "perfbench: exact counts differ between traced passes")
			failed += len(lt.pass.lat)
		}
	}

	// paper-warm simulates nothing, so there is nothing below exp to
	// replay; its netsim, mpi and tcpsim metrics read 0.
	var st replayStats
	if b.name != paperWarm {
		var rfail int
		st, rfail = replayAll(b.exps, want, stderr)
		failed += rfail
	}

	fpUS := fingerprintMicros(b.exps)
	n, pfail := plain.attempted()
	attempted := n + st.replayed
	for _, lt := range totals {
		attempted += len(lt.pass.lat)
	}
	failed += pfail

	med := func(f func(lt layerTotals) float64) float64 {
		v := make([]float64, len(totals))
		for i, lt := range totals {
			v[i] = f(lt)
		}
		return median(v)
	}
	perCall := func(total time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(total) / float64(calls) / float64(time.Microsecond)
	}
	plainCPU := make([]float64, len(plain.passes))
	for i, p := range plain.passes {
		plainCPU[i] = p.cpu.Seconds()
	}
	untraced := median(plainCPU)
	m := map[string]metric{
		"sim.events": {float64(first.events), "count"},
		"sim.ns_per_event": {med(func(lt layerTotals) float64 {
			if lt.events == 0 {
				return 0
			}
			return float64(lt.simTime) / float64(lt.events)
		}), "ns"},
		"netsim.build_ms":        {ms(st.build), "ms"},
		"netsim.build_mb":        {float64(st.buildBytes) / 1e6, "MB"},
		"mpi.world_ms":           {ms(st.world), "ms"},
		"mpi.coll_sends":         {float64(st.collSends), "count"},
		"mpi.coll_wan_sends":     {float64(st.collWANSends), "count"},
		"mpi.p2p_sends":          {float64(first.p2pSends), "count"},
		"mpi.rendezvous":         {float64(first.rendezvous), "count"},
		"mpi.unexpected":         {float64(first.unexpected), "count"},
		"tcpsim.rounds":          {float64(st.rounds), "count"},
		"tcpsim.bytes_delivered": {float64(st.bytesDelivered), "B"},
		"exp.fingerprint_us":     {fpUS, "us"},
		"exp.store_load_us":      {med(func(lt layerTotals) float64 { return perCall(lt.store.load, lt.store.loadCalls) }), "us"},
		"exp.hit_overhead_us":    {med(func(lt layerTotals) float64 { return perCall(lt.hitOverhead, lt.hits) }), "us"},
		"exp.store_write_ms":     {med(func(lt layerTotals) float64 { return ms(lt.store.store) }), "ms"},
		"runtime.gc_cycles":      {med(func(lt layerTotals) float64 { return float64(lt.pass.gcCycles) }), "count"},
		"runtime.gc_cpu_s":       {med(func(lt layerTotals) float64 { return lt.pass.gcCPU }), "s"},
		"host.calib_ms":          {median([]float64{plain.calib[0], plain.calib[1]}), "ms"},
		"host.gomaxprocs":        {float64(runtime.GOMAXPROCS(0)), "count"},
		"trace.overhead_pct":     {100 * (med(func(lt layerTotals) float64 { return lt.pass.cpu.Seconds() }) - untraced) / untraced, "%"},
	}
	for _, layer := range []string{"npb", "perf", "ray2mesh"} {
		m[layer+".run_ms"] = metric{med(func(lt layerTotals) float64 { return ms(lt.byKind[layer]) }), "ms"}
	}
	for _, pattern := range []string{"allreduce", "bcast", "alltoall"} {
		for _, alg := range []string{"flat", "multilevel"} {
			m["mpi.run_ms."+pattern+"."+alg] = metric{ms(st.run[pattern+"."+alg]), "ms"}
		}
	}
	fmt.Fprintf(stderr, "perfbench: traced %d passes after %d untraced; replayed %d experiments step by step\n",
		len(totals), len(plain.passes), st.replayed)
	return report{Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// fingerprintMicros is the median over 21 sweeps of the mean time of
// Experiment.Fingerprint across the workload's experiments.
func fingerprintMicros(exps []exp.Experiment) float64 {
	var v []float64
	for rep := 0; rep < 21; rep++ {
		t := cpuNow()
		for _, e := range exps {
			_ = e.Fingerprint()
		}
		v = append(v, float64(cpuNow()-t)/float64(len(exps))/float64(time.Microsecond))
	}
	return median(v)
}

// replayStats sums one step-by-step pass over the simulated experiments.
type replayStats struct {
	replayed       int
	build, world   time.Duration
	buildBytes     uint64
	run            map[string]time.Duration // "<pattern>.<flat|multilevel>"
	collSends      int64
	collWANSends   int64
	rounds         int64
	bytesDelivered int64
}

// replayAll runs every pattern and NPB experiment step by step and
// checks it against want, the traced pass's results (in the order of
// exps); it returns the sums and the number of replays that disagreed.
func replayAll(exps []exp.Experiment, want []exp.Result, stderr io.Writer) (replayStats, int) {
	st := replayStats{run: make(map[string]time.Duration)}
	failed := 0
	for i, e := range exps {
		if e.Workload.Kind != exp.KindPattern && e.Workload.Kind != exp.KindNPB {
			continue
		}
		runtime.GC() // as before every timed rank-scale call
		if err := replay(e, want[i], &st); err != nil {
			fmt.Fprintf(stderr, "perfbench: replay of %s: %v\n", e.Name(), err)
			failed++
		}
		st.replayed++
	}
	return st, failed
}

// replay is exp.Run's path for a healthy pattern or NPB experiment,
// one public call at a time, with each call timed.
func replay(e exp.Experiment, want exp.Result, st *replayStats) error {
	if e.EagerThreshold > 0 || e.SocketBuffer > 0 || !e.Faults.IsZero() || e.Workload.Timeout < 0 {
		return fmt.Errorf("replay covers healthy experiments without axis overrides only")
	}
	prof, tcp := mpiimpl.Configure(e.Impl, e.Tuning.TCP, e.Tuning.MPI)
	prof.Multilevel = e.Tuning.Multilevel
	k := sim.New(1)
	defer k.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := cpuNow()
	net, err := e.Topology.Build()
	st.build += cpuNow() - t
	runtime.ReadMemStats(&m1)
	st.buildBytes += m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return err
	}

	t = cpuNow()
	w := mpi.NewWorld(k, net, tcp, prof, e.Topology.RankHosts(net))
	st.world += cpuNow() - t

	var body func(*mpi.Rank)
	if e.Workload.Kind == exp.KindPattern {
		if body, err = exp.PatternBody(e.Workload.Pattern, e.Workload.Size, e.Workload.Iters); err != nil {
			return err
		}
	} else {
		spec := npb.Get(e.Workload.Bench)
		scale := e.Workload.Scale
		if scale == 0 {
			scale = 1
		}
		params := npb.Params{NP: e.Topology.NP(), Scale: scale}
		body = func(r *mpi.Rank) { spec.Run(r, params) }
	}
	limit := e.Workload.Timeout
	if limit == 0 {
		limit = time.Hour
	}
	t = cpuNow()
	elapsed, err := w.RunTimeout(body, limit)
	took := cpuNow() - t
	if e.Workload.Kind == exp.KindPattern {
		alg := "flat"
		if e.Tuning.Multilevel {
			alg = "multilevel"
		}
		st.run[e.Workload.Pattern+"."+alg] += took
	}

	s := w.Stats()
	st.collSends += s.CollSends
	st.collWANSends += s.CollWANSends
	fs := w.FlowStats()
	st.rounds += fs.Rounds
	st.bytesDelivered += fs.BytesDelivered

	dnf := errors.Is(err, mpi.ErrTimeout)
	if err != nil && !dnf {
		return fmt.Errorf("run: %w", err)
	}
	if elapsed != want.Elapsed || dnf != want.DNF {
		return fmt.Errorf("elapsed %v dnf %v, exp.Run gave %v dnf %v", elapsed, dnf, want.Elapsed, want.DNF)
	}
	got, _ := json.Marshal(exp.CensusOf(s))
	ref, _ := json.Marshal(want.Census)
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("census differs from exp.Run's")
	}
	return nil
}
