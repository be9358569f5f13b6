package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/exp"
	"repro/internal/grid5000"
	"repro/internal/mpiimpl"
)

//go:embed paper_experiments.json
var paperInputs []byte

// Workload names; every later change is measured against these.
const (
	paperCold = "paper-cold"
	paperWarm = "paper-warm"
	rankScale = "rank-scale"
)

// spec fixes what a workload runs and what it must produce.
type spec struct {
	// setupReps is how many times set-up runs; setup_s reports the
	// median.
	setupReps int
	// minPasses is the pass count every run completes, however short
	// -seconds is. It fixes the tail percentile (see tailPercentile).
	minPasses int
	// warmup is how many experiments of the canonical list set-up runs
	// before timing starts.
	warmup int
	// digest is the SHA-256 of exp.MarshalResults over one pass's
	// results sorted by fingerprint.
	digest string
	// dnf lists the fingerprints expected to finish DNF.
	dnf map[string]bool
	// collectEach runs an untimed runtime.GC() before every timed call.
	// Without it, which experiment pays for a collection depends on
	// what ran before it in the seeded order: on rank-scale the
	// experiments around the median took about 30 ms or about 44 ms in
	// a pass depending on whether a cycle landed in them. Starting each
	// from a collected heap makes an experiment's CPU time, its own
	// collections included, a property of the experiment.
	collectEach bool
}

var specs = map[string]spec{
	paperCold: {setupReps: 7, minPasses: 3, warmup: 8, digest: paperDigest, dnf: paperDNF},
	// paper-warm's set-up computes a whole cold pass to fill its cache.
	paperWarm: {setupReps: 3, minPasses: 200, warmup: 278, digest: paperDigest, dnf: paperDNF},
	rankScale: {setupReps: 7, minPasses: 3, warmup: 6, digest: rankDigest, collectEach: true},
}

// Recorded from this harness; a change to the simulation that alters
// any result alters these, and every pass then fails its check.
const (
	paperDigest = "769cbdde505b7cfbfd5265087006fac2c03f7ef146f6739660cd2b16b1212678"
	rankDigest  = "42b4878d3722e8f14a180563915547f40458e3092d3e4c635c52f1d60d4db87c"
)

// paperDNF are the two MPICH-Madeleine NPB runs on the 8+8 grid that
// exceed their time budget (SP and BT), the DNF cells of Figure 10.
var paperDNF = map[string]bool{
	"8b9d9d3cbc1d21ad": true, // MPICH-Madeleine/tcp-tuned/rennes+nancy x8/npb:SP@0.1
	"fbf433389dc36ba4": true, // MPICH-Madeleine/tcp-tuned/rennes+nancy x8/npb:BT@0.1
}

// rankScaleExperiments is the scaling workload: GridMPI over
// rennes+nancy+sophia, fully tuned against multilevel, 64 KiB allreduce
// and bcast at P = 96, 192, 384 and 4 KiB alltoall at P = 96, 192.
// The P = 96 experiments come first: set-up warms up on them.
func rankScaleExperiments() ([]exp.Experiment, error) {
	cells := []struct {
		pattern string
		size    int
		maxP    int
	}{
		{"allreduce", 64 << 10, 384},
		{"bcast", 64 << 10, 384},
		{"alltoall", 4 << 10, 192},
	}
	var exps []exp.Experiment
	for _, np := range []int{96, 192, 384} {
		topo, err := exp.EvenSplit(np, grid5000.Rennes, grid5000.Nancy, grid5000.Sophia)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			if np > c.maxP {
				continue
			}
			for _, tun := range []exp.Tuning{{TCP: true, MPI: true}, exp.MultilevelTuning} {
				exps = append(exps, exp.Experiment{
					Impl:     mpiimpl.GridMPI,
					Tuning:   tun,
					Topology: topo,
					Workload: exp.PatternWorkload(c.pattern, c.size, 1),
				})
			}
		}
	}
	return exps, nil
}

// bench is one workload's state across set-up and the timed phase.
type bench struct {
	name string
	spec spec
	exps []exp.Experiment
	// dir holds this process's result caches; removed at exit.
	dir string
	// filled is paper-warm's DiskCache, written during set-up.
	filled *exp.DiskCache
	rng    *rand.Rand
	// ts, when set, interposes on the Runner's backing store: the
	// traced run times store calls through it.
	ts *timingStore
	// seq numbers the cache directories this process creates.
	seq int
}

func newBench(name string, seed int64, dir string) (*bench, error) {
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s, %s, %s)", name, paperCold, paperWarm, rankScale)
	}
	return &bench{name: name, spec: s, dir: dir, rng: rand.New(rand.NewSource(seed))}, nil
}

// freshCache creates an empty DiskCache in a new directory.
func (b *bench) freshCache() (*exp.DiskCache, error) {
	b.seq++
	return exp.NewDiskCache(filepath.Join(b.dir, fmt.Sprintf("cache-%d", b.seq)))
}

// runner returns the Runner for one pass and the function that
// discards what the pass wrote: a fresh DiskCache for paper-cold, the
// set-up cache for paper-warm, no store for rank-scale.
func (b *bench) runner() (*exp.Runner, func(), error) {
	var store exp.Store
	cleanup := func() {}
	switch b.name {
	case paperCold:
		dc, err := b.freshCache()
		if err != nil {
			return nil, nil, err
		}
		store = dc
		cleanup = func() { os.RemoveAll(dc.Dir()) }
	case paperWarm:
		store = b.filled
	default:
		return exp.NewRunner(1), cleanup, nil
	}
	if b.ts != nil {
		b.ts.inner = store
		store = b.ts
	}
	return exp.NewRunnerStore(1, store), cleanup, nil
}

// setup loads the workload's inputs and brings the process to the state
// the timed phase starts from: for paper-warm, a DiskCache holding every
// result; for all, a collected heap and a warmed-up code path.
func (b *bench) setup() error {
	var err error
	if b.name == rankScale {
		b.exps, err = rankScaleExperiments()
	} else {
		b.exps, err = parseInputs(paperInputs)
	}
	if err != nil {
		return err
	}
	if b.name == paperWarm {
		if b.filled != nil {
			os.RemoveAll(b.filled.Dir())
		}
		if b.filled, err = b.freshCache(); err != nil {
			return err
		}
		r := exp.NewRunnerStore(1, b.filled)
		res := make([]exp.Result, len(b.exps))
		for i, e := range b.exps {
			res[i] = r.Run(e)
		}
		if st := r.CacheStats(); st.StoreErrors > 0 {
			return fmt.Errorf("set-up: %d results not written to the cache", st.StoreErrors)
		}
		if bad := b.check(res); bad > 0 {
			return fmt.Errorf("set-up: %d of %d results failed their check while filling the cache", bad, len(res))
		}
	}
	runtime.GC()
	r, cleanup, err := b.runner()
	if err != nil {
		return err
	}
	for _, e := range b.exps[:b.spec.warmup] {
		if b.spec.collectEach {
			runtime.GC()
		}
		r.Run(e)
	}
	cleanup()
	runtime.GC()
	return nil
}

// pass is one timed pass over the workload's experiments.
type pass struct {
	lat      []time.Duration // process CPU time per experiment, in the order of b.exps
	cpu      time.Duration   // sum of lat
	wall     time.Duration
	alloc    uint64 // heap bytes allocated (TotalAlloc delta)
	gcCycles uint64
	gcCPU    float64 // seconds
	fail     int
}

// runPass runs every experiment once, in a seeded order, through a
// fresh Runner, taking the CPU time of each Run call, then checks the
// results and returns them in the order of b.exps. observe, if not nil,
// sees each result and its CPU time right after the call.
func (b *bench) runPass(observe func(e exp.Experiment, res exp.Result, took time.Duration)) (pass, []exp.Result, error) {
	r, cleanup, err := b.runner()
	if err != nil {
		return pass{}, nil, err
	}
	defer cleanup()
	order := b.rng.Perm(len(b.exps))
	res := make([]exp.Result, len(b.exps))
	p := pass{lat: make([]time.Duration, len(order))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, i := range order {
		if b.spec.collectEach {
			runtime.GC()
		}
		// The collector's counts are taken around each call, so the
		// collections run between calls are not in them.
		gc0, gcCPU0 := gcSample()
		c := cpuNow()
		res[i] = r.Run(b.exps[i])
		p.lat[i] = cpuNow() - c
		gc1, gcCPU1 := gcSample()
		p.cpu += p.lat[i]
		p.gcCycles += gc1 - gc0
		p.gcCPU += gcCPU1 - gcCPU0
		if observe != nil {
			observe(b.exps[i], res[i], p.lat[i])
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.fail = b.check(res)
	st := r.CacheStats()
	if b.name == paperWarm && st.Disk != int64(len(res)) {
		// Every warm call must be a disk hit.
		p.fail = len(res)
	}
	if b.name == paperCold && (st.Computed != int64(len(res)) || st.StoreErrors > 0) {
		p.fail = len(res)
	}
	return p, res, nil
}

// check counts failed experiments: any Err, any DNF the spec does not
// expect, and, when the pass's canonical bytes do not hash to the
// recorded digest, every experiment.
func (b *bench) check(res []exp.Result) int {
	fail := 0
	for _, r := range res {
		if r.Err != "" || r.DNF != b.spec.dnf[r.Exp.Fingerprint()] {
			fail++
		}
	}
	if got := digest(res); got != b.spec.digest {
		fmt.Fprintf(os.Stderr, "perfbench: %s result digest %s, want %s\n", b.name, got, b.spec.digest)
		return len(res)
	}
	return fail
}

// digest is the SHA-256 of exp.MarshalResults over the results sorted
// by fingerprint, so the run order does not enter it. It hashes the
// same bytes one result at a time, so checking a pass never builds the
// whole document: a pass's results marshal to megabytes, and paper-warm
// checks hundreds of passes.
func digest(res []exp.Result) string {
	keys := make([]string, len(res))
	idx := make([]int, len(res))
	for i := range res {
		keys[i], idx[i] = res[i].Exp.Fingerprint(), i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	h := sha256.New()
	if len(res) == 0 {
		h.Write([]byte("[]"))
	} else {
		// MarshalResults indents by two spaces; an element of the
		// top-level array is its own indented encoding behind the
		// prefix "  ".
		h.Write([]byte("[\n  "))
		for k, i := range idx {
			if k > 0 {
				h.Write([]byte(",\n  "))
			}
			blob, err := json.MarshalIndent(res[i], "  ", "  ")
			if err != nil {
				panic("perfbench: unmarshalable result: " + err.Error())
			}
			h.Write(blob)
		}
		h.Write([]byte("\n]"))
	}
	return hex.EncodeToString(h.Sum(nil))
}
