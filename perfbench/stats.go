package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99.99, 99.9, 99.5, 99, 98, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile that leaves at least
// ten of n timed calls beyond it. Each workload passes the call count
// it guarantees, not the count it happened to reach, so the reported
// percentile cannot flip between runs of different length.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile of sorted by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median of a sample; the input is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on
// Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSamples is reused by every gcSample call, so that taking a sample
// allocates nothing inside the passes whose allocation is measured.
var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// gcSample reads the collector's cumulative cycle count and CPU time.
func gcSample() (cycles uint64, cpuSeconds float64) {
	s := gcSamples
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		cpuSeconds = s[1].Value.Float64()
	}
	return cycles, cpuSeconds
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer loop that touches no repository code,
// five times, and returns the median in milliseconds. Run before and
// after a measurement, it shows a slower or busier host as drift
// instead of as a regression of the program.
func calibrate() float64 {
	var t []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		t = append(t, ms(time.Since(start)))
	}
	return median(t)
}
