package main

import "testing"

// The committed experiment list must be what the core section
// constructors generate today; a change to them means rewriting it with
// `go run . -capture` (and re-recording the digests).
func TestCommittedInputsMatchCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("recapturing runs a full quick paper pass")
	}
	if err := checkInputs(); err != nil {
		t.Fatal(err)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{48, 75},      // rank-scale: 3 passes of 16
		{834, 98},     // paper-cold: 3 passes of 278
		{55600, 99.9}, // paper-warm: 200 passes of 278
		{1_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {75, 3.25}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.p, got, c.want)
		}
	}
}
