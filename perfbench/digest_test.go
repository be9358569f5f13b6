package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"repro/internal/exp"
)

// The streaming digest must hash exactly the bytes of
// exp.MarshalResults over the results sorted by fingerprint.
func TestDigestMatchesMarshalResults(t *testing.T) {
	exps, err := rankScaleExperiments()
	if err != nil {
		t.Fatal(err)
	}
	var res []exp.Result
	for _, e := range exps[:3] {
		res = append(res, exp.Run(e))
	}
	sorted := append([]exp.Result(nil), res...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Exp.Fingerprint() < sorted[j].Exp.Fingerprint() })
	sum := sha256.Sum256(exp.MarshalResults(sorted))
	want := hex.EncodeToString(sum[:])
	if got := digest([]exp.Result{res[2], res[0], res[1]}); got != want {
		t.Fatalf("digest %s, MarshalResults hashes to %s", got, want)
	}
	empty := sha256.Sum256(exp.MarshalResults([]exp.Result{}))
	if got := digest(nil); got != hex.EncodeToString(empty[:]) {
		t.Fatalf("empty digest %s", got)
	}
}
