package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/exp"
)

// The paper workloads replay the experiments that `gridrepro -quick`
// runs, at its quick settings. They were captured once from the
// internal/core section constructors (captureList) and committed as
// paperInputFile, so no run pays a full pass just to enumerate them;
// `perfbench -check-inputs` recaptures and compares.
const (
	quickReps     = 20
	quickNASScale = 0.1
	quickRayScale = 0.1
	quickTrace    = 100

	paperInputFile = "paper_experiments.json"
)

// inputEntry is one committed experiment with the fingerprint it must
// hash to, so an edited or stale file is caught when it is loaded.
type inputEntry struct {
	Fingerprint string         `json:"fingerprint"`
	Experiment  exp.Experiment `json:"experiment"`
}

// recorder is an exp.Store that never hits and remembers every
// experiment the Runner writes through it.
type recorder struct {
	mu   sync.Mutex
	exps map[string]exp.Experiment
}

func (r *recorder) Load(string) (exp.Result, bool) { return exp.Result{}, false }

func (r *recorder) Store(fp string, res exp.Result) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.exps[fp] = res.Exp
	return nil
}

// captureList runs every section of the quick paper regeneration
// through a recording store and returns the distinct experiments,
// sorted by fingerprint. Section order and worker count do not matter:
// the set is what is recorded.
func captureList() ([]inputEntry, error) {
	rec := &recorder{exps: make(map[string]exp.Experiment)}
	r := exp.NewRunnerStore(1, rec)
	core.Table2(r, quickNASScale)
	core.Table4(r, quickReps)
	core.Figure5(r, quickReps)
	core.Figure3(r, quickReps)
	core.Figure6(r, quickReps)
	core.Table5(r, quickReps)
	core.Figure7(r, quickReps)
	core.Figure9(r, quickTrace)
	core.Figure10(r, quickNASScale)
	core.Figure11(r, quickNASScale)
	core.Figure12(r, quickNASScale)
	core.Figure13(r, quickNASScale)
	core.Table6(r, quickRayScale)
	core.Table7(r, quickRayScale)
	core.ExtensionMPICHG2(r, quickReps)
	core.ExtensionHeterogeneity(r, quickReps)
	core.BufferSweep(r, quickReps)
	if st := r.CacheStats(); st.StoreErrors > 0 || int(st.Computed) != len(rec.exps) {
		return nil, fmt.Errorf("capture: %d experiments computed, %d recorded (a failed experiment is not stored)", st.Computed, len(rec.exps))
	}
	list := make([]inputEntry, 0, len(rec.exps))
	for fp, e := range rec.exps {
		list = append(list, inputEntry{Fingerprint: fp, Experiment: e})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Fingerprint < list[j].Fingerprint })
	return list, nil
}

func marshalInputs(list []inputEntry) []byte {
	blob, err := json.MarshalIndent(list, "", " ")
	if err != nil {
		panic("perfbench: unmarshalable input list: " + err.Error())
	}
	return append(blob, '\n')
}

// parseInputs decodes the committed experiment list and checks that
// every entry still hashes to its recorded fingerprint.
func parseInputs(blob []byte) ([]exp.Experiment, error) {
	var list []inputEntry
	if err := json.Unmarshal(blob, &list); err != nil {
		return nil, fmt.Errorf("parse %s: %w", paperInputFile, err)
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("%s: empty experiment list", paperInputFile)
	}
	exps := make([]exp.Experiment, len(list))
	for i, in := range list {
		if got := in.Experiment.Fingerprint(); got != in.Fingerprint {
			return nil, fmt.Errorf("%s: entry %d hashes to %s, recorded as %s", paperInputFile, i, got, in.Fingerprint)
		}
		exps[i] = in.Experiment
	}
	return exps, nil
}

// checkInputs recaptures the list and reports whether the committed
// file still matches it byte for byte.
func checkInputs() error {
	list, err := captureList()
	if err != nil {
		return err
	}
	if !bytes.Equal(paperInputs, marshalInputs(list)) {
		return fmt.Errorf("%s is stale: recapturing gives a different list of %d experiments; rewrite it with -capture", paperInputFile, len(list))
	}
	return nil
}
