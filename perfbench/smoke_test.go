package main

import (
	"testing"
)

// smokeRounds are tiny pass lengths whose default-seed end states are
// recorded in checks.go.
var smokeRounds = map[string]int{"colocation": 4, "cluster": 2, "control": 40}

func TestSmokeEachWorkloadMatchesRecord(t *testing.T) {
	k, err := newCalKernel()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rounds := smokeRounds[w.name]
			key := recordKey(w.name, defaultSeed, rounds)
			m, _, _, err := setup(w, defaultSeed, "..", k)
			if err != nil {
				t.Fatal(err)
			}
			p := measurePass(w, m, rounds, k, nil)
			c := checker{attempted: p.attempted, failed: p.failed}
			got := checkOutputs(&c, w, defaultSeed, rounds, m, p)
			if _, ok := recorded[key]; !ok {
				t.Fatalf("no recorded end state for %s (digest %s, model {%s})", key, got, m.model())
			}
			if c.failed != 0 {
				t.Fatalf("%d of %d operations and checks failed", c.failed, c.attempted)
			}
		})
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	w, _ := findWorkload("control")
	rounds := smokeRounds["control"]
	k, err := newCalKernel()
	if err != nil {
		t.Fatal(err)
	}
	s, err := runTraced(w, defaultSeed, rounds, "..", t.TempDir(), k)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Failed != 0 {
		t.Fatalf("traced run: %d of %d failed", s.Failed, s.Attempted)
	}
	if share := s.Metrics["trace.layer_share_pct"].Value; share < 50 || share > 100.0001 {
		t.Errorf("layers account for %.2f%% of the traced pass", share)
	}
}
