package pard

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// The equivalence workload: every server runs STREAM on core 0 and
// pumps flow-tagged frames to its ring successor, whose SDN rule steers
// them into the destination LDom. Pump phases and periods differ per
// server so cross-server deliveries never tie with each other at one
// receiver — the residual same-tick tie rule is documented in
// DESIGN.md §11, and the suite's job is to prove the common case is
// byte-identical, not to construct adversarial ties.
const (
	equivRun    = Millisecond
	equivFrames = 20
)

func equivConfig() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.TraceSample = 8 // flight recorder on: trace equivalence is part of the digest
	return cfg
}

// provisionEquivWorkload installs LDoms, flow rules and pumps on an
// already-linked set of rack servers.
func provisionEquivWorkload(t *testing.T, servers []*System) {
	t.Helper()
	if err := ProvisionScalingWorkload(servers, equivFrames); err != nil {
		t.Fatal(err)
	}
}

func sequentialRackDigest(t *testing.T, n int) string {
	t.Helper()
	rack := NewRack(equivConfig(), n)
	if err := rack.ConnectRing(DefaultLinkLatency); err != nil {
		t.Fatal(err)
	}
	provisionEquivWorkload(t, rack.Servers)
	rack.Run(equivRun)
	return StateDigest(rack.Servers)
}

func parallelRackDigest(t *testing.T, n, shards, workers int) (string, *ParallelRack) {
	t.Helper()
	pr := NewParallelRack(equivConfig(), ParallelRackConfig{
		Servers: n, Shards: shards, Workers: workers,
	})
	if err := pr.ConnectRing(); err != nil {
		t.Fatal(err)
	}
	provisionEquivWorkload(t, pr.Servers)
	pr.Run(equivRun)
	return StateDigest(pr.Servers), pr
}

// firstDiff locates the first differing line of two digests, for
// readable failures.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " != " + bl[i]
		}
	}
	return "length mismatch"
}

// TestParallelRackEquivalence is the tentpole's gate: for rack sizes
// 2/4/8 and shard counts 1/2/4, the sharded run's full state digest —
// control-plane stats trees, PRM counters, trace spans — must be
// byte-identical to the sequential single-engine rack's.
func TestParallelRackEquivalence(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		want := sequentialRackDigest(t, n)
		if !strings.Contains(want, "rx_pkts") {
			t.Fatalf("n=%d: workload produced no NIC traffic", n)
		}
		for _, shards := range []int{1, 2, 4} {
			if shards > n {
				continue
			}
			got, pr := parallelRackDigest(t, n, shards, shards)
			if got != want {
				t.Errorf("n=%d shards=%d digest differs from sequential rack: %s",
					n, shards, firstDiff(want, got))
			}
			if shards > 1 && pr.Group.CrossSends == 0 {
				t.Errorf("n=%d shards=%d: no frames crossed shards", n, shards)
			}
		}
	}
}

// TestParallelRackWorkerInvariance re-runs one sharded configuration
// with different worker-pool sizes (run under -race by `make race`):
// the pool size must never reach simulation state.
func TestParallelRackWorkerInvariance(t *testing.T) {
	ref, _ := parallelRackDigest(t, 4, 4, 1)
	for _, workers := range []int{2, 4} {
		got, _ := parallelRackDigest(t, 4, 4, workers)
		if got != ref {
			t.Errorf("workers=%d digest differs from inline run: %s",
				workers, firstDiff(ref, got))
		}
	}
}

// TestParallelRackMergedTraces: per-server recorder rings merge into
// one deterministic timeline regardless of sharding.
func TestParallelRackMergedTraces(t *testing.T) {
	recorders := func(servers []*System) []*trace.Recorder {
		out := make([]*trace.Recorder, len(servers))
		for i, s := range servers {
			out[i] = s.Recorder
		}
		return out
	}
	seq := NewRack(equivConfig(), 4)
	if err := seq.ConnectRing(DefaultLinkLatency); err != nil {
		t.Fatal(err)
	}
	provisionEquivWorkload(t, seq.Servers)
	seq.Run(equivRun)
	want := trace.MergeTraces(recorders(seq.Servers)...)

	_, pr := parallelRackDigest(t, 4, 2, 2)
	got := trace.MergeTraces(recorders(pr.Servers)...)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("merged %d traces, want %d (nonzero)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("merged trace %d differs: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestParallelRackValidation(t *testing.T) {
	pr := NewParallelRack(equivConfig(), ParallelRackConfig{Servers: 4, Shards: 2})
	if pr.ShardOf(0) != 0 || pr.ShardOf(1) != 1 || pr.ShardOf(2) != 0 {
		t.Fatal("round-robin shard placement broken")
	}
	if err := pr.Connect(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := pr.Connect(1, 0); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := pr.ConnectLatency(2, 3, pr.LinkLatency()-1); err == nil {
		t.Error("link latency below lookahead window accepted")
	}
	for _, pair := range [][2]int{{0, 0}, {-1, 1}, {0, 9}} {
		if err := pr.Connect(pair[0], pair[1]); err == nil {
			t.Errorf("link %v accepted", pair)
		}
	}
}
