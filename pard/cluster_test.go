package pard

import (
	"strings"
	"testing"

	"repro/internal/policy"
)

// TestClusterOneRackMatchesBareRack: a 1-rack cluster behind a
// passthrough leaf/spine is byte-identical — per-server state digest —
// to the bare Rack running the same workload. The fabric only ever
// receives broadcast copies it drops (unknown MACs, split horizon), so
// the servers cannot tell the switches exist.
func TestClusterOneRackMatchesBareRack(t *testing.T) {
	want := sequentialRackDigest(t, 4)

	c, err := NewCluster(ClusterConfig{
		Racks: 1, ServersPerRack: 4, Shards: 1, Server: equivConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	provisionEquivWorkload(t, c.Servers)
	c.Run(equivRun)

	if got := StateDigest(c.Servers); got != want {
		t.Errorf("1-rack cluster digest differs from bare rack: %s", firstDiff(want, got))
	}
	// The equivalence is non-vacuous only if the leaf actually saw (and
	// dropped) the servers' broadcast copies.
	if c.Leaves[0].Dropped == 0 {
		t.Error("leaf saw no traffic; equivalence test is vacuous")
	}
}

// clusterDigest builds the reference 4-rack × 2-server cluster, runs
// the standard cross-rack workload and returns the full digest
// (servers + switches).
func clusterDigest(t *testing.T, shards, workers int) string {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Racks: 4, ServersPerRack: 2, Shards: shards, Workers: workers,
		Server: equivConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ProvisionClusterWorkload(c, equivFrames); err != nil {
		t.Fatal(err)
	}
	c.Run(equivRun)
	if c.CrossRackFrames() == 0 {
		t.Fatal("no frames crossed the fabric; cluster workload is vacuous")
	}
	return c.Digest()
}

// TestClusterShardInvariance: the cluster digest — including every
// switch's tables and counters — is byte-identical across shard counts
// and repeated runs.
func TestClusterShardInvariance(t *testing.T) {
	want := clusterDigest(t, 1, 1)
	for _, shards := range []int{2, 4} {
		if got := clusterDigest(t, shards, shards); got != want {
			t.Errorf("shards=%d digest differs from sequential cluster: %s",
				shards, firstDiff(want, got))
		}
	}
	if got := clusterDigest(t, 4, 4); got != want {
		t.Errorf("repeated run not reproducible: %s", firstDiff(want, got))
	}
}

// TestClusterWiringValidation is the satellite-1 regression: link
// latencies below the PDES lookahead window are rejected at wiring
// time with the minimum window named, on both the sharded rack and the
// cluster topology.
func TestClusterWiringValidation(t *testing.T) {
	pr := NewParallelRack(equivConfig(), ParallelRackConfig{Servers: 2, Shards: 2})
	err := pr.ConnectLatency(0, 1, 0)
	if err == nil {
		t.Fatal("zero-latency cross-shard link accepted")
	}
	if !strings.Contains(err.Error(), pr.LinkLatency().String()) ||
		!strings.Contains(err.Error(), "lookahead window") {
		t.Errorf("wiring error does not name the minimum window: %v", err)
	}

	if _, err := NewCluster(ClusterConfig{Racks: 0}); err == nil {
		t.Error("0-rack cluster accepted")
	}
	_, err = NewCluster(ClusterConfig{Racks: 2, ServersPerRack: 1, Shards: 3})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad shard count error = %v", err)
	}
}

// intentGateSrc is the reference intent applied in the compilation
// gate; memtierManualSrc is its hand-written per-server equivalent.
const intentGateSrc = `
intent memtier {
    target miss_rate <= 30% on llc;
    protect ldom svc on cpa*;
    fabric weight ldom svc = 4;
}
`

const memtierManualSrc = `
cpa llc ldom svc: when miss_rate > 30% => waymask = 0xff00, others waymask = 0x00ff
`

// gateCluster builds the reference cluster with an LLC small enough
// that the STREAM workload's miss rate crosses the intent's envelope.
func gateCluster(t *testing.T) *Cluster {
	t.Helper()
	scfg := DefaultConfig()
	scfg.Cores = 2
	scfg.LLC.SizeBytes = 256 * 1024
	scfg.SampleInterval = 50 * Microsecond
	c, err := NewCluster(ClusterConfig{
		Racks: 4, ServersPerRack: 2, Server: scfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ProvisionClusterWorkload(c, equivFrames); err != nil {
		t.Fatal(err)
	}
	return c
}

// gateTrajectory runs the gate cluster in chunks after install,
// recording the digest after each chunk.
func gateTrajectory(t *testing.T, install func(*Cluster)) ([]string, *Cluster) {
	t.Helper()
	c := gateCluster(t)
	install(c)
	var digests []string
	for i := 0; i < 5; i++ {
		c.Run(400 * Microsecond)
		digests = append(digests, c.Digest())
	}
	return digests, c
}

// TestClusterIntentMatchesHandWrittenPolicies is the acceptance gate:
// on the reference 4-rack topology, applying the memtier intent
// through the federated controller produces per-server policies that
// (a) compile finding-free, and (b) drive the cluster through a digest
// trajectory byte-identical to hand-loading the equivalent per-server
// policy and hand-programming the switch weights.
func TestClusterIntentMatchesHandWrittenPolicies(t *testing.T) {
	viaIntent, ic := gateTrajectory(t, func(c *Cluster) {
		f, err := policy.Parse("memtier.pard", intentGateSrc)
		if err != nil {
			t.Fatal(err)
		}
		cis, err := c.Controller.CompileIntents(f, policy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(cis) != 1 || len(cis[0].Policies) != len(c.Servers) {
			t.Fatalf("compiled %d intents over %d servers", len(cis), len(cis[0].Policies))
		}
		// Finding-free: pardcheck's linter over every emitted program.
		for _, sp := range cis[0].Policies {
			if issues := policy.Lint(sp.Program); len(issues) != 0 {
				t.Fatalf("emitted policy for %s has findings: %v", sp.Server, issues)
			}
		}
		if err := c.Controller.ApplyIntent(cis[0]); err != nil {
			t.Fatal(err)
		}
	})

	byHand, _ := gateTrajectory(t, func(c *Cluster) {
		for _, srv := range c.Servers {
			if err := srv.ReloadPolicy("manual-memtier", memtierManualSrc); err != nil {
				t.Fatal(err)
			}
		}
		for _, sw := range c.Switches() {
			sw.Plane().CreateRow(0)
			sw.Plane().SetParam(0, "weight", 4)
		}
	})

	for i := range viaIntent {
		if viaIntent[i] != byHand[i] {
			t.Fatalf("trajectories diverge at chunk %d: %s",
				i, firstDiff(byHand[i], viaIntent[i]))
		}
	}

	// The gate is vacuous unless the lowered guard actually fired.
	fired := uint64(0)
	for _, s := range ic.Servers {
		fired += s.Firmware.TriggersHandled
	}
	if fired == 0 {
		t.Fatal("intent guard never fired; shrink the LLC or lengthen the run")
	}
	// And the rollout is visible in the federation surfaces.
	if len(ic.Controller.Applied) != 1 || ic.Controller.Applied[0] != "memtier" {
		t.Fatalf("controller Applied = %v", ic.Controller.Applied)
	}
	txt, err := ic.Controller.JournalText("rack0-srv0", 20)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "cluster:memtier") {
		t.Fatalf("server journal lacks cluster origin:\n%s", txt)
	}
	ic.Controller.Collect()
	top := ic.Controller.TopText("cluster")
	if !strings.Contains(top, "cluster.prm.triggers_handled") {
		t.Fatalf("aggregated series missing:\n%s", top)
	}
}
