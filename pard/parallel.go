package pard

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iodev"
	"repro/internal/sim"
)

// DefaultLinkLatency is the wire latency of a rack link when the caller
// does not choose one: roughly a top-of-rack switch hop. It doubles as
// the sharded coordinator's lookahead window, so larger values mean
// fewer barriers per simulated second.
const DefaultLinkLatency = Microsecond

// ParallelRackConfig shapes the sharded rack.
type ParallelRackConfig struct {
	// Servers is the rack size.
	Servers int
	// Shards is the number of independent engines; server i lives on
	// shard i mod Shards. 1 degenerates to the sequential rack (same
	// construction order, same single engine — byte-identical output).
	// 0 means one shard per server.
	Shards int
	// Workers bounds the goroutine pool driving the shards; 0 means
	// GOMAXPROCS, 1 runs every window inline on the calling goroutine.
	// Worker count never affects simulation results, only wall clock.
	Workers int
	// LinkLatency is the wire latency of every link, and therefore the
	// group's conservative lookahead window. 0 means DefaultLinkLatency.
	LinkLatency Tick
}

// ParallelRack is Rack sharded across engines: each shard owns a subset
// of the servers (with their own packet pools and trace recorders), the
// coordinator advances global time in windows of one link latency, and
// cross-shard frames travel through the shard runtime's deterministic
// mailboxes. The merged schedule is reproducible for any shard or
// worker count, and matches the sequential Rack — parallel_test.go
// asserts stats, traces and PRM counters are byte-identical.
type ParallelRack struct {
	Group   *sim.ShardGroup
	Servers []*System

	shardOf []int
	window  Tick
	links   map[linkKey]bool
}

// NewParallelRack builds the sharded rack: n servers round-robined over
// the shards, each server constructed whole on its shard's engine.
func NewParallelRack(cfg Config, pc ParallelRackConfig) *ParallelRack {
	if pc.Servers <= 0 {
		panic("pard: rack needs at least one server")
	}
	if pc.Shards <= 0 || pc.Shards > pc.Servers {
		pc.Shards = pc.Servers
	}
	if pc.LinkLatency == 0 {
		pc.LinkLatency = DefaultLinkLatency
	}
	r := &ParallelRack{
		Group:  sim.NewShardGroup(pc.Shards, pc.LinkLatency, pc.Workers),
		window: pc.LinkLatency,
		links:  make(map[linkKey]bool),
	}
	for i := 0; i < pc.Servers; i++ {
		shard := i % pc.Shards
		r.shardOf = append(r.shardOf, shard)
		eng := r.Group.Shard(shard).Engine()
		r.Servers = append(r.Servers, NewSystemOn(cfg, eng, core.NewIDSource()))
	}
	return r
}

// ShardOf returns the shard index hosting server i.
func (r *ParallelRack) ShardOf(i int) int { return r.shardOf[i] }

// LinkLatency returns the rack's wire latency (= lookahead window).
func (r *ParallelRack) LinkLatency() Tick { return r.window }

// Connect links servers i and j with the rack's link latency. Same-
// shard pairs get an ordinary local link; cross-shard pairs get a pair
// of mailbox wires. Duplicate links are rejected.
func (r *ParallelRack) Connect(i, j int) error { return r.ConnectLatency(i, j, r.window) }

// ConnectLatency is Connect with an explicit latency, which must be at
// least the lookahead window — a shorter wire would let a frame arrive
// inside the window the destination shard is already executing.
func (r *ParallelRack) ConnectLatency(i, j int, latency Tick) error {
	if i < 0 || i >= len(r.Servers) || j < 0 || j >= len(r.Servers) || i == j {
		return fmt.Errorf("pard: bad rack link %d-%d", i, j)
	}
	if latency < r.window {
		return fmt.Errorf("pard: link %d-%d latency %v is below the PDES lookahead window: links need latency >= %v here, or a smaller LinkLatency when building the rack (Connect's zero-latency default only exists on the sequential Rack)",
			i, j, latency, r.window)
	}
	k := linkKey{i, j}.normalize()
	if r.links[k] {
		return fmt.Errorf("pard: servers %d and %d are already linked", k.a, k.b)
	}
	si, sj := r.shardOf[i], r.shardOf[j]
	if si == sj {
		if err := r.Servers[i].NIC.ConnectPeerLatency(r.Servers[j].NIC, latency); err != nil {
			return err
		}
	} else {
		r.Servers[i].NIC.ConnectWire(&crossWire{
			src: r.Group.Shard(si), dst: sj, peer: r.Servers[j].NIC,
		}, latency)
		r.Servers[j].NIC.ConnectWire(&crossWire{
			src: r.Group.Shard(sj), dst: si, peer: r.Servers[i].NIC,
		}, latency)
		// Register the channel's lookahead so the coordinator can
		// hold this pair's horizon at the real wire latency instead of
		// the global minimum window.
		r.Group.SetLookahead(si, sj, latency)
		r.Group.SetLookahead(sj, si, latency)
	}
	r.links[k] = true
	return nil
}

// ConnectRing links server i to (i+1) mod n; ConnectFullMesh links
// every pair. Both use the rack's link latency.
func (r *ParallelRack) ConnectRing() error {
	return cluster.ConnectRing(len(r.Servers), r.Connect)
}

// ConnectFullMesh links every server pair at the rack's link latency.
func (r *ParallelRack) ConnectFullMesh() error {
	return cluster.ConnectFullMesh(len(r.Servers), r.Connect)
}

// Run advances the whole rack by d through barrier windows.
func (r *ParallelRack) Run(d Tick) { r.Group.Run(d) }

// crossWire is the cross-shard NIC link: Deliver runs on the sending
// shard's engine (single-producer) and books the frame into the shard
// runtime's mailbox toward the destination shard, where it is injected
// at the next barrier and executes ReceiveFlow on the peer's engine.
type crossWire struct {
	src  *sim.Shard
	dst  int
	peer *iodev.NIC
}

func (w *crossWire) Deliver(delay sim.Tick, flowID, dstMAC uint64, bytes uint32) {
	peer := w.peer
	w.src.Send(w.dst, delay, func() { peer.ReceiveFlow(flowID, dstMAC, bytes) })
}
