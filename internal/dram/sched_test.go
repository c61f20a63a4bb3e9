package dram

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// runWorkload drives a deterministic random workload (seeded, addresses
// drawn from [0, space)) against a fresh controller in the given
// scheduling mode and returns the controller plus every packet's
// completion time in issue order.
func runWorkload(t *testing.T, algo string, seed int64, n, space int) (*Controller, []sim.Tick) {
	t.Helper()
	e, c, ids := newCtrl(true)
	if err := c.SetScheduler(algo); err != nil {
		t.Fatalf("SetScheduler(%q): %v", algo, err)
	}
	c.Plane().Params().SetName(1, ParamPriority, 1)
	r := rand.New(rand.NewSource(seed))
	var pkts []*core.Packet
	for i := 0; i < n; i++ {
		ds := core.DSID(r.Intn(3))
		kind := core.KindMemRead
		if r.Intn(2) == 0 {
			kind = core.KindWriteback
		}
		p := core.NewPacket(ids, kind, ds, uint64(r.Intn(space))&^63, 64, e.Now())
		c.Request(p)
		pkts = append(pkts, p)
		if r.Intn(4) == 0 {
			e.Run(e.Now() + sim.Tick(r.Intn(200))*sim.Nanosecond)
		}
	}
	waitAll(e, pkts...)
	done := make([]sim.Tick, len(pkts))
	for i, p := range pkts {
		if !p.Completed() {
			t.Fatalf("%s: packet %d never completed", algo, i)
		}
		done[i] = p.Done
	}
	return c, done
}

// trajectoryDigest condenses a run into its row counters plus a hash
// of every packet's completion time in issue order.
func trajectoryDigest(c *Controller, done []sim.Tick) string {
	return fmt.Sprintf("hits=%d conf=%d served=%d done=%s", c.RowHits, c.RowConflicts, c.Served, hashTicks(done))
}

// hashTicks is the FNV-64a hash of a tick sequence, in hex.
func hashTicks(ticks []sim.Tick) string {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range ticks {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPIFOFRFCFSEquivalence pins the FR-FCFS issue trajectory on a
// randomized mixed-priority workload to the values the hard-coded
// per-level FR-FCFS scan produced before the PIFO became the only
// pending-request store: per-packet completion times (hashed) and the
// row-hit/conflict counters, over a scattered address space (row
// conflicts only) and a 32 KB one (row hits and conflicts mixed). The
// pifo-frfcfs alias must produce the same trajectory.
func TestPIFOFRFCFSEquivalence(t *testing.T) {
	golden := []struct {
		space int
		seed  int64
		want  string
	}{
		{1 << 24, 1, "hits=0 conf=384 served=400 done=ca0336e80e8f292e"},
		{1 << 24, 7, "hits=0 conf=384 served=400 done=5aa36a33c6ad8268"},
		{1 << 24, 42, "hits=0 conf=384 served=400 done=317e50cce6d8b812"},
		{1 << 24, 1234, "hits=0 conf=384 served=400 done=bf012cad8cb0345d"},
		{1 << 15, 1, "hits=194 conf=190 served=400 done=6a483e7ccd1ac2ad"},
		{1 << 15, 7, "hits=189 conf=195 served=400 done=fe37fbe3491ef8e6"},
		{1 << 15, 42, "hits=172 conf=212 served=400 done=53b8d7414320624c"},
		{1 << 15, 1234, "hits=198 conf=186 served=400 done=e022700a5ae59a6d"},
	}
	for _, g := range golden {
		for _, algo := range []string{SchedFRFCFS, SchedPIFOFRFCFS} {
			c, done := runWorkload(t, algo, g.seed, 400, g.space)
			if got := trajectoryDigest(c, done); got != g.want {
				t.Errorf("%s space=%d seed=%d: trajectory %s, want %s", algo, g.space, g.seed, got, g.want)
			}
		}
	}
}

// TestStrictPriorityRank: under the strict rank function, a backlogged
// bank serves the high-priority tenant ahead of the queued low-priority
// backlog, FIFO within a level.
func TestStrictPriorityRank(t *testing.T) {
	e, c, ids := newCtrl(true)
	if err := c.SetScheduler(SchedStrict); err != nil {
		t.Fatal(err)
	}
	c.Plane().Params().SetName(7, ParamPriority, 3)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var lows []*core.Packet
	for i := 0; i < 8; i++ {
		lows = append(lows, read(e, c, ids, 1, uint64(i)*rowStride)) // bank 0, conflicting rows
	}
	hi := read(e, c, ids, 7, 3*rowStride)
	waitAll(e, append(lows, hi)...)
	doneBefore := 0
	for _, p := range lows {
		if p.Done < hi.Done {
			doneBefore++
		}
	}
	// At most the request already in flight may finish first.
	if doneBefore > 1 {
		t.Fatalf("%d low-priority requests served before the strict-priority one", doneBefore)
	}
}

// TestEDFRankProtectsLatencyTenant: a tenant with a tight lat_target
// jumps a best-effort backlog under EDF; without the deadline (plain
// FR-FCFS) the same request waits behind the queue.
func TestEDFRankProtectsLatencyTenant(t *testing.T) {
	run := func(algo string) (sim.Tick, sim.Tick) {
		e, c, ids := newCtrl(true)
		if err := c.SetScheduler(algo); err != nil {
			t.Fatal(err)
		}
		c.Plane().SetParam(7, ParamLatTarget, 500) // 500 ns deadline
		rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
		var bulk []*core.Packet
		for i := 0; i < 12; i++ {
			bulk = append(bulk, read(e, c, ids, 1, uint64(i)*rowStride)) // bank 0 backlog
		}
		lat := read(e, c, ids, 7, 5*rowStride)
		waitAll(e, append(bulk, lat)...)
		return lat.Latency(), lat.Done
	}
	edfLat, _ := run(SchedEDF)
	fcfsLat, _ := run(SchedPIFOFRFCFS)
	if edfLat >= fcfsLat {
		t.Fatalf("EDF latency %v not better than FR-FCFS %v for the deadline tenant", edfLat, fcfsLat)
	}
}

// TestEDFBestEffortOrdersFCFS: with no lat_target set anywhere, EDF
// deadlines are arrival + defaultDeadline, so the schedule degrades to
// plain FCFS ordering by arrival (a sanity anchor for the rank math).
func TestEDFBestEffortOrdersFCFS(t *testing.T) {
	e, c, ids := newCtrl(true)
	if err := c.SetScheduler(SchedEDF); err != nil {
		t.Fatal(err)
	}
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var pkts []*core.Packet
	for i := 0; i < 6; i++ {
		pkts = append(pkts, read(e, c, ids, core.DSID(i%3), uint64(i)*rowStride))
	}
	waitAll(e, pkts...)
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Done <= pkts[i-1].Done {
			t.Fatalf("best-effort EDF served out of arrival order: pkt %d done %v, pkt %d done %v",
				i-1, pkts[i-1].Done, i, pkts[i].Done)
		}
	}
}

// TestSetSchedulerMigratesBacklog: switching algorithms mid-backlog
// loses no requests in either direction.
func TestSetSchedulerMigratesBacklog(t *testing.T) {
	e, c, ids := newCtrl(true)
	rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
	var pkts []*core.Packet
	for i := 0; i < 10; i++ {
		pkts = append(pkts, read(e, c, ids, core.DSID(i%2), uint64(i)*rowStride))
	}
	if err := c.SetScheduler(SchedEDF); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		pkts = append(pkts, read(e, c, ids, 1, uint64(i)*rowStride))
	}
	if err := c.SetScheduler(SchedFRFCFS); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 20; i++ {
		pkts = append(pkts, read(e, c, ids, 2, uint64(i)*rowStride))
	}
	waitAll(e, pkts...)
	if c.Served != 20 {
		t.Fatalf("Served = %d after two scheduler swaps, want 20", c.Served)
	}
}

// TestSetSchedulerRoundTripKeepsOrder: switching frfcfs -> edf ->
// frfcfs with a backlog pending and no command slot in between must
// leave the schedule untouched — every request served, each at the
// same tick as in a run that never switched.
func TestSetSchedulerRoundTripKeepsOrder(t *testing.T) {
	run := func(roundTrip bool) []sim.Tick {
		e, c, ids := newCtrl(true)
		c.Plane().Params().SetName(1, ParamPriority, 1)
		rowStride := uint64(c.cfg.RowBytes * c.totalBanks())
		var pkts []*core.Packet
		for i := 0; i < 24; i++ {
			// Three rows per bank over two banks: hits, conflicts and
			// both priority levels in one backlog.
			addr := uint64(i%3)*rowStride + uint64(i%2)*uint64(c.cfg.RowBytes)
			pkts = append(pkts, read(e, c, ids, core.DSID(i%3), addr))
		}
		if roundTrip {
			if err := c.SetScheduler(SchedEDF); err != nil {
				t.Fatal(err)
			}
			if err := c.SetScheduler(SchedFRFCFS); err != nil {
				t.Fatal(err)
			}
		}
		// A bounded run, so a lost request fails instead of hanging:
		// the backlog drains in a few microseconds.
		e.Run(e.Now() + 100*sim.Microsecond)
		done := make([]sim.Tick, len(pkts))
		for i, p := range pkts {
			if !p.Completed() {
				t.Fatalf("roundTrip=%v: request %d never served", roundTrip, i)
			}
			done[i] = p.Done
		}
		return done
	}
	want, got := run(false), run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d done at %v after the round trip, %v without", i, got[i], want[i])
		}
	}
}

// TestSetSchedulerValidation rejects unknown algorithms and reports the
// algorithm in force through the plane hook.
func TestSetSchedulerValidation(t *testing.T) {
	_, c, _ := newCtrl(true)
	if err := c.SetScheduler("wfq2"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !c.Plane().HasScheduler() {
		t.Fatal("memory plane did not register a scheduler hook")
	}
	if got := c.Plane().SchedulerAlgo(); got != SchedFRFCFS {
		t.Fatalf("SchedulerAlgo = %q, want %q", got, SchedFRFCFS)
	}
	if err := c.Plane().InstallScheduler(SchedEDF); err != nil {
		t.Fatal(err)
	}
	if got := c.Plane().SchedulerAlgo(); got != SchedEDF {
		t.Fatalf("SchedulerAlgo = %q after install, want %q", got, SchedEDF)
	}
}
