package sim

// Conservative parallel discrete-event simulation (PDES) for rack-scale
// runs. The topology is static and the only inter-shard coupling is the
// point-to-point NIC link, whose fixed wire latency L is exactly the
// lookahead a conservative scheme needs (the Chandy–Misra insight).
// Because every link's latency is known up front, the general
// null-message protocol degenerates into a cheap barrier/round scheme:
//
//   1. At each barrier the coordinator computes, for every shard d, a
//      safe horizon H_d: a tick such that no message can reach d before
//      H_d from the per-pair channel lookaheads (SetLookahead) and the
//      shards' committed clocks — the earliest-input-time fixpoint
//
//        EIT[d] = min over channels j->d of (min(F[j], EIT[j]) + look[j][d])
//
//      where F[j] is shard j's earliest pending event. The inner min is
//      what makes the bound transitive-safe: a currently quiet shard j
//      can itself be woken by one of its senders, so j's earliest
//      possible output is min(F[j], EIT[j]) + look[j][d], not
//      F[j] + look[j][d]. Because every lookahead is >= the group
//      window W, EIT[d] >= first + W for all d — no horizon is tighter
//      than one global window, and the globally-earliest shard always
//      makes progress.
//   2. Every shard runs its own Engine independently to its horizon
//      (exclusive). An event at tick t < H_src on the source can only
//      produce messages arriving at t + look >= EIT[dst] >= H_dst, so
//      nothing a shard does inside a round can affect another shard
//      within it. Shards with no events below their horizon skip worker
//      dispatch entirely (IdleSkips); their clock advances for free.
//   3. Cross-shard sends land in per-(src,dst) single-producer /
//      single-consumer mailboxes — written only by the source shard's
//      worker during the round, drained only by the coordinator at the
//      barrier (the barrier's happens-before edge is the only
//      synchronization the mailboxes need).
//   4. At the barrier the coordinator merges each destination's inbound
//      messages in (when, sent, srcShard, seq) order and injects them
//      into the destination engine, so the merged schedule is byte-for-
//      byte reproducible and independent of worker count and shard
//      placement. The pard equivalence suite asserts
//      that an N-shard run produces output identical to the sequential
//      single-engine run; see DESIGN.md §11 for the window protocol and
//      the residual same-tick tie rule, and §16 for the horizon
//      safety argument.
//
// Shards run on a fixed pool of worker goroutines. This file is the
// sanctioned home of goroutines in sim-clocked code: pardlint's
// determinism analyzer rejects raw `go` statements and channel
// operations in every other sim-clocked package.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// ShardProfile accumulates one shard's runtime counters across barrier
// rounds — the data that locates PDES barrier overhead.
// Events, ActiveWindows, Sends and MailboxPeak are deterministic for a
// given simulation. RunNs and WaitNs are wall-clock (populated only
// when the group's profiling timer is enabled) and never reach
// simulation state: they feed telemetry series and BENCH.json, not the
// event schedule.
type ShardProfile struct {
	Events        uint64 // events executed inside windows
	ActiveWindows uint64 // windows in which this shard executed >= 1 event
	Sends         uint64 // cross-shard messages sent
	MailboxPeak   uint64 // deepest single-barrier inbound merge
	RunNs         int64  // wall time spent executing windows
	WaitNs        int64  // wall time stalled waiting for the slowest shard
}

// xmsg is one cross-shard message: fn runs on the destination shard's
// engine at tick when. sent/src/seq exist only to make the barrier
// merge a total, deterministic order.
type xmsg struct {
	when Tick   // destination-side delivery tick
	sent Tick   // source-side tick at Send time
	src  int    // source shard index
	seq  uint64 // per-source FIFO sequence
	fn   func()
}

// Shard is one partition of a sharded simulation: its own Engine plus
// outbound mailboxes toward every other shard. All code driven by the
// shard's engine runs on exactly one goroutine per window, so state
// reachable only from one shard needs no locking (which is also what
// keeps per-shard packet pools lock-free).
type Shard struct {
	group *ShardGroup
	index int
	eng   *Engine

	// limit is the end of the window currently executing; Send asserts
	// the conservative-lookahead invariant against it.
	limit     Tick
	inclusive bool

	// out[dst] is the SPSC mailbox toward shard dst: appended by this
	// shard's worker during a window, drained by the coordinator at the
	// barrier. No locks — the barrier is the synchronization.
	out [][]xmsg
	seq uint64

	// lastRunNs is the wall time of the most recent window, written by
	// the shard's worker and read by the coordinator after the barrier
	// (the WaitGroup provides the happens-before edge).
	lastRunNs int64
}

// Engine returns the shard's private event engine.
func (s *Shard) Engine() *Engine { return s.eng }

// Index returns the shard's position in its group.
func (s *Shard) Index() int { return s.index }

// Send schedules fn to run on shard dst at delay ticks from this
// shard's current time. It must be called either before the group runs
// (setup) or from event code executing on this shard; the message is
// buffered in the outbound mailbox and injected at the next barrier.
//
// Send panics when the delivery time falls inside the destination's
// currently executing window: that is a conservative-lookahead
// violation, meaning the channel's real latency is smaller than the
// lookahead the horizon was computed with (the group window, or the
// pair's registered SetLookahead value), and the destination shard may
// already have run past the delivery tick.
func (s *Shard) Send(dst int, delay Tick, fn func()) {
	if dst < 0 || dst >= len(s.out) {
		panic(fmt.Sprintf("sim: cross-shard send to shard %d of %d", dst, len(s.out)))
	}
	if fn == nil {
		panic("sim: nil cross-shard message")
	}
	now := s.eng.Now()
	when := now + delay
	// The coordinator publishes every shard's limit before dispatching
	// workers, so reading the destination's limit here is race-free.
	if when < s.group.shards[dst].limit {
		panic(fmt.Sprintf(
			"sim: cross-shard send from shard %d into shard %d's current window: delivery at %v < window end %v (channel latency below its registered lookahead; group window %v)",
			s.index, dst, when, s.group.shards[dst].limit, s.group.window))
	}
	s.seq++
	s.out[dst] = append(s.out[dst], xmsg{when: when, sent: now, src: s.index, seq: s.seq, fn: fn})
}

// runWindow advances the shard's engine to the window bounds the
// coordinator published before dispatch, updating the shard's profile.
func (s *Shard) runWindow() {
	var t0 time.Time
	if s.group.timed {
		//pardlint:ignore determinism wall-clock profiling feeds telemetry series only, never simulation state
		t0 = time.Now()
	}
	before := s.eng.Executed()
	if s.inclusive {
		s.eng.Run(s.limit)
	} else {
		s.eng.RunBefore(s.limit)
	}
	p := &s.group.prof[s.index]
	if d := s.eng.Executed() - before; d > 0 {
		p.Events += d
		p.ActiveWindows++
	}
	s.lastRunNs = 0
	if s.group.timed {
		//pardlint:ignore determinism wall-clock profiling feeds telemetry series only, never simulation state
		s.lastRunNs = time.Since(t0).Nanoseconds()
		p.RunNs += s.lastRunNs
	}
}

// infTick marks "no event / no bound" in horizon arithmetic.
const infTick = ^Tick(0)

// satAdd is saturating Tick addition, so far-future events cannot wrap
// horizon bounds.
func satAdd(a, b Tick) Tick {
	if s := a + b; s >= a {
		return s
	}
	return infTick
}

// ShardGroup coordinates a set of shards through barrier-synchronized
// lookahead windows. Construct with NewShardGroup, wire cross-shard
// links through Shard.Send (registering per-pair latencies with
// SetLookahead), then drive with Run.
type ShardGroup struct {
	shards  []*Shard
	window  Tick
	workers int
	now     Tick

	// look[src][dst] is the minimum delivery latency of the src->dst
	// channel, 0 meaning "no channel". nil means no pair was registered:
	// every pair is then assumed connected at the group window — the
	// conservative floor that keeps raw Shard.Send users safe.
	look [][]Tick

	// merge is the coordinator's scratch buffer for barrier injection;
	// fnext/eit/active are the per-round horizon scratch.
	merge  []xmsg
	fnext  []Tick
	eit    []Tick
	active []bool

	// WindowsRun counts barrier rounds executed; CrossSends counts
	// messages carried through mailboxes; IdleSkips counts shard-rounds
	// resolved by the inactive fast path without touching the worker
	// pool. All are deterministic for a given simulation and exposed for
	// tests and BENCH.json.
	WindowsRun uint64
	CrossSends uint64
	IdleSkips  uint64

	// SpannedTicks accumulates each round's [first, maxEnd) span, so
	// SpannedTicks / elapsed is the horizon utilization: the fraction of
	// the advanced timeline that actually carried execution rounds.
	SpannedTicks Tick

	// prof[i] is shard i's runtime profile. Workers write only their own
	// entry during a window; the coordinator reads at barriers.
	prof  []ShardProfile
	timed bool
}

// NewShardGroup builds n shards synchronized on windows of the given
// length (the group's lookahead floor; every cross-shard link must have
// latency >= window). workers bounds the goroutine pool; 0 means
// GOMAXPROCS, and a pool of 1 runs every window inline on the calling
// goroutine — the degenerate sequential mode the equivalence tests
// compare against.
func NewShardGroup(n int, window Tick, workers int) *ShardGroup {
	if n <= 0 {
		panic("sim: shard group needs at least one shard")
	}
	if window == 0 {
		panic("sim: shard window must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	g := &ShardGroup{
		window:  window,
		workers: workers,
		prof:    make([]ShardProfile, n),
		fnext:   make([]Tick, n),
		eit:     make([]Tick, n),
		active:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		g.shards = append(g.shards, &Shard{
			group: g,
			index: i,
			eng:   NewEngine(),
			out:   make([][]xmsg, n),
		})
	}
	return g
}

// SetLookahead registers the src->dst channel's minimum delivery
// latency, the per-pair lookahead the coordinator builds horizons
// from. Repeated registrations keep the minimum (a pair with several
// physical links is bounded by its fastest). The latency must be at
// least the group window — the window is defined as the global minimum
// link latency, so anything smaller is a wiring bug.
//
// Once any pair is registered, unregistered pairs are treated as
// unconnected (no channel, no horizon constraint): callers wiring
// explicit topologies must register every channel they Send on, or
// Send's lookahead assertion will eventually fire.
func (g *ShardGroup) SetLookahead(src, dst int, latency Tick) {
	n := len(g.shards)
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		panic(fmt.Sprintf("sim: SetLookahead(%d, %d) on a %d-shard group", src, dst, n))
	}
	if latency < g.window {
		panic(fmt.Sprintf("sim: SetLookahead(%d, %d): latency %v below the group window %v", src, dst, latency, g.window))
	}
	if g.look == nil {
		g.look = make([][]Tick, n)
		rows := make([]Tick, n*n)
		for i := range g.look {
			g.look[i] = rows[i*n : (i+1)*n]
		}
	}
	if cur := g.look[src][dst]; cur == 0 || latency < cur {
		g.look[src][dst] = latency
	}
}

// Shard returns shard i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// NumShards returns the number of shards.
func (g *ShardGroup) NumShards() int { return len(g.shards) }

// Workers returns the size of the worker pool.
func (g *ShardGroup) Workers() int { return g.workers }

// Window returns the group's lookahead window.
func (g *ShardGroup) Window() Tick { return g.window }

// Now returns the group's global time (every shard engine agrees with
// it between Run calls).
func (g *ShardGroup) Now() Tick { return g.now }

// EnableProfileTimers turns on wall-clock run/wait measurement. The
// deterministic counters (events, windows, sends, mailbox depth) are
// always collected; the timers cost two clock reads per shard-window,
// so they are opt-in.
func (g *ShardGroup) EnableProfileTimers() { g.timed = true }

// Profile returns a snapshot of shard i's runtime profile, including
// the cumulative cross-shard send count. Call between Run invocations —
// never while the group is executing.
func (g *ShardGroup) Profile(i int) ShardProfile {
	p := g.prof[i]
	p.Sends = g.shards[i].seq
	return p
}

// HorizonUtilization reports SpannedTicks as a fraction of elapsed, the
// share of the advanced timeline that carried execution rounds.
func (g *ShardGroup) HorizonUtilization() float64 {
	if g.now == 0 {
		return 0
	}
	return float64(g.SpannedTicks) / float64(g.now)
}

// Run advances the whole group by d, executing windows until every
// event inside the horizon has run. Events exactly at the horizon are
// executed (matching Engine.Run's inclusive semantics), including any
// reachable through chains of cross-shard messages landing exactly on
// the horizon.
func (g *ShardGroup) Run(d Tick) {
	target := g.now + d

	// Setup-time Sends (issued before any window executed) are still
	// sitting in mailboxes; inject them so nextEvent can see them.
	g.mergeMailboxes()

	// Fixed worker pool for the duration of this Run. With one worker
	// (or one shard) windows execute inline: no goroutines, identical
	// results — worker count never reaches simulation state.
	var (
		jobs chan *Shard
		wg   sync.WaitGroup
	)
	parallel := g.workers > 1 && len(g.shards) > 1
	if parallel {
		jobs = make(chan *Shard, len(g.shards))
		for w := 0; w < g.workers; w++ {
			go func() {
				for s := range jobs {
					s.runWindow()
					wg.Done()
				}
			}()
		}
		defer close(jobs)
	}

	for {
		// Mailboxes are empty here: every barrier fully drains them.
		first, any := g.nextEvent()
		if !any || first > target {
			g.advance(target)
			return
		}
		// Publish each shard's round bounds: its own earliest-input-time
		// horizon (computeHorizons), which is >= first + W for every
		// shard. Empty stretches are skipped for free, since rounds
		// start at the first event, not at g.now.
		g.computeHorizons()
		var maxEnd Tick
		dispatched := 0
		for i, s := range g.shards {
			end := g.eit[i]
			inclusive := false
			if end >= target {
				end = target
				inclusive = true
			}
			s.limit = end
			s.inclusive = inclusive
			f := g.fnext[i]
			if f < end || (inclusive && f == end) {
				g.active[i] = true
				dispatched++
			} else {
				// Inactive fast path: nothing to execute below the
				// horizon, so skip worker dispatch and advance the
				// shard clock for free.
				g.active[i] = false
				s.eng.advanceTo(end)
				g.IdleSkips++
			}
			if end > maxEnd {
				maxEnd = end
			}
		}
		if parallel && dispatched > 1 {
			var t0 time.Time
			if g.timed {
				//pardlint:ignore determinism wall-clock profiling feeds telemetry series only, never simulation state
				t0 = time.Now()
			}
			wg.Add(dispatched)
			for i, s := range g.shards {
				if g.active[i] {
					jobs <- s
				}
			}
			wg.Wait()
			if g.timed {
				// A shard's barrier wait is the round's wall time minus
				// its own run time: how long it idled for the slowest peer.
				//pardlint:ignore determinism wall-clock profiling feeds telemetry series only, never simulation state
				wall := time.Since(t0).Nanoseconds()
				for i, s := range g.shards {
					if !g.active[i] {
						continue
					}
					if wait := wall - s.lastRunNs; wait > 0 {
						g.prof[i].WaitNs += wait
					}
				}
			}
		} else {
			for i, s := range g.shards {
				if g.active[i] {
					s.runWindow()
				}
			}
		}
		// The committed global frontier is the slowest shard's limit:
		// everything below it is final on every shard.
		gnow := g.shards[0].limit
		for _, s := range g.shards[1:] {
			if s.limit < gnow {
				gnow = s.limit
			}
		}
		g.now = gnow
		g.WindowsRun++
		g.SpannedTicks += maxEnd - first
		g.mergeMailboxes()
		// An inclusive pass may have injected messages landing exactly
		// on the horizon; the loop keeps running passes at target until
		// the group is quiescent within it.
	}
}

// nextEvent refreshes the per-shard earliest-pending-event table
// (fnext, infTick when a shard is empty) and returns the global
// earliest tick.
func (g *ShardGroup) nextEvent() (Tick, bool) {
	var (
		min Tick
		any bool
	)
	for i, s := range g.shards {
		when, ok := s.eng.NextEventTime()
		if !ok {
			g.fnext[i] = infTick
			continue
		}
		g.fnext[i] = when
		if !any || when < min {
			min, any = when, true
		}
	}
	return min, any
}

// computeHorizons fills eit[d] with the earliest tick at which any
// message could still reach shard d, given the committed clocks in
// fnext and the per-pair lookahead table: the Bellman-Ford-style
// fixpoint of
//
//	EIT[d] = min over channels j->d of (min(F[j], EIT[j]) + look[j][d])
//
// Positive lookaheads make the relaxation converge in at most n rounds.
// A shard may safely execute every event strictly below its EIT; a
// shard with no inbound channels (or a 1-shard group) gets infTick and
// runs to the target unconstrained.
func (g *ShardGroup) computeHorizons() {
	n := len(g.shards)
	for d := 0; d < n; d++ {
		g.eit[d] = infTick
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for d := 0; d < n; d++ {
			best := g.eit[d]
			for j := 0; j < n; j++ {
				if j == d {
					continue
				}
				look := g.window
				if g.look != nil {
					look = g.look[j][d]
					if look == 0 {
						continue // no j->d channel
					}
				}
				base := g.fnext[j]
				if g.eit[j] < base {
					base = g.eit[j]
				}
				if base == infTick {
					continue
				}
				if v := satAdd(base, look); v < best {
					best = v
				}
			}
			if best < g.eit[d] {
				g.eit[d] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// advance moves every shard engine (and the group clock) to t without
// executing anything past it.
func (g *ShardGroup) advance(t Tick) {
	for _, s := range g.shards {
		if s.eng.Now() < t {
			s.eng.Run(t)
		}
	}
	if g.now < t {
		g.now = t
	}
}

// mergeMailboxes runs at the barrier, on the coordinator goroutine:
// drain every (src, dst) mailbox, order each destination's messages by
// (when, sent, srcShard, seq) — a total order, so injection is
// deterministic regardless of worker scheduling — and inject them into
// the destination engine, whose (tick, seq) heap then interleaves them
// with the shard's own events.
func (g *ShardGroup) mergeMailboxes() {
	for dst, d := range g.shards {
		m := g.merge[:0]
		for _, src := range g.shards {
			m = append(m, src.out[dst]...)
			if n := len(src.out[dst]); n > 0 {
				clear(src.out[dst])
				src.out[dst] = src.out[dst][:0]
			}
		}
		if len(m) == 0 {
			continue
		}
		sort.Slice(m, func(i, j int) bool {
			a, b := &m[i], &m[j]
			if a.when != b.when {
				return a.when < b.when
			}
			if a.sent != b.sent {
				return a.sent < b.sent
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for i := range m {
			d.eng.At(m[i].when, m[i].fn)
		}
		g.CrossSends += uint64(len(m))
		if depth := uint64(len(m)); depth > g.prof[dst].MailboxPeak {
			g.prof[dst].MailboxPeak = depth
		}
		clear(m)
		g.merge = m[:0]
	}
}
