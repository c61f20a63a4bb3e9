// Package sim provides the deterministic discrete-event simulation engine
// underlying the PARD intra-computer network model.
//
// Time is measured in Ticks (1 tick = 1 picosecond). Components schedule
// callbacks on a shared Engine; events with equal timestamps run in
// scheduling order, which makes every simulation fully deterministic.
package sim

import (
	"fmt"
)

// Tick is the simulation time unit: one picosecond.
type Tick uint64

// Common durations expressed in ticks.
const (
	Picosecond  Tick = 1
	Nanosecond  Tick = 1000
	Microsecond Tick = 1000 * 1000
	Millisecond Tick = 1000 * 1000 * 1000
	Second      Tick = 1000 * 1000 * 1000 * 1000
)

// String renders a tick count as a human-readable duration.
func (t Tick) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%d.%03ds", uint64(t/Second), uint64(t%Second/Millisecond))
	case t >= Millisecond:
		return fmt.Sprintf("%d.%03dms", uint64(t/Millisecond), uint64(t%Millisecond/Microsecond))
	case t >= Microsecond:
		return fmt.Sprintf("%d.%03dus", uint64(t/Microsecond), uint64(t%Microsecond/Nanosecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%d.%03dns", uint64(t/Nanosecond), uint64(t%Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Eventer is a reusable scheduled callback. Scheduling an Eventer instead
// of a closure keeps the hot path allocation-free: the interface holds a
// pointer to a caller-owned struct (typically embedded in a pooled
// object), so nothing escapes per event. See core.Packet.ScheduleCall.
type Eventer interface {
	RunEvent()
}

// event is one queue entry: either fn or ev is set, never both.
type event struct {
	when Tick
	seq  uint64
	fn   func()
	ev   Eventer
}

// before orders events by (time, scheduling order). The pair is unique
// per event — seq is a strictly increasing per-engine counter — so the
// order is total and the pop sequence is fully determined.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler. The zero value is not usable;
// construct with NewEngine.
//
// The queue is a hand-specialized binary min-heap over []event rather
// than container/heap: the interface-based API boxes every Push/Pop
// through interface{} (one allocation per scheduled event) and calls
// Less/Swap through method tables. Inlining the sift operations makes
// steady-state scheduling allocation-free and roughly halves ns/event
// (see BenchmarkEngineThroughput and BENCH.json). The simulator's
// engines hold tens of pending events, where the heap also beats an
// O(1) bucket-ring queue (DESIGN.md §16).
type Engine struct {
	now Tick
	seq uint64
	q   binHeap
	run uint64 // events executed
}

// NewEngine returns an engine at time zero with an empty event queue.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Tick { return e.now }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.run }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.q.size() }

// Schedule queues fn to run delay ticks from now.
func (e *Engine) Schedule(delay Tick, fn func()) {
	e.At(e.now+delay, fn)
}

// At queues fn at an absolute time. Times in the past are clamped to now,
// preserving the no-time-travel invariant.
func (e *Engine) At(when Tick, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	e.push(event{when: when, fn: fn})
}

// ScheduleEventer queues ev.RunEvent delay ticks from now without
// allocating: ev is typically a pointer to a reusable struct.
func (e *Engine) ScheduleEventer(delay Tick, ev Eventer) {
	e.AtEventer(e.now+delay, ev)
}

// AtEventer queues ev.RunEvent at an absolute time, with the same
// clamping and ordering rules as At.
func (e *Engine) AtEventer(when Tick, ev Eventer) {
	if ev == nil {
		panic("sim: nil eventer")
	}
	e.push(event{when: when, ev: ev})
}

// push clamps, assigns the entry's scheduling sequence and queues it.
func (e *Engine) push(ev event) {
	if ev.when < e.now {
		ev.when = e.now
	}
	e.seq++
	ev.seq = e.seq
	e.q.push(ev)
}

// Step executes the single earliest event, advancing time to it.
// It reports whether an event was available.
//
//pardlint:hotpath engine dispatch: every simulated event funnels through here
func (e *Engine) Step() bool {
	if e.q.size() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.when
	e.run++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.ev.RunEvent()
	}
	return true
}

// Run executes every event with timestamp <= until, then advances the
// clock to until. Events scheduled during the run are honored if they
// fall within the horizon.
func (e *Engine) Run(until Tick) {
	for {
		when, ok := e.q.peek()
		if !ok || when > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunBefore executes every event with timestamp strictly below until,
// then advances the clock to until. It is the half-open window variant
// of Run used by the shard runtime (shard.go): events exactly at a
// window boundary belong to the next window, so a cross-shard message
// stamped `when == boundary` is always injected before any event at
// that tick has run on the destination shard.
func (e *Engine) RunBefore(until Tick) {
	for {
		when, ok := e.q.peek()
		if !ok || when >= until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// advanceTo moves the clock forward to t without executing anything:
// the shard coordinator's inactive fast path, valid only when the
// caller knows no event is pending below t.
func (e *Engine) advanceTo(t Tick) {
	if e.now < t {
		e.now = t
	}
}

// NextEventTime returns the timestamp of the earliest queued event.
// ok is false when the queue is empty.
func (e *Engine) NextEventTime() (when Tick, ok bool) {
	return e.q.peek()
}

// StepUntil executes events until cond returns true or the queue
// empties. It reports whether cond held when it stopped. Use it to wait
// for a specific completion in systems with self-rescheduling periodic
// events (statistics samplers), where Drain would never return.
func (e *Engine) StepUntil(cond func() bool) bool {
	for !cond() {
		if !e.Step() {
			return cond()
		}
	}
	return true
}

// Drain executes events until the queue is empty or limit events have run.
// A limit of 0 means no limit. It returns the number of events executed.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for e.q.size() > 0 {
		if limit > 0 && n >= limit {
			break
		}
		e.Step()
		n++
	}
	return n
}

// binHeap is the engine's queue: a binary min-heap ordered by
// event.before, with the sift loops inlined so steady-state push/pop
// never allocates (the backing array is amortized by reuse).
type binHeap struct {
	h []event
}

func (q *binHeap) size() int { return len(q.h) }

func (q *binHeap) peek() (Tick, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].when, true
}

// push appends the entry and sifts it to its heap position.
func (q *binHeap) push(ev event) {
	q.h = append(q.h, ev)
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest entry. The caller must know the
// queue is non-empty.
func (q *binHeap) pop() event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/ev for GC
	h = h[:n]
	q.h = h
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			min = r
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
