package core

import "sort"

// PIFO is a push-in-first-out queue — the single programmable-scheduling
// primitive of "Programmable Packet Scheduling at Line Rate" (Sivaraman
// et al.): entries are pushed with a rank and popped in ascending rank
// order, with a deterministic FIFO tie-break (push order) on equal
// ranks. One primitive plus a per-plane rank function expresses FIFO,
// strict priority, EDF, and (with a transient rank, see PopWhere)
// FR-FCFS and DRR virtual-finish-time scheduling.
//
// The queue is a slice-backed binary min-heap over (rank, seq). Pop and
// PopWhere are allocation-free; Push allocates only while the backing
// array grows toward its steady-state depth.
type PIFO[T any] struct {
	items []pifoEnt[T]
	seq   uint64
}

type pifoEnt[T any] struct {
	val  T
	rank uint64
	seq  uint64 // push order: the FIFO tie-break on equal rank
}

// Len returns the number of queued entries.
func (q *PIFO[T]) Len() int { return len(q.items) }

// Push inserts v with the given rank. Entries with equal rank pop in
// push order.
func (q *PIFO[T]) Push(v T, rank uint64) {
	q.items = append(q.items, pifoEnt[T]{val: v, rank: rank, seq: q.seq})
	q.seq++
	q.siftUp(len(q.items) - 1)
}

// Pop removes and returns the minimum-(rank, seq) entry; ok is false on
// an empty queue.
//
//pardlint:hotpath PIFO pop: the scheduling decision of every PIFO plane
func (q *PIFO[T]) Pop() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	return q.removeAt(0), true
}

// Peek returns the minimum entry and its rank without removing it.
func (q *PIFO[T]) Peek() (v T, rank uint64, ok bool) {
	if len(q.items) == 0 {
		return v, 0, false
	}
	return q.items[0].val, q.items[0].rank, true
}

// PopWhere removes and returns the entry minimizing (rank, seq) under a
// transient rank function: rankOf returns each entry's rank for this
// decision only, plus its eligibility. State-dependent rank functions —
// FR-FCFS's row-hit bit, the memory plane's bank and channel
// eligibility — re-rank on every pop, so the scan is linear over the
// queued entries rather than a heap walk; the stored rank is ignored. ok is false when
// no entry is eligible.
//
//pardlint:hotpath PIFO transient-rank pop: the memory plane's scheduling decision
func (q *PIFO[T]) PopWhere(rankOf func(T) (rank uint64, eligible bool)) (v T, ok bool) {
	best := -1
	var bestRank, bestSeq uint64
	for i := range q.items {
		e := &q.items[i]
		r, el := rankOf(e.val)
		if !el {
			continue
		}
		if best == -1 || r < bestRank || (r == bestRank && e.seq < bestSeq) {
			best, bestRank, bestSeq = i, r, e.seq
		}
	}
	if best == -1 {
		return v, false
	}
	return q.removeAt(best), true
}

// RemoveWhere removes every entry matching the predicate and returns
// them in push (seq) order — the teardown path for flushing a DS-id's
// entries out of a scheduling plane. It is not allocation-free and must
// stay off hot paths.
func (q *PIFO[T]) RemoveWhere(match func(T) bool) []T {
	var removed []pifoEnt[T]
	keep := q.items[:0]
	for _, e := range q.items {
		if match(e.val) {
			removed = append(removed, e)
		} else {
			keep = append(keep, e)
		}
	}
	var zero pifoEnt[T]
	for i := len(keep); i < len(q.items); i++ {
		q.items[i] = zero
	}
	q.items = keep
	// Bulk removal breaks the heap shape; rebuild it bottom-up.
	for i := len(q.items)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].seq < removed[j].seq })
	out := make([]T, len(removed))
	for i, e := range removed {
		out[i] = e.val
	}
	return out
}

// removeAt extracts the entry at heap index i, restoring the heap
// invariant around the hole.
func (q *PIFO[T]) removeAt(i int) T {
	n := len(q.items) - 1
	v := q.items[i].val
	q.items[i] = q.items[n]
	var zero pifoEnt[T]
	q.items[n] = zero
	q.items = q.items[:n]
	if i < n {
		q.siftDown(i)
		q.siftUp(i)
	}
	return v
}

func (q *PIFO[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	return a.rank < b.rank || (a.rank == b.rank && a.seq < b.seq)
}

func (q *PIFO[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *PIFO[T]) siftDown(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.less(l, min) {
			min = l
		}
		if r < n && q.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.items[i], q.items[min] = q.items[min], q.items[i]
		i = min
	}
}
