package main

import (
	"fmt"
	"runtime"
	"syscall"
	"unsafe"
)

// Host-speed calibration. On a shared VM the same work takes up to
// twice the CPU time from one minute to the next (SMT neighbours,
// frequency), which CPU time alone cannot remove. Every pass therefore
// interleaves a fixed-work reference kernel with its rounds and scales
// each round's CPU time by how fast the kernel ran around it. The
// kernel is written here, not in the repository, so no change to the
// simulator can speed it up; it is a small discrete-event cache model,
// because its speed must move with the simulator's under contention
// (a plain random walk over memory tracked it poorly). What the rounds
// themselves do must not move it: see block.

// calRef is the reference host speed: kernel CPU seconds per event.
// Normalized timings are CPU time on a host where the kernel runs at
// that speed.
const calRef = 125e-9

// calEvents is one kernel sample: about 2.5 ms at the reference speed.
const calEvents = 20000

// calKernel is the reference kernel: an event heap driving 16-way
// set-associative lookups over a 4 MB tag array, with per-tag counters.
// The tag array lives outside the Go heap so it neither shows in
// heap_mb nor changes how often the collector runs.
type calKernel struct {
	heap  []calEvent
	tags  []uint64 // sets × 16 ways
	count [256]uint64
	rng   uint64
	now   uint64
	hits  uint64
}

type calEvent struct {
	when uint64
	addr uint64
}

const calSets = 1 << 15 // 32768 sets × 16 ways × 8 B = 4 MB

func newCalKernel() (*calKernel, error) {
	mem, err := syscall.Mmap(-1, 0, calSets*16*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration kernel: %w", err)
	}
	k := &calKernel{
		heap: make([]calEvent, 0, 128),
		tags: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calSets*16),
		rng:  0x9E3779B97F4A7C15,
	}
	for i := 0; i < 64; i++ {
		k.push(calEvent{when: uint64(i), addr: k.next()})
	}
	k.run(10 * calEvents) // fault the tag array in
	return k, nil
}

// A calibration block runs calWarm kernel samples, discarded, then
// calKept samples, kept. After other work, the first sample runs up to
// 10% slower the longer that work ran (measured after pure CPU spins,
// with the tag array read back into cache first); from the third
// sample on, speed no longer depends on what ran before. So a block's
// kept samples measure the host, not the rounds before it.
const (
	calWarm = 2
	calKept = 2
)

// block runs one calibration block. It returns the kernel's CPU seconds
// per event in the kept samples, each timed on the kernel's own thread
// so GC work on other threads is neither read as a slower kernel nor
// lost, and spill: the CPU time the process's other threads (GC
// workers finishing what the work before the block started) used during
// the block, which the caller charges to that work.
func (k *calKernel) block() (perEvent []float64, spill float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0 := cpuSeconds(), threadSeconds()
	for i := 0; i < calWarm; i++ {
		k.run(calEvents)
	}
	for i := 0; i < calKept; i++ {
		s0 := threadSeconds()
		k.run(calEvents)
		perEvent = append(perEvent, (threadSeconds()-s0)/calEvents)
	}
	return perEvent, (cpuSeconds() - p0) - (threadSeconds() - t0)
}

// normalize scales raw per-round times to the reference speed. Speeds
// holds each block's median seconds per event; block j was run after
// round (j+1)*every-1 (the last one after the last round). Round r is
// scaled by calRef over the mean speed of the blocks just before and
// just after its group of rounds: the host's speed moves from one round
// to the next, and wider windows tracked it worse.
func normalize(raw, speeds []float64, every int) []float64 {
	out := make([]float64, len(raw))
	for r, v := range raw {
		j := min(r/every, len(speeds)-1)
		out[r] = v * calRef / median(speeds[max(j-1, 0):j+1])
	}
	return out
}

func (k *calKernel) next() uint64 {
	k.rng ^= k.rng >> 12
	k.rng ^= k.rng << 25
	k.rng ^= k.rng >> 27
	return k.rng * 0x2545F4914F6CDD1D
}

func (k *calKernel) push(e calEvent) {
	k.heap = append(k.heap, e)
	for i := len(k.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if k.heap[p].when <= k.heap[i].when {
			break
		}
		k.heap[p], k.heap[i] = k.heap[i], k.heap[p]
		i = p
	}
}

func (k *calKernel) pop() calEvent {
	top := k.heap[0]
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && k.heap[l].when < k.heap[s].when {
			s = l
		}
		if l+1 < n && k.heap[l+1].when < k.heap[s].when {
			s = l + 1
		}
		if s == i {
			break
		}
		k.heap[s], k.heap[i] = k.heap[i], k.heap[s]
		i = s
	}
	return top
}

// run executes n events.
func (k *calKernel) run(n int) {
	for i := 0; i < n; i++ {
		e := k.pop()
		k.now = e.when
		tag := e.addr >> 21
		set := k.tags[(e.addr>>6)%calSets*16:][:16]
		hit := false
		for w := range set {
			if set[w] == tag {
				hit = true
				break
			}
		}
		delay := uint64(2)
		if hit {
			k.hits++
		} else {
			set[k.next()%16] = tag
			delay = 40
		}
		k.count[tag&255]++
		addr := e.addr + 64
		if k.next()%4 == 0 {
			addr = k.next() % (64 << 20)
		}
		k.push(calEvent{when: k.now + delay + k.next()%8, addr: addr})
	}
}
