package main

import (
	"math"
	"runtime"
	"syscall"
	"testing"
)

func TestNormalizeScalesByNearbySamples(t *testing.T) {
	raw := make([]float64, 200)
	samples := make([]float64, 100) // one block per 2 rounds
	for r := range raw {
		raw[r] = 10
	}
	for j := range samples {
		samples[j] = calRef
		if j >= 50 {
			samples[j] = 2 * calRef // the host ran at half speed here
		}
	}
	got := normalize(raw, samples, 2)
	if got[0] != 10 || got[199] != 5 {
		t.Fatalf("normalized first/last round = %v/%v, want 10/5", got[0], got[199])
	}
	// Rounds 100 and 101 lie between fast block 49 and slow block 50,
	// so they run at the mean of the two speeds; their neighbours do not.
	if want := 10 / 1.5; math.Abs(got[100]-want) > 1e-12 || math.Abs(got[101]-want) > 1e-12 {
		t.Fatalf("normalized rounds 100/101 = %v/%v, want %v", got[100], got[101], want)
	}
	if got[99] != 10 || got[102] != 5 {
		t.Fatalf("normalized rounds 99/102 = %v/%v, want 10/5", got[99], got[102])
	}
	// A pass longer than its samples reuses the last one.
	if got := normalize([]float64{1, 1, 1}, []float64{calRef}, 2); got[2] != 1 {
		t.Fatalf("round past the last sample = %v", got[2])
	}
}

func TestCalKernelSamplesOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	k, err := newCalKernel()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("kernel put %d bytes on the Go heap; its tag array must live outside it", grew)
	}
	kept, _ := k.block()
	if len(kept) != calKept {
		t.Fatalf("block kept %d samples, want %d", len(kept), calKept)
	}
	for _, s := range kept {
		if s <= 0 || math.IsInf(s, 0) || s > 100*calRef {
			t.Errorf("kernel sample = %v s/event, reference %v", s, calRef)
		}
	}
	runtime.KeepAlive(k)
}

var sink uint64

// TestCalibrationIgnoresRoundLoad adds the three kinds of extra
// per-round cost a change to the simulator can bring: pure CPU work,
// a memory footprint that pushes the kernel's tag array out of cache,
// and allocation that leaves GC workers running after the round. The
// kernel's speed must not depend on which kind ran before a block, or
// the scaling would divide part of such a change out of the timings.
// Kinds alternate round by round so host drift hits them alike.
func TestCalibrationIgnoresRoundLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	k, err := newCalKernel()
	if err != nil {
		t.Fatal(err)
	}
	thrash, err := syscall.Mmap(-1, 0, 128<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(thrash)
	type node struct {
		next *node
		pad  [3]uint64
	}
	var live *node
	for i := 0; i < 300000; i++ {
		live = &node{next: live}
	}
	var garbage *node
	spin := func(n int) {
		x := uint64(1)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink += x
	}
	kinds := []struct {
		name  string
		extra func()
	}{
		{"none", func() {}},
		{"cpu", func() { spin(3_000_000) }},
		{"cache", func() {
			for i := 0; i < len(thrash); i += 64 {
				thrash[i]++
			}
		}},
		{"alloc", func() {
			garbage = nil
			for i := 0; i < 150000; i++ {
				garbage = &node{next: garbage}
			}
		}},
	}
	const perKind = 60
	r := 0
	_, g0, _ := readGo()
	roundMs, cal := timeRounds(perKind*len(kinds), 1, k, nil, func() {
		spin(1_000_000)
		kinds[r%len(kinds)].extra()
		r++
	})
	_, g1, _ := readGo()
	runtime.KeepAlive(live)
	if g1-g0 < perKind/4 {
		t.Fatalf("allocating rounds ran %d GC cycles; the test needs the collector busy", g1-g0)
	}

	// Each kind's kernel speed is compared with the unloaded round's of
	// the same cycle, which ran within tens of milliseconds of it.
	raw := make([][]float64, len(kinds))
	ratio := make([][]float64, len(kinds))
	for i := range roundMs {
		kind := i % len(kinds)
		raw[kind] = append(raw[kind], roundMs[i])
		ratio[kind] = append(ratio[kind], cal[i]/cal[i-kind])
	}
	factor := calRef / median(cal)
	for i, kd := range kinds {
		d := median(ratio[i]) - 1
		extra := median(raw[i]) - median(raw[0])
		t.Logf("%-5s raw round %7.3f ms (+%6.3f); kernel %+5.1f%% vs unloaded; normalized extra %6.3f ms, raw extra at the unloaded speed %6.3f ms",
			kd.name, median(raw[i]), extra, 100*d, median(raw[i])*factor/(1+d)-median(raw[0])*factor, extra*factor)
		if math.Abs(d) > 0.05 {
			t.Errorf("after %s rounds the kernel ran %+.1f%% slower than after unloaded ones", kd.name, 100*d)
		}
	}
}
