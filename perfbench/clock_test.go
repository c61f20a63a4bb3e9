package main

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"time"
)

// rusageSeconds is user plus system time from getrusage, the
// microsecond-resolution reading of the same clock as cpuSeconds.
func rusageSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func TestCPUClockCountsWorkNotSleep(t *testing.T) {
	start, ru0 := cpuSeconds(), rusageSeconds()
	deadline := time.Now().Add(10 * time.Second)
	x := 0
	for cpuSeconds()-start < 0.05 {
		if time.Now().After(deadline) {
			t.Fatal("CPU clock did not advance 50 ms during 10 s of spinning")
		}
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	busy, ruBusy := cpuSeconds()-start, rusageSeconds()-ru0
	// Both read the kernel's per-process runtime; getrusage only
	// truncates to microseconds.
	if math.Abs(busy-ruBusy) > 0.005 {
		t.Errorf("clock_gettime saw %.6f s of work, getrusage %.6f s", busy, ruBusy)
	}

	before := cpuSeconds()
	time.Sleep(200 * time.Millisecond)
	if slept := cpuSeconds() - before; slept > 0.05 {
		t.Errorf("CPU clock advanced %.3f s during a 200 ms sleep", slept)
	}
	_ = x
}

func TestCPUClockIsMonotonic(t *testing.T) {
	prev := cpuSeconds()
	for i := 0; i < 10000; i++ {
		now := cpuSeconds()
		if now < prev {
			t.Fatalf("CPU clock went back from %v to %v", prev, now)
		}
		prev = now
	}
}
