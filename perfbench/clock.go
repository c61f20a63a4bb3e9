package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuSeconds is the process's host CPU time, user plus system, summed
// over every thread (GC workers included): the total getrusage reports,
// read from CLOCK_PROCESS_CPUTIME_ID at nanosecond rather than
// microsecond resolution. It is the benchmark's clock for timings:
// unlike wall time it does not advance while the hypervisor steals the
// vCPU or while the process sleeps.
func cpuSeconds() float64 { return clockSeconds(clockProcessCPUTime) }

// threadSeconds is the CPU time of the calling OS thread only. It times
// the calibration kernel, whose goroutine must be locked to its thread,
// so that GC workers running on other threads are not counted.
func threadSeconds() float64 { return clockSeconds(clockThreadCPUTime) }

// CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID from <time.h>.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockSeconds(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // cannot fail for these clock ids
	}
	return float64(ts.Nano()) / 1e9
}

// stealTicks reads the host-wide steal counter from /proc/stat, in
// USER_HZ ticks (10 ms each). It returns 0 where the file is missing.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// cpu user nice system idle iowait irq softirq steal ...
		if len(fields) > 8 && fields[0] == "cpu" {
			v, _ := strconv.ParseUint(fields[8], 10, 64)
			return v
		}
	}
	return 0
}

// fingerprint names the host a set of runs was measured on.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOARCH=%s go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOARCH, runtime.Version(), model)
}
