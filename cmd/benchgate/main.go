// Command benchgate holds the performance trajectory recorded in
// BENCH.json: it re-measures the engine, LLC hit-path, DRAM pick,
// PIFO pop, telemetry-scrape and cluster-steady micro-benchmarks
// in-process (the exact workloads cmd/pardbench records) and fails when
// the fresh numbers regress against the committed record.
//
// Usage:
//
//	benchgate [-baseline BENCH.json] [-max-regress 0.10] [-runs 5]
//	          [-speedup-floor 1.8] [-speedup-shards 4]
//
// Two gates, per benchmark section:
//
//   - ns/op: the best of -runs fresh measurements may exceed the
//     committed ns_per_event by at most -max-regress (fraction; 0.10 =
//     ten percent). Wall-clock numbers vary across machines, so CI
//     passes a wider margin than the local default.
//   - allocs/op: any increase fails, no tolerance. Allocation counts
//     are machine-independent, and the zero-alloc steady state is a
//     load-bearing invariant (hotalloc proves it statically; this gate
//     proves it dynamically).
//
// One further structural gate, rack speedup: the 1-vs-N-shard rack
// sweep, measured fresh, must reach -speedup-floor at -speedup-shards
// shards. On a host with fewer CPUs than shards the number would be
// meaningless (time-sliced workers), so the gate skips with an explicit
// note; CI enforces it from a multi-core runner.
//
// Exit status: 0 when every gate holds, 1 on regression, 2 on a
// missing or malformed baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/exp"
)

// baselineDoc is the slice of the pard-bench/v1 schema this gate reads.
// Older BENCH.json files predate llc_hit_path, dram_pick and pifo_pop;
// a zero section is skipped rather than failed so the gate can
// bootstrap itself.
type baselineDoc struct {
	Schema          string             `json:"schema"`
	Engine          bench.Micro        `json:"engine"`
	LLCHitPath      bench.Micro        `json:"llc_hit_path"`
	DramPick        bench.Micro        `json:"dram_pick"`
	PifoPop         bench.Micro        `json:"pifo_pop"`
	TelemetryScrape bench.Micro        `json:"telemetry_scrape"`
	ClusterSteady   bench.ClusterMicro `json:"cluster_steady"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH.json", "committed benchmark record to gate against")
	maxRegress := flag.Float64("max-regress", 0.10, "allowed fractional ns/op regression (0.10 = +10%)")
	runs := flag.Int("runs", 5, "fresh measurements per benchmark; the best one is compared")
	speedupFloor := flag.Float64("speedup-floor", 1.8, "minimum wall-clock speedup the rack sweep must reach at -speedup-shards shards; 0 disables the gate")
	speedupShards := flag.Int("speedup-shards", 4, "shard count the speedup floor applies to")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var base baselineDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if base.Schema != "pard-bench/v1" {
		fmt.Fprintf(os.Stderr, "benchgate: %s: unknown schema %q\n", *baselinePath, base.Schema)
		os.Exit(2)
	}

	ok := true
	ok = gate("engine", base.Engine, bench.Best(*runs, bench.MeasureEngine), *maxRegress) && ok
	ok = gate("llc_hit_path", base.LLCHitPath, bench.Best(*runs, bench.MeasureLLCHitPath), *maxRegress) && ok
	ok = gate("dram_pick", base.DramPick, bench.Best(*runs, bench.MeasureDRAMPick), *maxRegress) && ok
	ok = gate("pifo_pop", base.PifoPop, bench.Best(*runs, bench.MeasurePIFOPop), *maxRegress) && ok
	ok = gate("telemetry_scrape", base.TelemetryScrape, bench.Best(*runs, bench.MeasureTelemetryScrape), *maxRegress) && ok
	ok = gateCluster(base.ClusterSteady, *runs, *maxRegress) && ok
	ok = gateSpeedup(*speedupFloor, *speedupShards, *runs) && ok
	if !ok {
		os.Exit(1)
	}
}

// gateSpeedup re-measures the 1-vs-N-shard rack sweep and requires the
// best observed speedup to reach the committed floor. The floor is only
// meaningful when each shard's worker can own a CPU, so a smaller host
// skips with an explicit note instead of recording a meaningless
// failure; CI runs this gate from a multi-core runner.
func gateSpeedup(floor float64, shards, runs int) bool {
	const name = "rack_speedup"
	if floor <= 0 {
		fmt.Printf("benchgate: %-16s skipped: -speedup-floor 0 disables the multi-core speedup gate\n", name)
		return true
	}
	if cpus := runtime.NumCPU(); cpus < shards {
		fmt.Printf("benchgate: %-16s skipped: host has %d CPU(s) < %d shards — %d-shard wall clock would measure time-slicing, not scaling; CI's multi-core job enforces the %.2fx floor\n",
			name, cpus, shards, shards, floor)
		return true
	}
	best := 0.0
	for i := 0; i < runs; i++ {
		sweep, err := bench.MeasureRackSweep([]int{1, shards}, exp.Quick)
		if err != nil {
			fmt.Printf("benchgate: %-16s FAIL: %v\n", name, err)
			return false
		}
		if s := sweep.Points[1].SpeedupVs1; s > best {
			best = s
		}
	}
	if best < floor {
		fmt.Printf("benchgate: %-16s FAIL: best of %d runs reached %.2fx at %d shards on %d CPUs, below the committed %.2fx floor\n",
			name, runs, best, shards, runtime.NumCPU(), floor)
		return false
	}
	fmt.Printf("benchgate: %-16s ok: %.2fx at %d shards on %d CPUs (floor %.2fx)\n",
		name, best, shards, runtime.NumCPU(), floor)
	return true
}

// gateCluster holds the cluster_steady section: the usual ns/op margin
// plus an exact cross-rack frame-count comparison — that count is a
// deterministic function of the reference topology and workload, so any
// drift is a simulation-determinism regression, not machine noise.
// Baselines recorded before the cluster plane landed have a zero
// section and are skipped, like every other bootstrap.
func gateCluster(base bench.ClusterMicro, runs int, maxRegress float64) bool {
	if base.NsPerEvent == 0 {
		fmt.Printf("benchgate: %-16s skipped: no committed record (regenerate BENCH.json with pardbench -json)\n", "cluster_steady")
		return true
	}
	fresh, err := bench.BestCluster(runs)
	if err != nil {
		fmt.Printf("benchgate: %-16s FAIL: %v\n", "cluster_steady", err)
		return false
	}
	ok := gate("cluster_steady", base.Micro, fresh.Micro, maxRegress)
	if fresh.CrossRackFrames != base.CrossRackFrames {
		fmt.Printf("benchgate: %-16s FAIL: %d cross-rack frames vs committed %d (must match exactly)\n",
			"cluster_steady", fresh.CrossRackFrames, base.CrossRackFrames)
		ok = false
	}
	return ok
}

// gate compares one fresh measurement against its committed record and
// prints a verdict line; it returns false on regression.
func gate(name string, base, fresh bench.Micro, maxRegress float64) bool {
	if base.NsPerEvent == 0 {
		fmt.Printf("benchgate: %-16s skipped: baseline has no %s section (regenerate BENCH.json with pardbench -json)\n", name, name)
		return true
	}
	ratio := fresh.NsPerEvent/base.NsPerEvent - 1
	ok := true
	if ratio > maxRegress {
		fmt.Printf("benchgate: %-16s FAIL: %.2f ns/op vs committed %.2f (%+.1f%% > %+.1f%% allowed)\n",
			name, fresh.NsPerEvent, base.NsPerEvent, 100*ratio, 100*maxRegress)
		ok = false
	}
	if fresh.AllocsPerEvent > base.AllocsPerEvent {
		fmt.Printf("benchgate: %-16s FAIL: %.0f allocs/op vs committed %.0f (any increase fails)\n",
			name, fresh.AllocsPerEvent, base.AllocsPerEvent)
		ok = false
	}
	if ok {
		fmt.Printf("benchgate: %-16s ok: %.2f ns/op (%+.1f%% vs committed), %.0f allocs/op\n",
			name, fresh.NsPerEvent, 100*ratio, fresh.AllocsPerEvent)
	}
	return ok
}
