package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// setups is how many times a --trace 0 run builds and warms its
// workload; setup_s is their median.
const setups = 7

// metric is one named measurement in the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last stdout line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker counts output checks and operations against failures.
type checker struct {
	attempted, failed int
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "colocation", "colocation, cluster or control")
	seed := fs.Int64("seed", defaultSeed, "seed for the workload generators and operator")
	seconds := fs.Int("seconds", 15, "pass length: seconds × the workload's rounds per second")
	traceOn := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fatalf("--seconds must be at least 1")
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fatalf("--trace must be 0 or 1")
	}
	rounds := *seconds * w.roundsPerSecond
	k, err := newCalKernel()
	if err != nil {
		return fatalf("%v", err)
	}
	var s summary
	// Runs start at the repository root, which holds examples/policies.
	if *traceOn == 0 {
		s, err = runEndToEnd(w, *seed, rounds, ".", k)
	} else {
		s, err = runTraced(w, *seed, rounds, ".", filepath.Join(".bench_build", "traces"), k)
	}
	if err != nil {
		return fatalf("%s: %v", w.name, err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return fatalf("%v", err)
	}
	fmt.Println(string(b))
	return 0
}

// passResult is what one measured pass saw.
type passResult struct {
	cpu, wall         float64 // seconds; cpu sums the rounds and their spill
	steal             uint64  // USER_HZ ticks
	roundMs           []float64
	cal               []float64 // block median kernel CPU seconds per event, see timeRounds
	attempted, failed int
	before, after     counters
	pendingMax        int
	allocs, gcCycles  uint64
	gcCPU             float64 // seconds
	heapMB            float64
}

var goMetrics = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readGo() (allocs, cycles uint64, gcCPU float64) {
	s := make([]metrics.Sample, len(goMetrics))
	for i, n := range goMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64()
}

// forcedGC collects garbage inside a span so traced runs account for it.
func forcedGC(tr *tracer) {
	id := tr.begin("GC", "")
	runtime.GC()
	tr.end(id)
}

// measurePass runs rounds equal rounds after a forced GC and times
// them with timeRounds, then reads the live heap after another GC with
// the machine still reachable.
func measurePass(w workload, m *machine, rounds int, k *calKernel, tr *tracer) passResult {
	var p passResult
	forcedGC(tr)
	a0, g0, gc0 := readGo()
	p.before = m.counters()
	steal0, wall0 := stealTicks(), time.Now()
	p.roundMs, p.cal = timeRounds(rounds, w.calEvery, k, tr, func() {
		a, f := m.round(tr)
		p.attempted += a
		p.failed += f
		if n := m.pending(); n > p.pendingMax {
			p.pendingMax = n
		}
	})
	for _, v := range p.roundMs {
		p.cpu += v / 1e3
	}
	p.wall = time.Since(wall0).Seconds()
	p.steal = stealTicks() - steal0
	p.after = m.counters()
	// The GC after the pass collects the pass's garbage, so its cost
	// counts toward the pass's GC figures.
	forcedGC(tr)
	a1, g1, gc1 := readGo()
	p.allocs, p.gcCycles, p.gcCPU = a1-a0, g1-g0, gc1-gc0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(m)
	return p
}

// timeRounds runs round n times, timing each call on the CPU-time
// clock, and runs a calibration block after every calEvery rounds and
// after the last, outside the round times. It returns each round's CPU
// milliseconds, including what other threads spilled into the block
// after it, and each block's median kernel seconds per event.
func timeRounds(n, calEvery int, k *calKernel, tr *tracer, round func()) (roundMs, cal []float64) {
	roundMs = make([]float64, n)
	for r := 0; r < n; r++ {
		if tr != nil {
			tr.round = r
		}
		start := cpuSeconds()
		id := tr.begin("round", "")
		round()
		tr.end(id)
		roundMs[r] = 1e3 * (cpuSeconds() - start)
		if r%calEvery == calEvery-1 || r == n-1 {
			kept, spill := k.block()
			cal = append(cal, median(kept))
			roundMs[r] += 1e3 * spill
			tr.add("GC.background", spill)
		}
	}
	if tr != nil {
		tr.round = -1
	}
	return roundMs, cal
}

// setup builds and warms the workload, timed on the CPU-time clock,
// with what GC workers spill into the calibration block just after it.
// It also returns that time at the reference speed, from the blocks
// run just before and just after.
func setup(w workload, seed int64, root string, k *calKernel) (m *machine, raw, norm float64, err error) {
	runtime.GC() // start from a collected heap, not the last build's garbage
	before, _ := k.block()
	c0 := cpuSeconds()
	m, err = w.build(seed, root)
	raw = cpuSeconds() - c0
	after, spill := k.block()
	raw += spill
	return m, raw, raw * calRef / median(append(before, after...)), err
}

// checkOutputs compares the end state with the record for this
// workload, seed and pass length, when there is one.
func checkOutputs(c *checker, w workload, seed int64, rounds int, m *machine, p passResult) (digest string) {
	digest = m.digest()
	model := m.model()
	fmt.Printf("digest %s seed=%d rounds=%d state=%s model={%s}\n", w.name, seed, rounds, digest, model)
	if rec, ok := recorded[recordKey(w.name, seed, rounds)]; ok {
		c.check(rec.digest == digest, "%s: state digest %s, recorded %s", w.name, digest, rec.digest)
		c.check(rec.model == model.String(), "%s: model {%s}, recorded {%s}", w.name, model, rec.model)
	}
	if m.mc != nil {
		c.check(m.mc.Completed > 0, "%s: memcached completed no request in the pass", w.name)
	}
	if m.cl != nil {
		c.check(p.after.crossRack > p.before.crossRack, "%s: no frame crossed racks in the pass", w.name)
		c.check(p.after.dropped == 0, "%s: fabric dropped %d frames", w.name, p.after.dropped)
	}
	return digest
}

func runEndToEnd(w workload, seed int64, rounds int, root string, k *calKernel) (summary, error) {
	var (
		m      *machine
		setupS = make([]float64, 0, setups)
		rawS   = make([]float64, 0, setups)
	)
	for i := 0; i < setups; i++ {
		m = nil // let the previous build be collected
		var raw, norm float64
		var err error
		m, raw, norm, err = setup(w, seed, root, k)
		if err != nil {
			return summary{}, err
		}
		setupS = append(setupS, norm)
		rawS = append(rawS, raw)
	}
	p := measurePass(w, m, rounds, k, nil)
	c := checker{attempted: p.attempted, failed: p.failed}
	checkOutputs(&c, w, seed, rounds, m, p)

	rounded := normalize(p.roundMs, p.cal, w.calEvery)
	p50, _, err := percentile(rounded, 0.5)
	if err != nil {
		return summary{}, err
	}
	p90, beyond, err := percentile(rounded, 0.9)
	if err != nil {
		return summary{}, err
	}
	fmt.Printf("%s: %d rounds, %d beyond p90; raw CPU: setup %.3f s, pass %.3f s; host at %.3f of reference speed; wall %.3f s, steal %d ticks\n",
		w.name, rounds, beyond, median(rawS), p.cpu, calRef/median(p.cal), p.wall, p.steal)
	mt := map[string]metric{
		"setup_s":      {median(setupS), "s"},
		"pass_cpu_s":   {normalizedPass(w, p), "s"},
		"round_ms_p50": {p50, "ms"},
		"round_ms_p90": {p90, "ms"},
		"heap_mb":      {p.heapMB, "MB"},
	}
	printMetrics(mt)
	return summary{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: mt}, nil
}

// normalizedPass is a pass's CPU seconds at the reference speed.
func normalizedPass(w workload, p passResult) float64 {
	var s float64
	for _, v := range normalize(p.roundMs, p.cal, w.calEvery) {
		s += v / 1e3
	}
	return s
}

func printMetrics(mt map[string]metric) {
	for _, k := range sortedKeys(mt) {
		fmt.Printf("  %-26s %14.6f %s\n", k, mt[k].Value, mt[k].Unit)
	}
}

// runTraced makes two passes of the same workload and seed: an
// untraced one for counters and the untraced CPU time, then a traced
// one whose spans give per-layer self times. Their digests must match.
func runTraced(w workload, seed int64, rounds int, root, outDir string, k *calKernel) (summary, error) {
	a, _, _, err := setup(w, seed, root, k)
	if err != nil {
		return summary{}, err
	}
	pa := measurePass(w, a, rounds, k, nil)
	c := checker{attempted: pa.attempted, failed: pa.failed}
	digestA := checkOutputs(&c, w, seed, rounds, a, pa)
	modelA := a.model()
	a = nil

	b, _, _, err := setup(w, seed, root, k)
	if err != nil {
		return summary{}, err
	}
	tr := newTracer()
	pb := measurePass(w, b, rounds, k, tr)
	c.attempted += pb.attempted
	c.failed += pb.failed
	c.check(b.digest() == digestA, "%s: traced digest %s differs from untraced %s", w.name, b.digest(), digestA)
	c.check(b.model() == modelA, "%s: traced model {%s} differs from untraced {%s}", w.name, b.model(), modelA)
	if !b.control {
		for i := 0; i < probeRounds; i++ {
			tr.round = rounds + i
			id := tr.begin("probe", "")
			at, f := b.op.ops(tr)
			tr.end(id)
			c.attempted += at
			c.failed += f
		}
		tr.round = -1
	}

	mt, err := layerMetrics(w, rounds, pa, pb, modelA, b, tr)
	if err != nil {
		return summary{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return summary{}, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return summary{}, err
	}
	err = writeChrome(f, "perfbench "+w.name, tr.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return summary{}, fmt.Errorf("write trace: %w", err)
	}
	inPass := func(r int) bool { return r >= 0 && r < rounds }
	fmt.Printf("traced pass: %d rounds, %.6f CPU s (untraced %.6f s); trace written to %s\n", rounds, pb.cpu, pa.cpu, path)
	fmt.Print(formatLayerTable(layerTable(tr.spans, inPass), rounds, pb.cpu))
	fmt.Printf("tracing overhead at reference speed: %+.2f%%\n", mt["trace.overhead_pct"].Value)
	printMetrics(mt)
	return summary{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: mt}, nil
}

// layerMetrics derives the per-layer metrics: counters and model
// statistics from the untraced pass, timings from the traced one.
func layerMetrics(w workload, rounds int, pa, pb passResult, model modelStats, b *machine, tr *tracer) (map[string]metric, error) {
	d := func(f func(c counters) uint64) float64 { return float64(f(pa.after) - f(pa.before)) }
	events := d(func(c counters) uint64 { return c.events })
	windows := d(func(c counters) uint64 { return c.windows })
	perWindow := 0.0
	if windows > 0 {
		perWindow = events / windows
	}

	self := selfTimes(tr.spans)
	var simSelf, layerSelf float64
	byOp := map[string][]float64{}
	cycle := map[int]float64{}
	destroyed := map[int]bool{}
	for i, s := range tr.spans {
		dur := 1e6 * (s.End - s.Start)
		switch s.Name {
		case "System.Run", "Cluster.Run":
			if s.Round >= 0 && s.Round < rounds {
				simSelf += self[i]
			}
		case "Dispatch":
			byOp[s.Arg] = append(byOp[s.Arg], dur)
		case "ReloadPolicy", "WritePrometheus":
			byOp[s.Name] = append(byOp[s.Name], dur)
		case "CreateLDom", "DestroyLDom":
			cycle[s.Round] += dur
			if s.Name == "DestroyLDom" {
				destroyed[s.Round] = true
			}
		}
		if s.Name != "round" && s.Round >= 0 && s.Round < rounds {
			layerSelf += self[i]
		}
	}
	var cycles []float64
	for r, v := range cycle {
		if destroyed[r] {
			cycles = append(cycles, v)
		}
	}
	for _, k := range []string{"cat", "echo", "ReloadPolicy", "WritePrometheus"} {
		if len(byOp[k]) == 0 {
			return nil, fmt.Errorf("traced run recorded no %s call", k)
		}
	}
	if len(cycles) == 0 {
		return nil, fmt.Errorf("traced run recorded no LDom create/destroy cycle")
	}
	after := pa.after
	return map[string]metric{
		"sim.events":           {events, "count"},
		"sim.cpu_ns_per_event": {1e9 * simSelf / events, "ns"},
		"sim.pending_max":      {float64(pa.pendingMax), "count"},

		"pdes.windows":           {windows, "count"},
		"pdes.idle_skips":        {d(func(c counters) uint64 { return c.idleSkips }), "count"},
		"pdes.cross_sends":       {d(func(c counters) uint64 { return c.crossSends }), "count"},
		"pdes.events_per_window": {perWindow, "events/window"},

		"fabric.forwarded":         {d(func(c counters) uint64 { return c.forwarded }), "count"},
		"fabric.dropped":           {d(func(c counters) uint64 { return c.dropped }), "count"},
		"fabric.cross_rack_frames": {d(func(c counters) uint64 { return c.crossRack }), "count"},

		"model.memcached_p95_us": {model.memcachedP95us, "sim_us"},
		"model.llc_miss_rate":    {model.llcMissRate, "%"},
		"model.dram_avg_qlat":    {model.dramAvgQlat, "sim_cycles"},
		"model.cpu_util":         {model.cpuUtil, "ratio"},
		"model.triggers_handled": {float64(model.triggers), "count"},

		"prm.read_us":         {median(byOp["cat"]), "us"},
		"prm.write_us":        {median(byOp["echo"]), "us"},
		"prm.ldom_cycle_us":   {median(cycles), "us"},
		"policy.reload_us":    {median(byOp["ReloadPolicy"]), "us"},
		"telemetry.render_us": {median(byOp["WritePrometheus"]), "us"},
		"telemetry.render_kb": {float64(b.op.render.n) / 1024, "KiB"},

		"telemetry.series":         {float64(after.series), "count"},
		"telemetry.scrapes":        {float64(after.scrapes), "count"},
		"telemetry.journal_events": {float64(after.journal), "count"},

		"go.allocs_per_round": {float64(pa.allocs) / float64(rounds), "count"},
		"go.gc_cycles":        {float64(pa.gcCycles), "count"},
		"go.gc_cpu_ms":        {1e3 * pa.gcCPU, "ms"},

		"host.wall_s":      {pa.wall, "s"},
		"host.steal_ticks": {float64(pa.steal), "count"},
		"host.speed":       {calRef / median(pa.cal), "ratio"},

		"trace.pass_cpu_s":      {pb.cpu, "s"},
		"trace.overhead_pct":    {100 * (normalizedPass(w, pb) - normalizedPass(w, pa)) / normalizedPass(w, pa), "%"},
		"trace.layer_share_pct": {100 * layerSelf / pb.cpu, "%"},
		"self.sim_ms_per_round": {1e3 * simSelf / float64(rounds), "ms"},
	}, nil
}
