package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dram"
	"repro/internal/telemetry"
	"repro/pard"
)

// workload is one benchmark input: how to build and warm a machine,
// and how many equal rounds one second of --seconds buys.
type workload struct {
	name string
	// roundsPerSecond fixes the pass length: --seconds s measures
	// s*roundsPerSecond rounds on any host, so a faster program finishes
	// the same work sooner and pass_cpu_s falls.
	roundsPerSecond int
	// calEvery is how many rounds run between calibration blocks: at
	// most about 0.08 s of the pass. The blocks add 10-30% to the CPU
	// time of a pass, outside its timings.
	calEvery int
	build    func(seed int64, root string) (*machine, error)
}

var workloads = []workload{
	{name: "colocation", roundsPerSecond: 22, calEvery: 1, build: buildColocation},
	{name: "cluster", roundsPerSecond: 10, calEvery: 1, build: buildCluster},
	{name: "control", roundsPerSecond: 500, calEvery: 50, build: buildControl},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Simulated-time sizes of the workloads.
const (
	// colocationSlice is one colocation round: about 4 memcached
	// requests at 20 KRPS and ~180k engine events.
	colocationSlice = 200 * pard.Microsecond
	colocationWarm  = 2 * pard.Millisecond
	// clusterSlice spans five or more frame periods of every pump
	// (29-41 µs), so no round is dominated by where frames fall.
	clusterSlice = 200 * pard.Microsecond
	// clusterWarm covers the first sweep of each server's STREAM
	// arrays, after which the LLC is full and writebacks start.
	clusterWarm = 5 * pard.Millisecond
	// controlSlice is the simulated time one operator round advances.
	controlSlice = 2 * pard.Microsecond
	// probeRounds is how many operator rounds a traced colocation or
	// cluster run issues after its pass, so the control-plane metrics
	// exist for every workload.
	probeRounds = 32
)

// machine is a built workload: one server (colocation, control) or a
// cluster, the memcached generator when there is one, and the
// operator issuing control-plane calls.
type machine struct {
	sys     *pard.System  // nil for cluster
	cl      *pard.Cluster // nil unless cluster
	servers []*pard.System
	mc      *pard.Memcached
	op      *operator
	// control makes the operator part of every round rather than a
	// post-pass probe.
	control bool
}

// round runs one measured round and returns the operations it
// attempted and how many failed.
func (m *machine) round(tr *tracer) (attempted, failed int) {
	switch {
	case m.cl != nil:
		id := tr.begin("Cluster.Run", "")
		m.cl.Run(clusterSlice)
		tr.end(id)
		return 1, 0
	case m.control:
		id := tr.begin("System.Run", "")
		m.sys.Run(controlSlice)
		tr.end(id)
		a, f := m.op.ops(tr)
		return 1 + a, f
	default:
		id := tr.begin("System.Run", "")
		m.sys.Run(colocationSlice)
		tr.end(id)
		return 1, 0
	}
}

// digest is a short hash of the architectural end state.
func (m *machine) digest() string {
	var s string
	if m.cl != nil {
		s = m.cl.Digest()
	} else {
		s = pard.StateDigest(m.servers)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// pending is the number of queued engine events, over all shards.
func (m *machine) pending() int {
	if m.cl == nil {
		return m.sys.Engine.Pending()
	}
	n := 0
	for i := 0; i < m.cl.Group.NumShards(); i++ {
		n += m.cl.Group.Shard(i).Engine().Pending()
	}
	return n
}

// counters are the layers' public counters, read between rounds.
type counters struct {
	events                         uint64
	windows, idleSkips, crossSends uint64
	forwarded, dropped, crossRack  uint64
	scrapes, series, journal       uint64
}

func (m *machine) counters() counters {
	var c counters
	if m.cl != nil {
		for i := 0; i < m.cl.Group.NumShards(); i++ {
			c.events += m.cl.Group.Shard(i).Engine().Executed()
		}
		c.windows, c.idleSkips, c.crossSends = m.cl.Group.WindowsRun, m.cl.Group.IdleSkips, m.cl.Group.CrossSends
		for _, sw := range m.cl.Switches() {
			c.forwarded += sw.Forwarded
			c.dropped += sw.Dropped
		}
		c.crossRack = m.cl.CrossRackFrames()
	} else {
		c.events = m.sys.Engine.Executed()
	}
	for _, s := range m.servers {
		c.scrapes += s.Telemetry.Scrapes()
		c.series += uint64(len(s.Telemetry.Series()))
		c.journal += s.Journal.NextSeq()
	}
	return c
}

// modelStats are simulated results. They depend only on the workload
// and seed; a change that only speeds up the simulator leaves them
// identical.
type modelStats struct {
	memcachedP95us float64 // simulated µs; 0 without memcached
	llcMissRate    float64 // % of the service LDom's LLC accesses, server mean
	dramAvgQlat    float64 // simulated memory cycles, server mean
	cpuUtil        float64 // busy fraction of all cores, server mean
	triggers       uint64  // PRM trigger handler runs, all servers
}

func (s modelStats) String() string {
	return fmt.Sprintf("p95_us=%.3f llc_miss=%.1f%% qlat=%.1f util=%.4f triggers=%d",
		s.memcachedP95us, s.llcMissRate, s.dramAvgQlat, s.cpuUtil, s.triggers)
}

func (m *machine) model() modelStats {
	var s modelStats
	if m.mc != nil {
		s.memcachedP95us = 1e3 * m.mc.TailLatencyMs(0.95)
	}
	for _, sys := range m.servers {
		s.llcMissRate += float64(sys.LLC.MissRate(0)) / 10
		q, _ := sys.Mem.Plane().Stats().GetName(0, dram.StatAvgQLat)
		s.dramAvgQlat += float64(q) / 10
		s.cpuUtil += sys.CPUUtilization()
		s.triggers += sys.Firmware.TriggersHandled
	}
	n := float64(len(m.servers))
	s.llcMissRate /= n
	s.dramAvgQlat /= n
	s.cpuUtil /= n
	return s
}

// streamOffset draws where the STREAM arrays start inside their LDoms'
// windows. One offset serves every STREAM of a machine: offsetting each
// by its own draw changes how their arrays collide in DRAM, and with it
// the simulated work by up to a quarter between seeds.
func streamOffset(rng *rand.Rand) uint64 { return uint64(rng.Intn(4096)) * 4096 }

// newServer is the paper's headline server (§7.1.2): memcached at
// 20 KRPS in LDom0 under the LLC guard policy, and three STREAM LDoms.
func newServer(seed int64, root string) (*machine, error) {
	guard, err := readPolicy(root, "llc_guard")
	if err != nil {
		return nil, err
	}
	prio, err := readPolicy(root, "mem_priority")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sys := pard.NewSystem(pard.DefaultConfig())
	if _, err := sys.CreateLDom(pard.LDomConfig{Name: "memcached", Cores: []int{0}, Priority: 1, RowBuf: 1}); err != nil {
		return nil, err
	}
	if err := sys.LoadPolicy("guard", guard); err != nil {
		return nil, fmt.Errorf("load llc_guard: %w", err)
	}
	mc := pard.NewMemcached(pard.MemcachedConfig{
		RPS: 20000, ComputeCycles: 66000, Accesses: 800, FootprintBytes: 2304 << 10, Seed: rng.Int63(),
	})
	sys.RunWorkload(0, mc)
	off := streamOffset(rng)
	for i := 1; i <= 3; i++ {
		base := uint64(i) * (2 << 30)
		if _, err := sys.CreateLDom(pard.LDomConfig{Name: "stream", Cores: []int{i}, MemBase: base}); err != nil {
			return nil, err
		}
		sys.RunWorkload(i, pard.NewSTREAM(base+off))
	}
	m := &machine{sys: sys, servers: []*pard.System{sys}, mc: mc}
	m.op = newOperator(sys, rng.Int63(), [2]string{prio, guard})
	return m, nil
}

// warmServer runs the server until the LLC is full and the guard has
// fired, then starts memcached's latency accounting afresh.
func warmServer(m *machine) error {
	m.sys.Run(colocationWarm)
	if m.sys.Firmware.TriggersHandled == 0 {
		return fmt.Errorf("warm-up: llc_guard trigger never fired")
	}
	m.mc.ResetStats()
	return nil
}

func buildColocation(seed int64, root string) (*machine, error) {
	m, err := newServer(seed, root)
	if err != nil {
		return nil, err
	}
	return m, warmServer(m)
}

func buildControl(seed int64, root string) (*machine, error) {
	m, err := newServer(seed, root)
	if err != nil {
		return nil, err
	}
	m.control = true
	return m, warmServer(m)
}

// buildCluster is 4 racks × 2 two-core servers behind a spine/leaf
// fabric at 10 Gb/s, one PDES shard per rack driven inline
// (Workers: 1). Each server runs a seeded STREAM in its "svc" LDom and
// pumps 1500-byte frames to its peer in the next rack for the whole run.
func buildCluster(seed int64, root string) (*machine, error) {
	guard, err := readPolicy(root, "llc_guard")
	if err != nil {
		return nil, err
	}
	prio, err := readPolicy(root, "mem_priority")
	if err != nil {
		return nil, err
	}
	scfg := pard.DefaultConfig()
	scfg.Cores = 2
	cl, err := pard.NewCluster(pard.ClusterConfig{
		Racks: 4, ServersPerRack: 2, Shards: 4, Workers: 1,
		SwitchBytesPerSec: 1_250_000_000, Server: scfg,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(cl.Servers)
	lds := make([]*pard.LDom, n)
	off := streamOffset(rng)
	for gi, s := range cl.Servers {
		mac := uint64(0xA0 + gi)
		ld, err := s.CreateLDom(pard.LDomConfig{Name: "svc", Cores: []int{0}, MAC: mac, NICBuf: 0x1000})
		if err != nil {
			return nil, err
		}
		lds[gi] = ld
		if err := cl.BindServerMAC(mac, gi); err != nil {
			return nil, err
		}
		s.RunWorkload(0, pard.NewSTREAM(off))
	}
	spr := cl.Topo.ServersPerRack
	for gi, s := range cl.Servers {
		dst := ((cl.Topo.RackOf(gi)+1)%cl.Topo.Racks)*spr + gi%spr
		flow := uint64(200 + gi)
		if err := cl.Servers[dst].NIC.BindFlow(flow, lds[dst].DSID); err != nil {
			return nil, err
		}
		cl.BindFlow(flow, lds[dst].DSID)
		// Periods and phases differ per server (as in
		// pard.ProvisionClusterWorkload) so deliveries never tie at a
		// receiver; the seed shifts every phase.
		s, ds, mac := s, lds[gi].DSID, uint64(0xA0+dst)
		period := 29*pard.Microsecond + pard.Tick(gi)*1709*pard.Nanosecond
		var pump func()
		pump = func() {
			s.NIC.SendFrame(ds, mac, flow, 0x4000, 1500)
			s.Engine.Schedule(period, pump)
		}
		s.Engine.At(3*pard.Microsecond+pard.Tick(gi)*977*pard.Nanosecond+pard.Tick(rng.Intn(1000))*pard.Nanosecond, pump)
	}
	m := &machine{cl: cl, servers: cl.Servers}
	svcPolicies := [2]string{
		strings.ReplaceAll(prio, "ldom memcached", "ldom svc"),
		strings.ReplaceAll(guard, "ldom memcached", "ldom svc"),
	}
	m.op = newOperator(cl.Servers[0], rng.Int63(), svcPolicies)
	cl.Run(clusterWarm)
	if m.counters().crossRack == 0 {
		return nil, fmt.Errorf("warm-up: no frame crossed racks")
	}
	return m, nil
}

func readPolicy(root, name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "examples", "policies", name+".pard"))
	if err != nil {
		return "", fmt.Errorf("policy %s: %w", name, err)
	}
	return string(b), nil
}

// operator is one closed-loop operator: each call of ops reads and
// writes control-plane tables through pard.Dispatch, reloads the
// policy, replaces its scratch LDom and scrapes /metrics once.
type operator struct {
	sys      *pard.System
	rng      *rand.Rand
	policies [2]string // reloaded alternately under one name
	reloads  int
	targets  []pard.DSID // the LDoms present at build time
	churn    *pard.LDom  // created last round, destroyed this round
	render   countWriter
}

func newOperator(sys *pard.System, seed int64, policies [2]string) *operator {
	targets := make([]pard.DSID, 0, len(sys.Firmware.LDoms()))
	for ds := range sys.Firmware.LDoms() {
		targets = append(targets, ds)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return &operator{sys: sys, rng: rand.New(rand.NewSource(seed)), policies: policies, targets: targets}
}

// statFiles are the statistics an operator polls, by CPA.
var statFiles = []struct {
	cpa  int
	name string
}{
	{0, "miss_rate"}, {0, "capacity"}, {0, "hit_cnt"}, {0, "miss_cnt"},
	{1, "avg_qlat"}, {1, "bandwidth"}, {1, "serv_cnt"},
}

// paramWrites are the parameters an operator sets, with the values it
// chooses from.
var paramWrites = []struct {
	cpa    int
	name   string
	values []string
}{
	{0, "waymask", []string{"0xffff", "0x00ff", "0x0f0f"}},
	{1, "priority", []string{"0", "1"}},
}

// countWriter counts and discards.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// ops issues one round of operator calls and returns how many it
// attempted and how many failed. A write whose value does not read
// back through cat is a failure.
func (o *operator) ops(tr *tracer) (attempted, failed int) {
	try := func(err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: operator:", err)
		}
	}
	// Four stat reads and two parameter writes, in a seed-chosen order.
	kinds := [6]bool{false, false, false, false, true, true}
	o.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, write := range kinds {
		ds := o.targets[o.rng.Intn(len(o.targets))]
		if !write {
			f := statFiles[o.rng.Intn(len(statFiles))]
			_, err := o.dispatch(tr, "cat", fmt.Sprintf("cat /sys/cpa/cpa%d/ldoms/ldom%d/statistics/%s", f.cpa, ds, f.name))
			try(err)
			continue
		}
		p := paramWrites[o.rng.Intn(len(paramWrites))]
		v := p.values[o.rng.Intn(len(p.values))]
		path := fmt.Sprintf("/sys/cpa/cpa%d/ldoms/ldom%d/parameters/%s", p.cpa, ds, p.name)
		_, err := o.dispatch(tr, "echo", "echo "+v+" > "+path)
		try(err)
		out, err := o.dispatch(tr, "cat", "cat "+path)
		if err == nil {
			err = readBack(path, v, out)
		}
		try(err)
	}

	id := tr.begin("ReloadPolicy", "")
	err := o.sys.ReloadPolicy("guard", o.policies[o.reloads%2])
	tr.end(id)
	o.reloads++
	try(err)

	if o.churn != nil {
		id = tr.begin("DestroyLDom", "")
		err = o.sys.Firmware.DestroyLDom(o.churn.DSID)
		tr.end(id)
		try(err)
	}
	id = tr.begin("CreateLDom", "")
	o.churn, err = o.sys.CreateLDom(pard.LDomConfig{Name: "scratch", MemBase: 10 << 30})
	tr.end(id)
	try(err)

	o.render.n = 0
	id = tr.begin("WritePrometheus", "")
	err = telemetry.WritePrometheus(&o.render, o.sys.Telemetry, o.sys.Journal)
	tr.end(id)
	try(err)
	return attempted, failed
}

func (o *operator) dispatch(tr *tracer, kind, line string) (string, error) {
	id := tr.begin("Dispatch", kind)
	out, err := pard.Dispatch(o.sys, line)
	tr.end(id)
	return out, err
}

// readBack checks that a parameter reads back as the value written.
func readBack(path, want, got string) error {
	w, err := strconv.ParseUint(want, 0, 64)
	if err != nil {
		return err
	}
	g, err := strconv.ParseUint(strings.TrimSpace(got), 0, 64)
	if err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	if g != w {
		return fmt.Errorf("read back %s: wrote %s, read %s", path, want, strings.TrimSpace(got))
	}
	return nil
}
