package pard

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// schedEquivAlgos maps the mounted control planes to the pifo-* names
// of their default algorithms: the LLC MSHR stall queue (cpa0), the
// memory controller (cpa1) and the IDE disk scheduler (cpa3).
// Installing them through /sys/cpa/cpaN/scheduler is the operator path
// — the same device node a `.pard` schedule declaration writes.
var schedEquivAlgos = map[int]string{
	0: "pifo-fifo",
	1: "pifo-frfcfs",
	3: "pifo-drr",
}

// rackDigestWithSchedulers runs the rack equivalence workload — STREAM
// on every core 0, cross-server flow-tagged frames — plus per-server
// disk bursts from two DS-ids so the IDE DRR ring is on the path, with
// the given scheduler algorithms installed before any traffic flows.
func rackDigestWithSchedulers(t *testing.T, algos map[int]string) string {
	t.Helper()
	rack := NewRack(equivConfig(), 2)
	if err := rack.ConnectRing(DefaultLinkLatency); err != nil {
		t.Fatal(err)
	}
	for _, s := range rack.Servers {
		for cpa, algo := range algos {
			node := fmt.Sprintf("/sys/cpa/cpa%d/scheduler", cpa)
			if err := s.Firmware.FS().WriteFile(node, algo); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Firmware.FS().ReadFile(node); err != nil || got != algo {
				t.Fatalf("scheduler node %s: got %q, %v; want %q", node, got, err, algo)
			}
		}
	}
	provisionEquivWorkload(t, rack.Servers)
	// A second STREAM per server: two concurrent requesters walking
	// different rows build a real memory-controller queue, so scheduler
	// order is observable — without this the digest cannot distinguish
	// algorithms and the equivalence gate is vacuous (a `strict`
	// install must and does change the digest).
	for i, s := range rack.Servers {
		s.RunWorkload(1, NewSTREAM(uint64(100+i)))
	}
	for i, s := range rack.Servers {
		s := s
		for j := 0; j < 8; j++ {
			ds := core.DSID(1 + j%2)
			size := uint32(8<<10) + uint32(j)*4<<10
			s.Engine.At(5*Microsecond+Tick(i)*1031*Nanosecond+Tick(j)*7013*Nanosecond, func() {
				p := core.NewPacket(s.IDs, core.KindPIOWrite, ds, 0, size, s.Engine.Now())
				s.IDE.Request(p)
			})
		}
	}
	rack.Run(equivRun)
	return StateDigest(rack.Servers)
}

// schedEquivDigest is the SHA-256 of the default-scheduler run's full
// architectural end-state digest — control-plane tables, device and
// interrupt counters, trace-span hash — recorded when every plane still
// ran a hard-coded scheduler beside its PIFO re-expression and the two
// were proven byte-identical (DESIGN.md §13).
const schedEquivDigest = "20a65467d6a6f997393c38f06046d84be9504ec2330b13790ec09520643693dd"

// TestPIFOSchedulerStateDigestEquivalence is the system-level gate on
// the one-store-per-plane schedulers: the default run, and the run with
// pifo-fifo, pifo-frfcfs and pifo-drr installed on every server, must
// both reproduce the recorded digest. The per-component trajectory
// tests pin each scheduler's decision sequence; this pins their
// composition.
func TestPIFOSchedulerStateDigestEquivalence(t *testing.T) {
	def := rackDigestWithSchedulers(t, nil)
	if !strings.Contains(def, "mem served=") {
		t.Fatalf("digest missing memory traffic:\n%s", def)
	}
	for name, algos := range map[string]map[int]string{"default": nil, "pifo aliases": schedEquivAlgos} {
		d := def
		if algos != nil {
			d = rackDigestWithSchedulers(t, algos)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(d))); got != schedEquivDigest {
			t.Errorf("%s schedulers: digest hash %s, want %s", name, got, schedEquivDigest)
		}
	}
}
