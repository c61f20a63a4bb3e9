package pard

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/policy"
	"repro/internal/sim"
)

// TestSchedCatalogueMatchesComponents cross-checks the two places the
// scheduler names live: policy's catalogue, which `.pard` schedule
// declarations compile against, and each component's SetScheduler,
// which the plane's scheduler hook calls. For every plane type, the
// component must accept every catalogued name and read it back, power
// on with the catalogue's first entry, and refuse a name the catalogue
// refuses; a plane with a scheduler hook must have a catalogue entry.
func TestSchedCatalogueMatchesComponents(t *testing.T) {
	const unknown = "no-such-algo"
	sys := NewSystem(DefaultConfig())
	fs := sys.Firmware.FS()
	seen := map[byte]bool{}
	check := func(name string, p *core.Plane, install func(string) error, read func() (string, error)) {
		t.Helper()
		typ := p.Type()
		algos := policy.SchedAlgos(typ)
		if !p.HasScheduler() {
			if len(algos) > 0 {
				t.Errorf("%s: catalogue lists %v but the plane has no scheduler hook", name, algos)
			}
			return
		}
		if len(algos) == 0 {
			t.Errorf("%s: plane has a scheduler hook but no catalogue entry", name)
			return
		}
		seen[typ] = true
		if got, err := read(); err != nil || got != policy.SchedDefault(typ) {
			t.Errorf("%s: power-on algorithm %q (%v), want catalogue default %q", name, got, err, policy.SchedDefault(typ))
		}
		for _, algo := range algos {
			if err := install(algo); err != nil {
				t.Errorf("%s: catalogued algorithm %q refused: %v", name, algo, err)
				continue
			}
			if got, err := read(); err != nil || got != algo {
				t.Errorf("%s: wrote %q, read back %q (%v)", name, algo, got, err)
			}
		}
		if slices.Contains(algos, unknown) {
			t.Fatalf("%s: catalogue accepts %q", name, unknown)
		}
		if err := install(unknown); err == nil {
			t.Errorf("%s: unknown algorithm %q accepted", name, unknown)
		}
	}

	for i, p := range []*core.Plane{sys.LLC.Plane(), sys.Mem.Plane(), sys.Bridge.Plane(), sys.IDE.Plane(), sys.NIC.Plane()} {
		node := fmt.Sprintf("/sys/cpa/cpa%d/scheduler", i)
		check(fmt.Sprintf("cpa%d", i), p,
			func(algo string) error { return fs.WriteFile(node, algo) },
			func() (string, error) { return fs.ReadFile(node) })
	}
	sw := fabric.New(sim.NewEngine(), fabric.Config{}).Plane()
	check("switch", sw, sw.InstallScheduler, func() (string, error) { return sw.SchedulerAlgo(), nil })

	for _, typ := range []byte{core.PlaneTypeCache, core.PlaneTypeMemory, core.PlaneTypeBridge, core.PlaneTypeIDE, core.PlaneTypeNIC, core.PlaneTypeSwitch} {
		if len(policy.SchedAlgos(typ)) > 0 && !seen[typ] {
			t.Errorf("plane type %q: catalogued, but no component was checked against it", typ)
		}
	}

	// The compiler refuses the unknown name before any component sees it.
	if err := sys.LoadPolicy("probe", "schedule mem "+unknown+"\n"); err == nil {
		t.Errorf("policy compiler accepted `schedule mem %s`", unknown)
	}
}
