package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSet is a saved set of runs: the steadiness report's input and
// one side of a comparison.
type runSet struct {
	Host       string   `json:"host"`
	Seconds    int      `json:"seconds"`
	StealTicks uint64   `json:"steal_ticks"`
	Runs       []runRec `json:"runs"`
}

type runRec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Summary  summary `json:"summary"`
}

// steadyMain runs every workload k times with seeds seed..seed+k-1,
// each in a fresh process, round-robin across workloads so host drift
// spreads evenly, and prints the spread of every end-to-end metric.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	k := fs.Int("k", 10, "runs per workload")
	seconds := fs.Int("seconds", 15, "--seconds of each run")
	seed := fs.Int64("seed", 1, "first seed")
	save := fs.String("save", "", "write the set to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *k < 2 {
		return fatalf("steady: -k must be at least 2 for quartiles")
	}
	self, err := os.Executable()
	if err != nil {
		return fatalf("steady: %v", err)
	}
	set := runSet{Host: fingerprint(), Seconds: *seconds}
	steal0 := stealTicks()
	for i := 0; i < *k; i++ {
		for _, w := range workloads {
			name, s := w.name, *seed+int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fatalf("steady: %s seed %d: %v", name, s, err)
			}
			sum, err := lastSummary(out.Bytes())
			if err != nil {
				return fatalf("steady: %s seed %d: %v", name, s, err)
			}
			fmt.Fprintf(os.Stderr, "perfbench steady: %s seed=%d correct=%v failed=%d\n", name, s, sum.Correct, sum.Failed)
			set.Runs = append(set.Runs, runRec{Workload: name, Seed: s, Summary: sum})
		}
	}
	set.StealTicks = stealTicks() - steal0
	fmt.Print(steadinessReport(set))
	if *save != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return fatalf("steady: %v", err)
		}
		if err := os.WriteFile(*save, append(b, '\n'), 0o644); err != nil {
			return fatalf("steady: %v", err)
		}
	}
	return 0
}

// lastSummary parses the JSON summary on a run's last stdout line.
func lastSummary(stdout []byte) (summary, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return s, fmt.Errorf("last stdout line is not a summary: %w", err)
	}
	return s, nil
}

// byWorkload groups a set's values: workload -> metric -> values in
// run order, plus the workloads and metrics in first-seen order.
func byWorkload(set runSet) (map[string]map[string][]float64, map[string]string, []string) {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	var order []string
	for _, r := range set.Runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, m := range r.Summary.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return vals, units, order
}

// steadinessReport prints, per workload and end-to-end metric, the
// median, quartiles and (q3-q1)/median, plus the host fingerprint and
// the steal seen while the set ran.
func steadinessReport(set runSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: %s\n", set.Host)
	fmt.Fprintf(&b, "steal during the set: %d ms; --seconds %d\n", 10*set.StealTicks, set.Seconds)
	vals, units, order := byWorkload(set)
	failed := 0
	for _, r := range set.Runs {
		if !r.Summary.Correct {
			failed++
		}
	}
	fmt.Fprintf(&b, "runs: %d, incorrect: %d\n", len(set.Runs), failed)
	fmt.Fprintf(&b, "%-11s %-13s %4s %12s %12s %12s %9s\n", "workload", "metric", "n", "q1", "median", "q3", "iqr/med")
	for _, w := range order {
		for _, name := range sortedKeys(vals[w]) {
			v := vals[w][name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(&b, "%-11s %-13s %4d %12.6g %12.6g %12.6g %8.2f%% %s\n",
				w, name, len(v), q1, q2, q3, 100*(q3-q1)/q2, units[name])
		}
	}
	return b.String()
}

// compareMain compares the medians of two saved sets against the
// bounds in BENCHMARK.json at the repository root: a metric fails when
// the second set's median is worse than the first's by more than its
// bound, or when either set's spread exceeds it.
func compareMain(args []string) int {
	if len(args) != 2 {
		return fatalf("usage: perfbench compare first.json second.json")
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return fatalf("compare: %v", err)
	}
	var sets [2]runSet
	for i := range sets {
		b, err := os.ReadFile(args[i])
		if err != nil {
			return fatalf("compare: %v", err)
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return fatalf("compare: %s: %v", args[i], err)
		}
	}
	report, ok := compareSets(sets[0], sets[1], bounds)
	fmt.Print(report)
	if !ok {
		return 1
	}
	return 0
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, e := range doc.EndToEnd {
		out[e.Name] = e
	}
	return out, nil
}

// compareSets reports each workload and bounded metric: both medians,
// the change, and both sets' spreads; ok is false when any change for
// the worse or any spread exceeds its bound.
func compareSets(a, b runSet, bounds map[string]bound) (string, bool) {
	va, _, order := byWorkload(a)
	vb, _, _ := byWorkload(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "first:  %s\nsecond: %s\n", a.Host, b.Host)
	fmt.Fprintf(&sb, "%-11s %-13s %12s %12s %9s %9s %9s %9s  %s\n",
		"workload", "metric", "median1", "median2", "change", "spread1", "spread2", "bound", "verdict")
	ok := true
	for _, w := range order {
		for _, name := range sortedKeys(bounds) {
			x, y := va[w][name], vb[w][name]
			if len(x) < 2 || len(y) < 2 {
				fmt.Fprintf(&sb, "%-11s %-13s missing\n", w, name)
				ok = false
				continue
			}
			bd := bounds[name]
			x1, mx, x3 := quartiles(x)
			y1, my, y3 := quartiles(y)
			change := (my - mx) / mx
			worse := change
			if bd.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > bd.Bound {
				verdict, ok = "WORSE", false
			} else if (x3-x1)/mx > bd.Bound || (y3-y1)/my > bd.Bound {
				verdict, ok = "NOISY", false
			}
			fmt.Fprintf(&sb, "%-11s %-13s %12.6g %12.6g %+8.2f%% %8.2f%% %8.2f%% %8.0f%%  %s\n",
				w, name, mx, my, 100*change, 100*(x3-x1)/mx, 100*(y3-y1)/my, 100*bd.Bound, verdict)
		}
	}
	return sb.String(), ok
}
