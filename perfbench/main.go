// Command perfbench is the repository's benchmark. One run builds one
// workload, warms it up, and measures a fixed pass of equal rounds on
// the host CPU-time clock; it checks the simulator's outputs and
// prints every metric by name and unit, the last stdout line being a
// JSON summary:
//
//	perfbench --workload colocation|cluster|control --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics and writes a Chrome/Perfetto trace of spans around
// every call into a layer. `perfbench steady` repeats runs and prints
// their spread; `perfbench compare` compares two saved sets.
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func fatalf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 1
}
