// Command perfbench is the repository's benchmark. It runs one workload
// against the public API of nvcaracal, checks the database's final state
// against a reference replay, and prints one JSON line of metrics: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced run (--trace 1), which also writes a Chrome trace to --out.
//
//	perfbench --workload ycsb-rmw|smallbank-serve|tpcc-recover --seed N --seconds S --trace 0|1
//
// It exits 1 when an output check fails (after printing the result with
// "correct": false) or when the run cannot complete. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// memoryLimit caps the Go heap. The simulated device's images are heap
// objects, so the default GC goal of twice the live heap would let garbage
// grow by the size of the device.
const memoryLimit = 5 << 29 // 2.5 GiB

func main() {
	debug.SetMemoryLimit(memoryLimit)
	os.Exit(exitCode(cli(os.Args[1:], os.Stdout)))
}

// exitCode is 1 when the run failed or an output check failed, else 0.
func exitCode(res *result, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// cli parses the arguments, runs the benchmark at full scale, and prints
// the result line to stdout.
func cli(args []string, stdout io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	out := fs.String("out", "", "directory the traced run writes its Chrome trace to")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return nil, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	return runAndPrint(options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		out:      *out,
		sc:       fullScale(),
	}, stdout)
}

// runAndPrint runs the benchmark and prints its result line. A failed
// output check still prints the result, with "correct": false.
func runAndPrint(o options, stdout io.Writer) (*result, error) {
	res, err := run(o)
	if res == nil {
		return nil, err
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return nil, jerr
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return nil, err
	}
	return res, nil
}
