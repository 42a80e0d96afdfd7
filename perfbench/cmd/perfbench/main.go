// Command perfbench runs one workload of the replan-and-serve benchmark
// and prints its metrics. The last line of standard output is the result,
// one JSON object with the keys correct, attempted, failed and metrics;
// the line before it records the environment and the input fingerprint.
//
// Usage:
//
//	perfbench --workload zipf_faults --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 the per-layer metrics of a traced run, whose spans are
// written under --trace-dir. A correctness-gate trip prints the reason on
// standard error and exits 1 without a result.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"jcr/perfbench/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for the timed run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "perfbench", "traces"), "directory for the traced run's spans")
	commit := flag.String("commit", "unknown", "commit the binary was built from, for the record")
	source := flag.String("source", "unknown", "hash of the source tree the binary was built from, for the record")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	start := time.Now()
	cfg := bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *secs,
		Trace:    *trace == 1,
		Host: bench.Host{
			Now:      func() time.Duration { return time.Since(start) },
			Sleep:    time.Sleep,
			CPU:      cpuTime,
			MaxRSSMB: maxRSSMB,
		},
	}
	var traceFile *os.File
	if cfg.Trace {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		f, err := os.Create(filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *workload, *seed)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		traceFile = f
		cfg.TraceOut = f
	}
	res, err := bench.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		return 1
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	info := map[string]any{
		"workload":      *workload,
		"seed":          *seed,
		"held_out_seed": bench.HeldOutSeed,
		"trace":         *trace,
		"seconds":       *secs,
		"fingerprint":   res.Fingerprint,
		"replan_tail":   res.ReplanTail,
		"lookup_tail":   res.LookupTail,
		"env": map[string]any{
			"cpu":        cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"commit":     *commit,
			"source":     *source,
		},
	}
	out := map[string]any{
		"correct":   true, // a failed check returned an error above
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	}
	for _, v := range []any{map[string]any{"info": info}, out} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return 0
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
	}
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB reads the peak resident set size; Linux reports it in KiB.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024
}

// cpuModel names the processor from /proc/cpuinfo, "unknown" elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
