// Command perfbench is the repository benchmark: it builds a seeded
// deployment, drives it with generated traffic through the public APIs
// of core, cluster and wire, checks every output, and prints each
// metric by name with its unit. The last line of its output is one
// JSON object summarising the run.
//
//	go run . --workload cold-storm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run. See NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: cold-storm, warm-fetch or fleet-ops")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span and profile files of traced runs")
	flag.BoolVar(&verbose, "v", false, "print one line per batch to stderr")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (cold-storm|warm-fetch|fleet-ops) and --trace 0|1\n")
		os.Exit(2)
	}
	// One goroutine drives the engine and the garbage collector shares
	// its thread: one busy OS thread, and CPU time is the work done.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		rep = runTraced(w, *seed, budget, *out, options{})
	} else {
		rep = runPlain(w, *seed, budget, options{})
	}
	rep.print(os.Stdout, *trace == 1)
	if !rep.correct() {
		os.Exit(1)
	}
}

// verbose prints a line per batch to stderr.
var verbose bool

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	workload *workload
	seed     int64
	batches  int
	v        virtStats
	checks   []string
	refusals int
	failures []string // failure reasons of the first batch, with counts
	e2e      map[string]metric
	layers   map[string]metric
	absent   map[string]bool // metrics with no samples on this workload
}

func (r *report) correct() bool { return len(r.checks) == 0 }

// endToEnd lists the end-to-end metrics in report order. The JSON line
// of an untraced run carries those every workload has samples for; the
// others are printed only.
var endToEnd = []struct {
	name string
	json bool
}{
	{"req_per_s", true},
	{"req_per_cpu_s_raw", false},
	{"host_ref_ms", false},
	{"alloc_mb", true},
	{"heap_live_mean_mb", true},
	{"heap_live_peak_mb", false},
	{"setup_s", true},
	{"setup_s_raw", false},
	{"virt_p50_ms", true},
	{"virt_p99_ms", true},
	{"virt_warm_p50_ms", true},
	{"virt_cold_p50_ms", false},
}

func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d batches=%d traced=%v\n", r.workload.name, r.seed, r.batches, traced)
	fmt.Fprintf(w, "  %s\n", r.workload.why)
	samples := map[string]int{
		"virt_p50_ms": r.v.cold + r.v.warm, "virt_p99_ms": r.v.cold + r.v.warm,
		"virt_cold_p50_ms": r.v.cold, "virt_warm_p50_ms": r.v.warm,
	}
	line := func(name string, m metric) {
		if r.absent[name] {
			fmt.Fprintf(w, "  %-30s absent (%s)\n", name, m.Unit)
			return
		}
		if n, ok := samples[name]; ok && !traced {
			fmt.Fprintf(w, "  %-30s %.6g %s (n=%d)\n", name, m.Value, m.Unit, n)
			return
		}
		fmt.Fprintf(w, "  %-30s %.6g %s\n", name, m.Value, m.Unit)
	}
	if traced {
		names := make([]string, 0, len(r.layers))
		for n := range r.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line(n, r.layers[n])
		}
	} else {
		for _, m := range endToEnd {
			line(m.name, r.e2e[m.name])
		}
	}
	fmt.Fprintf(w, "  %-30s %.6g (%d failed / %d attempted)\n", "fail_frac",
		float64(r.v.failed)/float64(max(r.v.attempted, 1)), r.v.failed, r.v.attempted)
	fmt.Fprintf(w, "  %-30s %d count\n", "wire_refusals", r.refusals)
	fmt.Fprintf(w, "  %-30s %.6g ms\n", "generator_late_max_ms", ms(r.v.late))
	fmt.Fprintf(w, "  %-30s %016x\n", "virt_digest", r.v.digest)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failed request: %s\n", f)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "  check FAILED: %s\n", c)
	}
	metrics := map[string]metric{}
	if traced {
		for n, m := range r.layers {
			metrics[n] = m
		}
	} else {
		for _, m := range endToEnd {
			if m.json {
				metrics[m.name] = r.e2e[m.name]
			}
		}
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.v.attempted, 1), r.v.failed, metrics})
	fmt.Fprintln(w, strings.TrimSpace(string(out)))
}
