package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// A run repeats one batch — set-up, measured phase, checks — with the
// same seed until the time is up. Every batch of a run must produce the
// same virt_digest; host metrics are medians over the batches.

// batch is the outcome of one set-up plus measured phase.
type batch struct {
	setup    time.Duration // median of the batch's timed set-ups
	setupRef time.Duration // the same at reference host speed
	measured time.Duration // wall time of the measured phase
	cpu      time.Duration // process CPU time of the measured phase
	ref      time.Duration // mean reference sample CPU time in the batch
	alloc    uint64        // heap bytes allocated in the measured phase
	heapPeak uint64        // largest live-heap sample
	heapMean float64       // mean live-heap sample
	gcCycles uint32
	v        virtStats
	checks   []string
	refusals int
	failures []string // "<count> × <reason>"

	// Traced batches only; dropped once the batch is summarized unless
	// it is the one the per-layer report reads.
	d         *runner
	counts    counts
	cpuLayers map[string]float64 // CPU ns per layer
	cpuProf   []byte             // the gzipped CPU profile
	spanStart int                // first span of the measured phase
	allocs    map[string]float64 // allocated bytes per layer
	dep       deployment
}

// rawPerSec is verified completions per CPU second of the measured
// phase. CPU time, not wall time: with one thread it is the work the
// host did, not the time other processes held the CPU.
func (b *batch) rawPerSec() float64 {
	return float64(b.v.attempted-b.v.failed) / b.cpu.Seconds()
}

// reqPerSec is rawPerSec at reference host speed (see calib.go).
func (b *batch) reqPerSec() float64 {
	return b.rawPerSec() * b.ref.Seconds() / refNominal.Seconds()
}

// setupSeconds is the batch's set-up time at reference host speed.
func (b *batch) setupSeconds() float64 { return b.setupRef.Seconds() }

// failureReasons groups the failed requests by reason.
func failureReasons(reqs []*request) []string {
	n := map[string]int{}
	for _, q := range reqs {
		if !q.ok {
			n[q.err]++
		}
	}
	var out []string
	for reason, k := range n {
		out = append(out, fmt.Sprintf("%d × %s", k, reason))
	}
	sort.Strings(out)
	return out
}

// drop releases what only the per-layer report of one batch needs.
func (b *batch) drop() { b.d, b.dep, b.cpuProf = nil, nil, nil }

// setupReps is how many times a batch builds its deployment; set-up
// time is the median, and the last build is the one measured. Each
// build follows a reference sample, which scales it to reference host
// speed.
const setupReps = 15

// runBatch builds, drives and checks one instance of w.
func runBatch(w *workload, seed int64, o options) *batch {
	var dep deployment
	var d *runner
	raw, scaled := make([]float64, setupReps), make([]float64, setupReps)
	for i := range raw {
		ref := refSample()
		runtime.GC()
		t0 := time.Now()
		dep, d = w.build(seed, o)
		raw[i] = float64(time.Since(t0))
		scaled[i] = raw[i] * float64(refNominal) / float64(ref)
	}
	b := &batch{setup: time.Duration(median(raw)), setupRef: time.Duration(median(scaled)), d: d, dep: dep}
	// Every measured phase starts from a collected heap, so set-up
	// garbage is not charged to it.
	runtime.GC()
	var cpuBuf bytes.Buffer
	var allocsBefore map[string]float64
	if o.traced {
		before := counts{}
		dep.counts(before)
		b.counts = before
		runtime.GC()
		allocsBefore = map[string]float64{}
		allocByLayer(allocsBefore)
		if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
			d.checkf("cpu profile: %v", err)
		}
	}
	b.spanStart = d.tr.len()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c1 := cpuTime()
	t1 := time.Now()
	dep.drive(d)
	b.measured = time.Since(t1) - d.pausedWall
	b.cpu = cpuTime() - c1 - d.pausedCPU
	runtime.ReadMemStats(&m1)
	b.alloc = m1.TotalAlloc - m0.TotalAlloc
	b.gcCycles = m1.NumGC - m0.NumGC - d.forcedGCs
	b.heapPeak = d.heapPeak
	if d.refs > 0 {
		b.ref = d.ref / time.Duration(d.refs)
		b.heapMean = d.heapSum / float64(d.refs)
	}
	if o.traced {
		pprof.StopCPUProfile()
		runtime.GC()
		runtime.GC()
		b.allocs = map[string]float64{}
		allocByLayer(b.allocs)
		for l, v := range allocsBefore {
			b.allocs[l] -= v
		}
		b.cpuProf = cpuBuf.Bytes()
		b.cpuLayers = map[string]float64{}
		if err := cpuByLayer(cpuBuf.Bytes(), b.cpuLayers); err != nil {
			d.checkf("cpu profile: %v", err)
		}
		after := counts{}
		dep.counts(after)
		b.counts = after.since(b.counts)
	}
	dep.check(d)
	b.v = summarize(d.reqs)
	b.checks, b.refusals, b.failures = d.checks, d.wireRefusals, failureReasons(d.reqs)
	if !o.traced {
		b.drop()
	}
	return b
}

// runBatches runs batches until the time is up (at least one).
func runBatches(w *workload, seed int64, budget time.Duration, o options) []*batch {
	var out []*batch
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		out = append(out, runLogged(w, seed, o))
	}
	return out
}

// runLogged runs one batch and, with -v, prints a line about it.
func runLogged(w *workload, seed int64, o options) *batch {
	b := runBatch(w, seed, o)
	if verbose {
		fmt.Fprintf(os.Stderr, "batch traced=%v cpu %.3f s ref %.3f ms wall %.3f s setup %.4f s gc %d heap %.1f MB\n",
			o.traced, b.cpu.Seconds(), float64(b.ref)/1e6, b.measured.Seconds(), b.setup.Seconds(), b.gcCycles, float64(b.heapPeak)/1e6)
	}
	return b
}

// collect folds batches into a report: checks from every batch,
// determinism across batches, virtual metrics from the first.
func collect(w *workload, seed int64, bs []*batch) *report {
	r := &report{workload: w, seed: seed, batches: len(bs), v: bs[0].v, absent: map[string]bool{}}
	for i, b := range bs {
		for _, c := range b.checks {
			r.checks = append(r.checks, fmt.Sprintf("batch %d: %s", i, c))
		}
		if b.v.digest != bs[0].v.digest {
			r.checks = append(r.checks, fmt.Sprintf("batch %d: virt_digest %016x differs from batch 0's %016x", i, b.v.digest, bs[0].v.digest))
		}
	}
	r.refusals, r.failures = bs[0].refusals, bs[0].failures
	return r
}

func runPlain(w *workload, seed int64, budget time.Duration, o options) *report {
	bs := runBatches(w, seed, budget, o)
	r := collect(w, seed, bs)
	med := func(f func(*batch) float64) float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = f(b)
		}
		return median(xs)
	}
	v := r.v
	r.e2e = map[string]metric{
		"req_per_s":         {med((*batch).reqPerSec), "1/s"},
		"req_per_cpu_s_raw": {med((*batch).rawPerSec), "1/s"},
		"host_ref_ms":       {med(func(b *batch) float64 { return float64(b.ref) / 1e6 }), "ms"},
		"alloc_mb":          {med(func(b *batch) float64 { return float64(b.alloc) / 1e6 }), "MB"},
		"heap_live_mean_mb": {med(func(b *batch) float64 { return b.heapMean / 1e6 }), "MB"},
		"heap_live_peak_mb": {med(func(b *batch) float64 { return float64(b.heapPeak) / 1e6 }), "MB"},
		"setup_s":           {med((*batch).setupSeconds), "s"},
		"setup_s_raw":       {med(func(b *batch) float64 { return b.setup.Seconds() }), "s"},
		"virt_p50_ms":       {ms(v.p50), "ms"},
		"virt_p99_ms":       {ms(v.p99), "ms"},
		"virt_warm_p50_ms":  {ms(v.warmP50), "ms"},
		"virt_cold_p50_ms":  {ms(v.coldP50), "ms"},
	}
	r.absent["virt_cold_p50_ms"] = v.cold == 0
	r.absent["virt_warm_p50_ms"] = v.warm == 0
	r.absent["virt_p50_ms"] = v.cold+v.warm == 0
	r.absent["virt_p99_ms"] = v.cold+v.warm == 0
	return r
}

// runTraced alternates untraced and traced batches until the time is
// up: the untraced ones price the tracing, the traced ones yield spans,
// counters and profiles. Alternating keeps slow drift of the host out
// of trace.overhead_frac, which compares raw rates: a traced batch
// takes no samples, so it has no reference reading.
func runTraced(w *workload, seed int64, budget time.Duration, out string, o options) *report {
	var plain, traced []*batch
	start := time.Now()
	to := o
	to.traced = true
	for len(traced) == 0 || time.Since(start) < budget {
		plain = append(plain, runLogged(w, seed, o))
		b := runLogged(w, seed, to)
		if len(traced) > 0 {
			b.drop()
		}
		traced = append(traced, b)
	}
	r := collect(w, seed, append(append([]*batch(nil), plain...), traced...))
	r.batches = len(traced)
	first := traced[0]
	rps := func(bs []*batch) float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = b.rawPerSec()
		}
		return median(xs)
	}
	cpu, allocs := map[string]float64{}, map[string]float64{}
	for _, b := range traced {
		for l, v := range b.cpuLayers {
			cpu[l] += v
		}
		for l, v := range b.allocs {
			allocs[l] += v
		}
	}
	r.layers, r.absent = layerMetrics(first, cpu, allocs)
	r.layers["trace.overhead_frac"] = metric{1 - rps(traced)/rps(plain), "frac"}
	if err := writeTrace(out, w.name, seed, first); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
	}
	return r
}

// writeTrace stores the first traced batch's spans and CPU profile, and
// the process's allocation profile, for offline reading (go tool pprof
// -traces <build dir>/perfbench <file>).
func writeTrace(dir, name string, seed int64, b *batch) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := b.d.tr.write(prefix + "-spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(prefix+"-cpu.pprof", b.cpuProf, 0o644); err != nil {
		return err
	}
	f, err := os.Create(prefix + "-allocs.pprof")
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad pointer fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
