package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"jitsu/internal/sim"
)

// request is one client transaction of the arrival schedule and, once
// it has run, its verified outcome.
type request struct {
	id     int
	at     sim.Duration // scheduled virtual arrival
	client int
	svc    int
	want   []byte // the page the generator made for svc
	// wantHash is the hash of want: a verified body hashes to it, so the
	// digest does not rehash every body.
	wantHash uint64

	completions int
	ok          bool
	cold        bool         // service not booted when the query was sent
	sent        sim.Duration // DNS query sent
	finished    sim.Duration // verified response (or failure)
	bodyHash    uint64
	err         string
	span        int // root span in traced runs
}

// virt is the request's virtual latency, timed from when it was due so
// that a late start would count against it.
func (q *request) virt() sim.Duration { return q.finished - q.at }

// options tune one batch beyond its seed.
type options struct {
	traced bool
	// corruptExpected flips one byte of the first request's expected
	// page, so the body check must fail (a self-test of the checker).
	corruptExpected bool
	// requests overrides the workload's schedule length (self-tests run
	// short schedules); 0 keeps the default.
	requests int
}

// runner steps the engine, records outcomes and collects failed checks.
type runner struct {
	eng      *sim.Engine
	tr       *tracer // nil when untraced
	reqs     []*request
	checks   []string // failed output checks
	heapPeak uint64
	heapSum  float64 // live bytes summed over the samples
	live     []metrics.Sample
	slices   int
	// paused is the host time spent in the runner's own samples, which
	// the measured phase does not count.
	pausedCPU, pausedWall time.Duration
	forcedGCs             uint32
	// ref sums the reference loop's CPU time over the refs samples.
	ref  time.Duration
	refs int
	// wireRefusals counts typed wire refusals (fleet-ops); they are not
	// request failures.
	wireRefusals int
	// bodyBytes sums the verified response bodies.
	bodyBytes int
}

func newRunner(eng *sim.Engine, o options) *runner {
	d := &runner{eng: eng, live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	if o.traced {
		d.tr = newTracer(eng)
	}
	return d
}

// checkf records a failed output check.
func (d *runner) checkf(format string, args ...any) {
	d.checks = append(d.checks, fmt.Sprintf(format, args...))
}

// runUntil advances the engine to t as one slice; every sampleEvery
// slices of an untraced batch it samples the live heap and the host.
func (d *runner) runUntil(t sim.Duration) {
	sp := d.tr.begin("sim.Engine.RunUntil", -1, -1)
	d.eng.RunUntil(t)
	d.tr.end(sp)
	d.slices++
	if d.tr == nil && d.slices%sampleEvery == 0 {
		d.sample()
	}
}

// sampleEvery is the number of slices between two samples.
const sampleEvery = 2

// sample collects garbage and then reads /gc/heap/live:bytes, so the
// sample is exactly the bytes reachable at this point of the schedule
// rather than whatever the last collection happened to see. It then
// times the reference loop (calib.go). The collection and the loop are
// the runner's, not the program's: their host time is taken out of the
// measured phase.
func (d *runner) sample() {
	c0, t0 := cpuTime(), time.Now()
	runtime.GC()
	d.forcedGCs++
	metrics.Read(d.live)
	v := d.live[0].Value.Uint64()
	d.heapPeak = max(d.heapPeak, v)
	d.heapSum += float64(v)
	d.ref += refSample()
	d.refs++
	d.pausedCPU += cpuTime() - c0
	d.pausedWall += time.Since(t0)
}

// slice is the virtual length of one RunUntil step.
const slice = time.Second

// runSchedule runs the engine slice by slice through the last arrival
// and then until the event queue drains, at most maxDrain later. Before
// each slice it books the starts of the arrivals that fall in it, so
// the fixed schedule never sits in the event queue all at once.
func (d *runner) runSchedule(start func(*request), maxDrain sim.Duration) {
	t := d.eng.Now()
	for next := 0; next < len(d.reqs); {
		t += slice
		next = d.book(next, t, start)
		d.runUntil(t)
	}
	d.drain(t + maxDrain)
}

// book schedules start for every request from index next arriving by
// t, and returns the index of the first one left.
func (d *runner) book(next int, t sim.Duration, start func(*request)) int {
	for ; next < len(d.reqs) && d.reqs[next].at <= t; next++ {
		q := d.reqs[next]
		d.eng.At(q.at, func() { start(q) })
	}
	return next
}

// drain runs slices until the queue is empty or the deadline passes.
func (d *runner) drain(deadline sim.Duration) {
	t := d.eng.Now()
	for d.eng.Pending() > 0 && t < deadline {
		t += slice
		d.runUntil(t)
	}
}

// complete records the end of a request. Every request must complete
// exactly once, and a successful one must carry the generator's page.
func (d *runner) complete(q *request, status int, body []byte, err error) {
	q.completions++
	if q.completions > 1 {
		d.checkf("request %d completed %d times", q.id, q.completions)
		return
	}
	q.finished = d.eng.Now()
	switch {
	case err != nil:
		q.err = err.Error()
	case status != 200:
		q.err = fmt.Sprintf("http status %d", status)
	case !bytes.Equal(body, q.want):
		q.err = "wrong body"
		d.checkf("request %d: body differs from the generated page (%d bytes, want %d)", q.id, len(body), len(q.want))
	default:
		q.ok = true
		q.bodyHash = q.wantHash
		d.bodyBytes += len(body)
	}
	if !q.ok {
		q.bodyHash = hashBody(body)
	}
	d.tr.end(q.span)
}

// checkFinished flags requests that never completed and events still
// queued after the drain.
func (d *runner) checkFinished() {
	missing := 0
	for _, q := range d.reqs {
		if q.completions == 0 {
			missing++
			q.err = "no completion"
		}
	}
	if missing > 0 {
		d.checkf("%d requests never completed", missing)
	}
	if p := d.eng.Pending(); p != 0 {
		d.checkf("engine still has %d pending events after draining", p)
	}
}

// virtStats are the virtual-time outcome of one batch.
type virtStats struct {
	attempted, failed int
	cold, warm        int
	p50, p99          sim.Duration
	coldP50, warmP50  sim.Duration
	// late is how far behind its schedule the generator started any
	// request (0 unless an arrival was booked after its instant).
	late   sim.Duration
	digest uint64
}

func summarize(reqs []*request) virtStats {
	var all, cold, warm []sim.Duration
	var s virtStats
	h := fnv.New64a()
	var buf [8 * 4]byte
	for _, q := range reqs {
		s.attempted++
		if l := q.sent - q.at; l > s.late {
			s.late = l
		}
		ok := uint64(0)
		if q.ok {
			ok = 1
			v := q.virt()
			all = append(all, v)
			if q.cold {
				cold = append(cold, v)
			} else {
				warm = append(warm, v)
			}
		} else {
			s.failed++
		}
		put64(buf[0:], uint64(q.id))
		put64(buf[8:], ok)
		put64(buf[16:], uint64(q.virt()))
		put64(buf[24:], q.bodyHash)
		h.Write(buf[:])
	}
	s.cold, s.warm = len(cold), len(warm)
	s.p50, s.p99 = quantile(all, 0.50), quantile(all, 0.99)
	s.coldP50, s.warmP50 = quantile(cold, 0.50), quantile(warm, 0.50)
	s.digest = h.Sum64()
	return s
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// quantile is the nearest-rank q-quantile; 0 for an empty sample.
func quantile(xs []sim.Duration, q float64) sim.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d sim.Duration) float64 { return float64(d) / float64(time.Millisecond) }
