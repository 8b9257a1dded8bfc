package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// Self-tests of the benchmark: short runs of every workload.

// short keeps the self-tests fast: a few hundred requests per batch and
// a budget that stops after the first batch.
var short = options{requests: 300}

// benchmarkSpec is the part of BENCHMARK.json the self-tests check
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// lastLine parses the JSON result line of a printed report.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return r
}

// TestMetricsPrintedWithUnits: every metric of BENCHMARK.json is
// printed on its own line with its unit and appears in the JSON result
// with the same unit, on every workload, traced and untraced.
func TestMetricsPrintedWithUnits(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("workload %q of BENCHMARK.json is unknown", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			var rep *report
			want := spec.EndToEnd
			if traced {
				rep = runTraced(w, 1, time.Millisecond, t.TempDir(), short)
				want = spec.PerLayer
			} else {
				rep = runPlain(w, 1, time.Millisecond, short)
			}
			var buf bytes.Buffer
			rep.print(&buf, traced)
			out := buf.String()
			res := lastLine(t, out)
			if !res.Correct || res.Attempted != short.requests {
				t.Errorf("%s traced=%v: correct=%v attempted=%d\n%s", w.name, traced, res.Correct, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "  "+padded(m.Name)) || !strings.Contains(out, m.Unit) {
					t.Errorf("%s traced=%v: no report line for %s", w.name, traced, m.Name)
				}
			}
			if !strings.Contains(out, "fail_frac") || !strings.Contains(out, "virt_digest") {
				t.Errorf("%s traced=%v: fail_frac or virt_digest missing\n%s", w.name, traced, out)
			}
		}
	}
}

func padded(name string) string { return name + strings.Repeat(" ", max(30-len(name), 1)) }

// TestCorruptedExpectationCaught: flipping one byte of an expected page
// must fail the body check and make the run incorrect.
func TestCorruptedExpectationCaught(t *testing.T) {
	for _, w := range workloads {
		o := short
		o.corruptExpected = true
		b := runBatch(&w, 1, o)
		found := false
		for _, c := range b.checks {
			found = found || strings.Contains(c, "body differs")
		}
		if !found {
			t.Errorf("%s: corrupted expectation not caught; checks %q", w.name, b.checks)
		}
		if b.v.failed == 0 {
			t.Errorf("%s: a wrong body must count as a failed request", w.name)
		}
		if rep := collect(&w, 1, []*batch{b}); rep.correct() {
			t.Errorf("%s: report with a failed check reads correct", w.name)
		}
	}
}

// TestProfileSharesSumToOne: the per-layer CPU shares plus gc.share
// cover every profile sample exactly once.
func TestProfileSharesSumToOne(t *testing.T) {
	for _, w := range workloads {
		rep := runTraced(&w, 1, time.Millisecond, t.TempDir(), short)
		sum := rep.layers["gc.share"].Value
		for _, l := range layerShares {
			sum += rep.layers[l+".self_share"].Value
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Errorf("%s: profile shares sum to %v", w.name, sum)
		}
	}
}

// TestLegsAddUp: each request's DNS-leg and HTTP-leg virtual spans add
// up exactly to its end-to-end virtual latency; where the program does
// both legs in one call (cluster.Client.Fetch) that span alone must.
func TestLegsAddUp(t *testing.T) {
	for _, w := range workloads {
		o := short
		o.traced = true
		b := runBatch(&w, 1, o)
		legs := map[int]int64{}
		roots := map[int]span{}
		for _, s := range b.d.tr.spans {
			switch s.Name {
			case "dns.Client.Query", "Host.HTTPGet", "cluster.Client.Fetch":
				legs[s.Req] += int64(s.VirtEnd - s.VirtStart)
			case "request":
				roots[s.Req] = s
			}
			if s.Name == "cluster.Client.Fetch" {
				roots[s.Req] = s
			}
		}
		checked := 0
		for _, q := range b.d.reqs {
			if !q.ok {
				continue
			}
			root, ok := roots[q.id]
			if !ok || int64(root.VirtEnd-root.VirtStart) != int64(q.virt()) {
				t.Fatalf("%s: request %d: root span %+v, virtual latency %v", w.name, q.id, root, q.virt())
			}
			if legs[q.id] != int64(q.virt()) {
				t.Fatalf("%s: request %d: legs add to %d ns, end to end %d ns", w.name, q.id, legs[q.id], int64(q.virt()))
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: no verified request", w.name)
		}
	}
}

// TestDigestRepeats: one seed gives one virt_digest; another seed gives
// another.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		a, b := runBatch(&w, 7, short), runBatch(&w, 7, short)
		c := runBatch(&w, 8, short)
		if a.v.digest != b.v.digest {
			t.Errorf("%s: seed 7 gave digests %016x and %016x", w.name, a.v.digest, b.v.digest)
		}
		if a.v.digest == c.v.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w.name)
		}
	}
}
