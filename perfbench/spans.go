package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"jitsu/internal/sim"
)

// span is one call the benchmark made into a layer's public function,
// timed on both clocks. Spans live in the benchmark, never inside the
// program: they wrap the call site and end in the completion callback.
type span struct {
	Name      string       `json:"name"`
	Req       int          `json:"req"`    // request id, -1 for none
	Parent    int          `json:"parent"` // index of the parent span, -1 for a root
	HostStart int64        `json:"host_start_ns"`
	HostEnd   int64        `json:"host_end_ns"`
	VirtStart sim.Duration `json:"virt_start_ns"`
	VirtEnd   sim.Duration `json:"virt_end_ns"`
}

// tracer keeps spans in memory until the run writes them out. Every
// method is a no-op on a nil tracer, so untraced runs pay one branch.
type tracer struct {
	eng   *sim.Engine
	t0    time.Time
	spans []span
}

func newTracer(eng *sim.Engine) *tracer {
	return &tracer{eng: eng, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		HostStart: int64(time.Since(t.t0)), VirtStart: t.eng.Now(), HostEnd: -1, VirtEnd: -1})
	return len(t.spans) - 1
}

// end closes span i at the current instant on both clocks.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	s := &t.spans[i]
	if s.HostEnd >= 0 {
		return
	}
	s.HostEnd = int64(time.Since(t.t0))
	s.VirtEnd = t.eng.Now()
}

// len is the number of spans so far (0 on a nil tracer).
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
