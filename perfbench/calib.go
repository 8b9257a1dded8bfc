package main

import (
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: neighbours on the same
// cores and caches change how fast the same instructions run, by tens
// of percent, within seconds as well as over minutes, and CPU time does
// not hide that. The runner therefore times a short, fixed reference
// loop — benchmark code that never touches the program — at every
// sample point, spread evenly through the measured phase, and reports
// req_per_s at reference speed: the batch's requests per CPU second,
// scaled by how slow the reference ran against refNominal. A change to
// the program moves the batch and not the reference; a slower host
// moves both. Readings taken only before and after each multi-second
// batch tracked the host far worse than readings interleaved with the
// work.

// refNominal is one reference sample's CPU time on a nominal host; it
// only sets the scale of req_per_s.
const refNominal = time.Millisecond

// refRegion is the reference loop's memory: mapped once, outside the
// Go heap, so the loop neither allocates nor depends on the program's
// heap and does not move the collector's pacing.
var refRegion []byte

// refSample runs the reference loop once and returns its CPU time. Like
// the workloads' allocation it clears short buffers of mixed sizes and
// touches each cache line once, over a 2 MiB window, so it slows down
// with the same neighbours.
func refSample() time.Duration {
	if refRegion == nil {
		b, err := syscall.Mmap(-1, 0, 2<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("perfbench: mapping the reference region: " + err.Error())
		}
		refRegion = b
	}
	c0 := cpuTime()
	off := 0
	for i := 0; i < 4000; i++ {
		n := 256 + (i*37)%3000
		if off+n > len(refRegion) {
			off = 0
		}
		b := refRegion[off : off+n]
		clear(b)
		for j := 0; j < n; j += 64 {
			b[j] = byte(i)
		}
		off += n
	}
	return cpuTime() - c0
}
