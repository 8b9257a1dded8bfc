package main

import (
	"strings"
	"time"

	"jitsu/internal/sim"
)

// counts are per-layer figures read from the layers' exported counters.
type counts map[string]float64

func (c counts) add(k string, v float64) { c[k] += v }

func (c counts) max(k string, v float64) {
	if v > c[k] {
		c[k] = v
	}
}

// gauges are high-water marks and presence flags (<layer>.present): a
// phase reports their final value, not a difference.
var gauges = map[string]bool{"xen.domains_peak": true, "sim.max_pending": true}

// since returns c minus an earlier reading.
func (c counts) since(before counts) counts {
	out := counts{}
	for k, v := range c {
		if gauges[k] || strings.HasSuffix(k, ".present") {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

// layerShares are the profile buckets reported as <name>.self_share.
// Every jitsu/internal package has its own bucket or falls in "other";
// "bench" is the benchmark's own code and "gc" is reported as gc.share,
// so the shares of one profile always sum to 1.
var layerShares = []string{
	"sim", "netsim", "netstack", "dns", "core", "unikernel", "xen", "xenstore",
	"blockdev", "cc", "cluster", "wire", "api", "conduit", "obs", "other", "bench",
}

// allocShares are the layers whose share of allocated bytes is reported.
var allocShares = []string{"netstack", "core", "xenstore", "wire"}

// layerUnits maps every per-layer metric to its unit; every name here
// is printed on every traced run.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	for unit, names := range map[string]string{
		"count": `sim.events sim.max_pending netsim.delivered netsim.dropped
			netstack.rx_packets netstack.tx_packets netstack.rx_dropped netstack.tcp_segments
			dns.queries dns.cache_hits dns.client_retries
			core.cold_starts core.launches core.handoffs core.reaps core.servfails core.restores core.disk_restores
			xen.tx_retries xen.domains_peak
			xenstore.ops xenstore.commits xenstore.conflicts xenstore.watch_events
			blockdev.reads blockdev.writes cc.chunks cc.retransmits cc.xfer_aborts
			cluster.placed cluster.warm_hits cluster.migrations cluster.lost cluster.preempts cluster.probes cluster.suspects
			wire.verbs wire.refusals wire.watch_snapshots gc.cycles`,
		"frac": `dns.hit_ratio core.cold_ratio xenstore.commit_ratio cc.useful_ratio gc.share trace.overhead_frac`,
		"ms": `netstack.fetch_virt_p50_ms dns.resolve_virt_p50_ms core.boot_virt_p50_ms
			cluster.leave_virt_p50_ms wire.verb_virt_p50_ms`,
		"MB":    `netstack.body_mb blockdev.mb_read blockdev.mb_written`,
		"ns":    `sim.host_ns_per_event`,
		"us":    `xenstore.host_us_per_commit`,
		"ms/MB": `netstack.host_ms_per_body_mb`,
	} {
		for _, n := range strings.Fields(names) {
			m[n] = unit
		}
	}
	for _, l := range layerShares {
		m[l+".self_share"] = "frac"
	}
	for _, l := range allocShares {
		m[l+".alloc_share"] = "frac"
	}
	return m
}()

// absentUnlessCounted names, per layer metric, the counter that must be
// non-zero for the metric to have samples on a workload.
var absentUnlessCounted = map[string]string{
	"blockdev.reads": "blockdev.present", "blockdev.writes": "blockdev.present",
	"blockdev.mb_read": "blockdev.present", "blockdev.mb_written": "blockdev.present",
	"cc.chunks": "cluster.present", "cc.retransmits": "cluster.present",
	"cc.useful_ratio": "cc.chunks", "cc.xfer_aborts": "cluster.present",
	"cluster.placed": "cluster.present", "cluster.warm_hits": "cluster.present",
	"cluster.migrations": "cluster.present", "cluster.lost": "cluster.present",
	"cluster.preempts": "cluster.present", "cluster.probes": "cluster.present",
	"cluster.suspects": "cluster.present",
	"wire.verbs":       "wire.present", "wire.refusals": "wire.present", "wire.watch_snapshots": "wire.present",
	"dns.hit_ratio": "dns.queries", "xenstore.commit_ratio": "xenstore.commits",
	"xenstore.host_us_per_commit": "xenstore.commits", "netstack.host_ms_per_body_mb": "netstack.body_mb",
	"core.cold_ratio": "attempted",
}

// layerMetrics builds the per-layer report of a traced run: counters of
// the first traced batch, virtual percentiles from its spans, and the
// profile shares summed over all traced batches. Metrics with no
// samples on this workload are reported as 0 and marked absent.
func layerMetrics(b *batch, cpu, allocs map[string]float64) (map[string]metric, map[string]bool) {
	c := b.counts
	c["attempted"] = float64(b.v.attempted)
	c["netstack.body_mb"] = float64(b.d.bodyBytes) / 1e6
	out := map[string]metric{}
	absent := map[string]bool{}
	set := func(name string, v float64) { out[name] = metric{v, layerUnits[name]} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for name := range layerUnits {
		if v, ok := c[name]; ok {
			set(name, v)
		}
	}
	set("dns.hit_ratio", ratio(c["dns.cache_hits"], c["dns.queries"]))
	set("core.cold_ratio", ratio(float64(b.v.cold), float64(b.v.attempted)))
	set("xenstore.commit_ratio", ratio(c["xenstore.commits"], c["xenstore.commits"]+c["xenstore.conflicts"]))
	set("cc.useful_ratio", ratio(c["cc.chunks"]-c["cc.retransmits"], c["cc.chunks"]))
	set("sim.host_ns_per_event", ratio(float64(b.measured.Nanoseconds()), c["sim.events"]))
	set("gc.cycles", float64(b.gcCycles))

	// Profile shares.
	var cpuTotal float64
	for _, v := range cpu {
		cpuTotal += v
	}
	bucket := func(l string) string {
		for _, s := range layerShares {
			if s == l {
				return l
			}
		}
		if l == "gc" {
			return l
		}
		return "other"
	}
	shares := map[string]float64{}
	for l, v := range cpu {
		shares[bucket(l)] += v
	}
	for _, l := range layerShares {
		set(l+".self_share", ratio(shares[l], cpuTotal))
	}
	set("gc.share", ratio(shares["gc"], cpuTotal))
	var allocTotal float64
	for _, v := range allocs {
		allocTotal += v
	}
	for _, l := range allocShares {
		set(l+".alloc_share", ratio(allocs[l], allocTotal))
	}
	// Host cost per unit of a layer's work: the layer's own profiled CPU
	// time, per traced batch, over the work it did in one batch.
	layerHost := func(l string) float64 { return ratio(shares[l], cpuTotal) * float64(b.measured) }
	set("netstack.host_ms_per_body_mb", ratio(layerHost("netstack")/float64(time.Millisecond), c["netstack.body_mb"]))
	set("xenstore.host_us_per_commit", ratio(layerHost("xenstore")/float64(time.Microsecond), c["xenstore.commits"]))

	// Virtual-time percentiles from the benchmark's spans.
	p50 := func(name string, prefix bool) (float64, bool) {
		var xs []sim.Duration
		for _, s := range b.d.tr.spans[b.spanStart:] {
			if s.VirtEnd < 0 || s.Name != name && !(prefix && strings.HasPrefix(s.Name, name)) {
				continue
			}
			xs = append(xs, s.VirtEnd-s.VirtStart)
		}
		return ms(quantile(xs, 0.5)), len(xs) > 0
	}
	for _, m := range []struct {
		metric, span string
		prefix       bool
	}{
		{"dns.resolve_virt_p50_ms", "dns.Client.Query", false},
		{"netstack.fetch_virt_p50_ms", "Host.HTTPGet", false},
		{"wire.verb_virt_p50_ms", "wire.Client.", true},
		{"cluster.leave_virt_p50_ms", "cluster.Cluster.Leave", false},
	} {
		v, ok := p50(m.span, m.prefix)
		set(m.metric, v)
		absent[m.metric] = !ok
	}
	if ob := b.dep.observer(); ob != nil {
		measured := ob.boots[len(ob.boots)-int(c["core.boots"]):]
		set("core.boot_virt_p50_ms", ms(quantile(measured, 0.5)))
		absent["core.boot_virt_p50_ms"] = len(measured) == 0
	}

	for name, unit := range layerUnits {
		if _, ok := out[name]; !ok {
			out[name] = metric{0, unit}
		}
		if need, ok := absentUnlessCounted[name]; ok && c[need] == 0 {
			absent[name] = true
		}
	}
	return out, absent
}
