package main

import (
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/sim"
)

// deployment is one built workload instance: the deployment under test
// plus its generated inputs, ready for the measured phase.
type deployment interface {
	// drive runs the measured phase: every scheduled arrival, then the
	// drain.
	drive(d *runner)
	// check verifies the post-drain conservation laws.
	check(d *runner)
	// counts reads the layers' exported counters (traced runs).
	counts(c counts)
	// observer is the activation observer of a traced run (nil
	// otherwise).
	observer() *observer
}

// workload builds a deployment from a seed. Everything built here is
// set-up; drive is the measured phase.
type workload struct {
	name  string
	why   string
	build func(seed int64, o options) (deployment, *runner)
}

var workloads = []workload{
	{"cold-storm", "summons: about half the requests cold-boot a unikernel through the toolstack and xenstore", buildColdStorm},
	{"warm-fetch", "large pages from pre-booted services: netstack TCP/HTTP and the DNS fast path, no boots", buildWarmFetch},
	{"fleet-ops", "4-board cluster with wire operator verbs, stats watches, migration and board churn", buildFleetOps},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// cold-storm: one default board, 256 services with a 1 s idle timeout
// and ~512 B pages, Poisson arrivals with Zipf popularity from eight
// clients. The idle timeout reaps an unpopular service between its
// requests, so a large share of the requests summon a fresh unikernel.
const (
	csServices = 256
	csClients  = 8
	csRate     = 20.0 // requests per virtual second
	csZipf     = 1.1
	csRequests = 6000
	csIdle     = time.Second
)

// drainLimit bounds the virtual time the drain may take after the last
// arrival; an event queue still busy then fails the pending check.
const drainLimit = 5 * time.Minute

type coldStorm struct{ *boardDeployment }

func buildColdStorm(seed int64, o options) (deployment, *runner) {
	r := newRand(seed)
	bd, d := newBoardDeployment(seed, csClients, o)
	pages := make([][]byte, csServices)
	for i := range pages {
		pages[i] = page(r, 384+r.Intn(257))
		bd.register(i, pages[i], csIdle)
	}
	n := csRequests
	if o.requests > 0 {
		n = o.requests
	}
	zipf := newZipf(r, csZipf, csServices)
	for i, at := range poisson(r, n, csRate, 0) {
		d.reqs = append(d.reqs, &request{id: i, at: at, client: r.Intn(csClients), svc: zipf.pick()})
	}
	expect(d, pages, o)
	return coldStorm{bd}, d
}

func (cs coldStorm) drive(d *runner) {
	d.runSchedule(func(q *request) { cs.fetch(d, q) }, drainLimit)
}

// check adds memory conservation: once every service has been reaped,
// the hypervisor is back to the free memory it started with.
func (cs coldStorm) check(d *runner) {
	d.checkFinished()
	for _, svc := range cs.svcs {
		if svc.State.Booted() {
			d.checkf("service %s still %v after the drain", svc.Cfg.Name, svc.State)
			break
		}
	}
	if free := cs.board.Hyp.FreeMemMiB(); free != cs.startFree {
		d.checkf("hypervisor free memory %d MiB after the drain, started with %d MiB", free, cs.startFree)
	}
}

// warm-fetch: one board, 16 services booted during set-up with no idle
// timeout, page sizes log-uniform from 1 KiB to 256 KiB, uniform
// popularity with every service requested equally often. Every DNS answer comes from the fast-path cache and no
// domain is built or destroyed in the measured phase.
const (
	wfServices = 16
	wfClients  = 8
	wfRate     = 20.0
	wfRequests = 3200
	wfMinPage  = 1 << 10
	wfMaxPage  = 256 << 10
)

type warmFetch struct{ *boardDeployment }

func buildWarmFetch(seed int64, o options) (deployment, *runner) {
	r := newRand(seed)
	bd, d := newBoardDeployment(seed, wfClients, o)
	sizes := logUniformSizes(r, wfServices, wfMinPage, wfMaxPage)
	pages := make([][]byte, wfServices)
	for i := range pages {
		pages[i] = page(r, sizes[i])
		bd.register(i, pages[i], 0)
	}
	// Pre-boot every service and warm each one's DNS answer, so the
	// measured phase starts from a fully warm board.
	booted := 0
	for _, svc := range bd.svcs {
		if err := bd.board.Jitsu.Activate(svc, true, func(err error) {
			if err == nil {
				booted++
			}
		}); err != nil {
			d.checkf("pre-boot %s: %v", svc.Cfg.Name, err)
		}
	}
	bd.board.Eng.RunFor(5 * time.Second)
	if booted != wfServices {
		d.checkf("pre-boot: %d of %d services ready", booted, wfServices)
	}
	resolved := 0
	for _, name := range bd.names {
		bd.resolvers[0].Query(core.NSAddr, name, dns.TypeA, reqTimeout, func(_ *dns.Message, _ sim.Duration, err error) {
			if err == nil {
				resolved++
			}
		})
	}
	bd.board.Eng.RunFor(time.Second)
	if resolved != wfServices {
		d.checkf("pre-resolve: %d of %d names answered", resolved, wfServices)
	}
	n := wfRequests
	if o.requests > 0 {
		n = o.requests
	}
	start := bd.board.Eng.Now()
	mix := balanced(r, n, wfServices)
	for i, at := range poisson(r, n, wfRate, start) {
		d.reqs = append(d.reqs, &request{id: i, at: at, client: r.Intn(wfClients), svc: mix[i]})
	}
	expect(d, pages, o)
	return warmFetch{bd}, d
}

func (wf warmFetch) drive(d *runner) {
	d.runSchedule(func(q *request) { wf.fetch(d, q) }, drainLimit)
}

// check adds that the measured phase was warm: every service is still
// running and no request found its service cold.
func (wf warmFetch) check(d *runner) {
	d.checkFinished()
	for _, q := range d.reqs {
		if q.cold {
			d.checkf("request %d found %s not booted", q.id, wf.names[q.svc])
			break
		}
	}
}

// expect attaches each request's expected page: a copy of what the
// generator handed the service, so a corruption of the expectation
// cannot reach the program.
func expect(d *runner, pages [][]byte, o options) {
	want := make([][]byte, len(pages))
	hashes := make([]uint64, len(pages))
	for i, p := range pages {
		want[i] = append([]byte(nil), p...)
		hashes[i] = hashBody(p)
	}
	if o.corruptExpected && len(d.reqs) > 0 {
		w := want[d.reqs[0].svc]
		w[len(w)/2] ^= 0x20
	}
	for _, q := range d.reqs {
		q.want, q.wantHash = want[q.svc], hashes[q.svc]
	}
}
