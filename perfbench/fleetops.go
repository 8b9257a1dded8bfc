package main

import (
	"fmt"
	"math/rand"
	"time"

	"jitsu/internal/api"
	"jitsu/internal/blockdev"
	"jitsu/internal/cluster"
	"jitsu/internal/core"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
	"jitsu/internal/wire"
	"jitsu/internal/xen"
)

// fleet-ops: a 4-board cluster with the disk tier, live migration on
// leave and the gossip failure detector on. An admin wire session
// registers the services and then issues a seeded Demote, Promote or
// Migrate every ~2 virtual s, each aimed at a service whose state makes
// the verb valid; two read-only sessions hold WatchStats streams. Every
// ~40 virtual s one board leaves and a new one joins. Data-plane
// fetches go through cluster.Client.Fetch.
const (
	foBoards     = 4
	foServices   = 64
	foClients    = 4
	foRate       = 10.0 // fetches per virtual second
	foZipf       = 1.1
	foRequests   = 4800
	foOpEvery    = 2 * time.Second
	foChurnEvery = 40 * time.Second
	foWatchEvery = time.Second
)

type fleetOps struct {
	c       *cluster.Cluster
	srv     *wire.Server
	admin   *wire.Client
	viewers []*wire.Client
	stops   []func()
	clients []*cluster.Client
	names   []string
	r       *rand.Rand // operator choices
	ops     []int      // upcoming verb kinds, refilled in shuffled triples

	nextOp, nextChurn sim.Duration
	verbs, snapshots  int
	refusals          int
	leaves            []*leave
	obs               *observer
}

// leave is one graceful departure and its completion.
type leave struct {
	board int
	span  int
	done  bool
}

func buildFleetOps(seed int64, o options) (deployment, *runner) {
	r := newRand(seed)
	c := cluster.NewCluster(
		cluster.WithBoards(foBoards),
		cluster.WithSeed(seed),
		cluster.WithBoardOptions(core.WithDisk(blockdev.DefaultConfig())),
		cluster.WithProbing(time.Second, 200*time.Millisecond, 2*time.Second),
		cluster.WithMigrateOnLeave(true),
	)
	d := newRunner(c.Eng(), o)
	fo := &fleetOps{c: c, r: r}
	if o.traced {
		fo.obs = newObserver()
		for _, b := range c.Boards {
			fo.obs.watch(b)
		}
	}

	pages := make([][]byte, foServices)
	byName := map[string][]byte{}
	zone := c.Cfg.Board.Zone
	for i := range pages {
		pages[i] = page(r, 1024+r.Intn(3073))
		fo.names = append(fo.names, fmt.Sprintf("s%03d.%s", i, zone))
		byName[fmt.Sprintf("s%03d", i)] = pages[i]
	}
	srv, err := c.ServeWire(cluster.WireConfig{
		// Images cross the wire without their app; the server re-attaches
		// a static site serving the generated page.
		Apps: func(name string, _ xen.GuestKind) unikernel.App {
			return &unikernel.StaticSiteApp{Pages: map[string][]byte{"/": byName[name]}}
		},
		Keyring:   map[string]api.Scope{"bench-admin": api.ScopeAdmin, "bench-ro": api.ScopeReadOnly},
		Anonymous: api.ScopeNone,
	})
	if err != nil {
		d.checkf("serve wire: %v", err)
		return fo, d
	}
	fo.srv = srv
	dial := func(role string, octet byte, token string) *wire.Client {
		console := c.AttachMgmtHost(role, octet)
		cl, err := wire.DialSession(c.Eng(), console, netstack.IPv4(10, 255, 0, 10), wire.DefaultPort, wire.SessionConfig{Token: token})
		if err != nil {
			d.checkf("dial %s: %v", role, err)
		}
		return cl
	}
	fo.admin = dial("admin", 200, "bench-admin")
	for i := 0; i < 2; i++ {
		v := dial(fmt.Sprintf("viewer%d", i), byte(201+i), "bench-ro")
		fo.viewers = append(fo.viewers, v)
	}
	if len(d.checks) > 0 {
		return fo, d
	}
	for i, name := range fo.names {
		fo.verb(d, "Register", func() *api.Error {
			return fo.admin.Register(api.RegisterRequest{Config: core.ServiceConfig{
				Name:  name,
				IP:    netstack.IPv4(10, 0, 0, byte(20+i)),
				Port:  80,
				Image: unikernel.UnikernelImage(fmt.Sprintf("s%03d", i), nil),
			}}).Err
		})
	}
	for _, v := range fo.viewers {
		resp := v.WatchStats(api.WatchStatsRequest{Every: foWatchEvery, OnStats: func(api.StatsResponse) bool {
			fo.snapshots++
			return true
		}})
		if resp.Err != nil {
			d.checkf("watch stats: %v", resp.Err)
			continue
		}
		fo.stops = append(fo.stops, resp.Stop)
	}
	for i := 0; i < foClients; i++ {
		fo.clients = append(fo.clients, c.NewClient(fmt.Sprintf("client%d", i), netstack.IPv4(10, 0, 9, byte(10+i))))
	}
	if o.traced {
		for _, cl := range fo.clients {
			for i := range c.Boards {
				fo.obs.watchTCP(cl.Host(i))
			}
		}
	}

	n := foRequests
	if o.requests > 0 {
		n = o.requests
	}
	start := c.Eng().Now()
	zipf := newZipf(r, foZipf, foServices)
	for i, at := range poisson(r, n, foRate, start) {
		d.reqs = append(d.reqs, &request{id: i, at: at, client: r.Intn(foClients), svc: zipf.pick()})
	}
	expect(d, pages, o)
	fo.nextOp = start + foOpEvery
	fo.nextChurn = start + foChurnEvery
	return fo, d
}

func (fo *fleetOps) observer() *observer { return fo.obs }

// verb issues one wire verb under a span; a typed refusal is counted,
// not failed.
func (fo *fleetOps) verb(d *runner, name string, call func() *api.Error) {
	sp := d.tr.begin("wire.Client."+name, -1, -1)
	err := call()
	d.tr.end(sp)
	fo.verbs++
	if err != nil {
		fo.refusals++
		d.wireRefusals++
	}
}

func (fo *fleetOps) fetch(d *runner, q *request) {
	eng := d.eng
	q.sent = eng.Now()
	q.cold = !fo.booted(fo.names[q.svc])
	q.span = d.tr.begin("cluster.Client.Fetch", q.id, -1)
	fo.clients[q.client].Fetch(fo.names[q.svc], "/", reqTimeout,
		func(_ int, resp *netstack.HTTPResponse, _ sim.Duration, err error) {
			if err != nil {
				d.complete(q, 0, nil, err)
				return
			}
			d.complete(q, resp.Status, resp.Body, nil)
		})
}

// booted reports whether any replica of name is booted.
func (fo *fleetOps) booted(name string) bool {
	e := fo.c.Directory().Lookup(name)
	if e == nil {
		return false
	}
	for _, p := range e.Replicas {
		if p != nil && p.Svc != nil && p.Svc.State.Booted() {
			return true
		}
	}
	return false
}

// drive interleaves the fetch schedule with the operator loop and the
// membership churn: before each slice it books that slice's fetches,
// then issues whatever operator verb or churn step is due (verbs pump
// the engine until their reply), then runs the slice.
func (fo *fleetOps) drive(d *runner) {
	if fo.admin == nil || len(d.reqs) == 0 {
		return
	}
	start := func(q *request) { fo.fetch(d, q) }
	t := d.eng.Now()
	for next := 0; next < len(d.reqs); {
		next = d.book(next, t+slice, start)
		if now := d.eng.Now(); now >= fo.nextOp {
			fo.operate(d)
			fo.nextOp = now + foOpEvery/2 + sim.Duration(fo.r.Int63n(int64(foOpEvery)))
		}
		if now := d.eng.Now(); now >= fo.nextChurn {
			fo.churn(d)
			fo.nextChurn = now + foChurnEvery
		}
		t += slice
		if t > d.eng.Now() {
			d.runUntil(t)
		}
	}
	// Let the fetches in flight finish, then close the sessions, stop the
	// failure detector and drain.
	d.runUntil(d.eng.Now() + reqTimeout + time.Second)
	for _, stop := range fo.stops {
		stop()
	}
	for _, v := range append([]*wire.Client{fo.admin}, fo.viewers...) {
		v.Close()
	}
	fo.c.StopMembership()
	d.drain(d.eng.Now() + drainLimit)
}

// operate issues one seeded operator verb whose target state makes it
// valid: Demote a service with a booted replica, Promote one with a
// replica on disk, or Migrate one with a booted replica off its board.
// The kinds come in shuffled triples, so every stretch of the schedule
// sees the three verbs equally often; a Promote with nothing on disk or
// a Migrate with nothing booted falls back to Demote.
func (fo *fleetOps) operate(d *runner) {
	var booted, onDisk []int
	live := fo.liveBoards()
	for i, name := range fo.names {
		e := fo.c.Directory().Lookup(name)
		for _, p := range e.Replicas {
			if p == nil || p.Svc == nil || !live[p.Board] {
				continue
			}
			switch {
			case p.Svc.State.Booted():
				booted = append(booted, i)
			case p.Svc.State == core.StateColdDisk:
				onDisk = append(onDisk, i)
			}
		}
	}
	if len(fo.ops) == 0 {
		fo.ops = fo.r.Perm(3)
	}
	k := fo.ops[0]
	fo.ops = fo.ops[1:]
	switch {
	case k == 1 && len(onDisk) > 0:
		name := fo.names[onDisk[fo.r.Intn(len(onDisk))]]
		fo.verb(d, "Promote", func() *api.Error {
			return fo.admin.Promote(api.PromoteRequest{Name: name, OnReady: func(error) {}}).Err
		})
	case k == 2 && len(booted) > 0:
		name := fo.names[booted[fo.r.Intn(len(booted))]]
		fo.verb(d, "Migrate", func() *api.Error {
			return fo.admin.Migrate(api.MigrateRequest{Name: name, OnDone: func(bool) {}}).Err
		})
	case len(booted) > 0:
		name := fo.names[booted[fo.r.Intn(len(booted))]]
		fo.verb(d, "Demote", func() *api.Error {
			return fo.admin.Demote(api.DemoteRequest{Name: name}).Err
		})
	}
}

// liveBoards marks the members that are up and not leaving.
func (fo *fleetOps) liveBoards() map[int]bool {
	live := map[int]bool{}
	for _, m := range fo.c.Members() {
		if m.State == cluster.MemberAlive && !m.Leaving {
			live[m.ID] = true
		}
	}
	return live
}

// churn starts the graceful departure of the oldest live board (never
// board 0, which hosts the directory) and admits a fresh board, so the
// boards rotate through the cluster.
func (fo *fleetOps) churn(d *runner) {
	id := -1
	for _, m := range fo.c.Members() {
		if m.ID != 0 && m.State == cluster.MemberAlive && !m.Leaving {
			id = m.ID
			break
		}
	}
	if id > 0 {
		l := &leave{board: id, span: d.tr.begin("cluster.Cluster.Leave", -1, -1)}
		if err := fo.c.Leave(id, func() { l.done = true; d.tr.end(l.span) }); err != nil {
			d.checkf("leave board %d: %v", id, err)
		} else {
			fo.leaves = append(fo.leaves, l)
		}
	}
	m := fo.c.AddBoard()
	if fo.obs != nil {
		fo.obs.watch(m.Board)
		for _, cl := range fo.clients {
			fo.obs.watchTCP(cl.Host(m.ID))
		}
	}
}

func (fo *fleetOps) check(d *runner) {
	d.checkFinished()
	for _, l := range fo.leaves {
		if !l.done {
			d.checkf("leave of board %d never completed", l.board)
		}
	}
	for i, v := range append([]*wire.Client{fo.admin}, fo.viewers...) {
		if v != nil && v.Pending() != 0 {
			d.checkf("wire session %d still has %d pending callbacks after Close", i, v.Pending())
		}
	}
	if fo.srv != nil && fo.srv.ActiveWatches() != 0 {
		d.checkf("wire server still holds %d watches after Close", fo.srv.ActiveWatches())
	}
}

func (fo *fleetOps) counts(c counts) {
	cl := fo.c
	c.add("cluster.present", 1)
	c.add("wire.present", 1)
	c.add("cluster.placed", float64(cl.Placed))
	c.add("cluster.warm_hits", float64(cl.WarmHits))
	c.add("cluster.migrations", float64(cl.Migrations))
	c.add("cluster.lost", float64(cl.Lost))
	c.add("cluster.preempts", float64(cl.Preempts))
	c.add("cluster.probes", float64(cl.Probes))
	c.add("cluster.suspects", float64(cl.Suspects))
	c.add("cc.chunks", float64(cl.Chunks))
	c.add("cc.retransmits", float64(cl.ChunkRetx))
	c.add("cc.xfer_aborts", float64(cl.XferAborts))
	c.add("wire.verbs", float64(fo.verbs))
	c.add("wire.refusals", float64(fo.refusals))
	c.add("wire.watch_snapshots", float64(fo.snapshots))
	c.add("sim.events", float64(cl.Eng().Fired()))
	c.max("sim.max_pending", float64(cl.Eng().MaxPending()))
	var hosts []*netstack.Host
	for _, b := range cl.Boards {
		c.add("blockdev.present", 1)
		c.add("dns.queries", float64(b.DNS.Queries))
		c.add("dns.cache_hits", float64(b.DNS.CacheHits))
		for _, svc := range b.Jitsu.Services() {
			addServiceCounts(c, svc)
		}
		st := b.Store.Stats()
		c.add("xenstore.ops", float64(st.Ops))
		c.add("xenstore.commits", float64(st.Commits))
		c.add("xenstore.conflicts", float64(st.Conflicts))
		c.add("xenstore.watch_events", float64(st.Watches))
		c.add("xen.tx_retries", float64(b.TS.TxRetries))
		addBoardDisk(c, b)
		hosts = append(hosts, b.NS)
	}
	for _, client := range fo.clients {
		c.add("dns.client_retries", float64(client.DNSRetries))
		for i := range cl.Boards {
			hosts = append(hosts, client.Host(i))
		}
	}
	fo.obs.counts(c, hosts)
}
