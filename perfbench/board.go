package main

import (
	"fmt"
	"time"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
	"jitsu/internal/unikernel"
)

// reqTimeout bounds one client transaction (DNS plus HTTP).
const reqTimeout = 10 * time.Second

// boardDeployment is one Jitsu board with registered static-site
// services and a set of client hosts. cold-storm and warm-fetch both
// run on it; they differ in the services, the pages and the schedule.
type boardDeployment struct {
	board     *core.Board
	clients   []*netstack.Host
	resolvers []*dns.Client
	names     []string
	svcs      []*core.Service
	startFree int

	// obs watches the board's activations (traced runs only).
	obs *observer
}

// newBoardDeployment builds a default board (Cubieboard, Synjitsu on)
// with nClients client hosts.
func newBoardDeployment(seed int64, nClients int, o options) (*boardDeployment, *runner) {
	b := core.New(core.WithSeed(seed))
	bd := &boardDeployment{board: b, startFree: b.Hyp.FreeMemMiB()}
	for c := 0; c < nClients; c++ {
		h := b.AddClient(fmt.Sprintf("client%d", c), netstack.IPv4(10, 0, 9, byte(10+c)))
		bd.clients = append(bd.clients, h)
		bd.resolvers = append(bd.resolvers, &dns.Client{Host: h})
	}
	d := newRunner(b.Eng, o)
	if o.traced {
		bd.obs = newObserver()
		bd.obs.watch(b)
		for _, h := range bd.clients {
			bd.obs.watchTCP(h)
		}
	}
	return bd, d
}

// register adds service i serving body at "/".
func (bd *boardDeployment) register(i int, body []byte, idle sim.Duration) {
	name := fmt.Sprintf("s%03d.%s", i, bd.board.Cfg.Zone)
	app := &unikernel.StaticSiteApp{Pages: map[string][]byte{"/": body}}
	svc := bd.board.Jitsu.Register(core.ServiceConfig{
		Name:        name,
		IP:          serviceIP(i),
		Port:        80,
		Image:       unikernel.UnikernelImage(fmt.Sprintf("s%03d", i), app),
		IdleTimeout: idle,
	})
	bd.names = append(bd.names, name)
	bd.svcs = append(bd.svcs, svc)
}

// serviceIP gives service i an address outside the board's and the
// clients' ranges.
func serviceIP(i int) netstack.IP { return netstack.IPv4(10, 0, byte(1+i/200), byte(10+i%200)) }

func (bd *boardDeployment) observer() *observer { return bd.obs }

// fetch is the client transaction of Figure 9a, composed from the two
// public calls so each leg is timed on its own: dns.Client.Query at the
// board's nameserver, then Host.HTTPGet at the answered address.
func (bd *boardDeployment) fetch(d *runner, q *request) {
	eng := d.eng
	q.sent = eng.Now()
	q.cold = !bd.svcs[q.svc].State.Booted()
	q.span = d.tr.begin("request", q.id, -1)
	dnsSpan := d.tr.begin("dns.Client.Query", q.id, q.span)
	bd.resolvers[q.client].Query(core.NSAddr, bd.names[q.svc], dns.TypeA, reqTimeout,
		func(m *dns.Message, _ sim.Duration, err error) {
			d.tr.end(dnsSpan)
			if err == nil && (m.RCode != dns.RCodeNoError || len(m.Answers) == 0) {
				err = fmt.Errorf("dns %v", m.RCode)
			}
			if err != nil {
				d.complete(q, 0, nil, err)
				return
			}
			httpSpan := d.tr.begin("Host.HTTPGet", q.id, q.span)
			remaining := reqTimeout - (eng.Now() - q.sent)
			bd.clients[q.client].HTTPGet(m.Answers[0].A, 80, "/", remaining,
				func(resp *netstack.HTTPResponse, _ sim.Duration, err error) {
					d.tr.end(httpSpan)
					if err != nil {
						d.complete(q, 0, nil, err)
						return
					}
					d.complete(q, resp.Status, resp.Body, nil)
				})
		})
}

// counts reads the board's exported counters into the per-layer
// report (traced runs).
func (bd *boardDeployment) counts(c counts) {
	b := bd.board
	c.add("dns.queries", float64(b.DNS.Queries))
	c.add("dns.cache_hits", float64(b.DNS.CacheHits))
	for _, r := range bd.resolvers {
		c.add("dns.client_retries", float64(r.Retries))
	}
	for _, svc := range bd.svcs {
		addServiceCounts(c, svc)
	}
	st := b.Store.Stats()
	c.add("xenstore.ops", float64(st.Ops))
	c.add("xenstore.commits", float64(st.Commits))
	c.add("xenstore.conflicts", float64(st.Conflicts))
	c.add("xenstore.watch_events", float64(st.Watches))
	c.add("xen.tx_retries", float64(b.TS.TxRetries))
	addBoardDisk(c, b)
	c.add("sim.events", float64(b.Eng.Fired()))
	c.max("sim.max_pending", float64(b.Eng.MaxPending()))
	bd.obs.counts(c, append([]*netstack.Host{b.NS}, bd.clients...))
}

// observer follows boards from outside through the activation machine's
// public subscription: it keeps every guest that came up (their hosts
// and links outlive the teardown), times each boot leg, tracks the
// largest domain count, and counts the TCP segments of watched hosts.
type observer struct {
	launchAt    map[*core.Service]sim.Duration
	boots       []sim.Duration
	guests      []*unikernel.Guest
	guestLinks  []*netsim.Link
	domains     map[*core.Board]int
	domainsPeak int
	tcpSegments uint64
}

func newObserver() *observer {
	return &observer{launchAt: map[*core.Service]sim.Duration{}, domains: map[*core.Board]int{}}
}

// watch subscribes to one board's activations.
func (ob *observer) watch(b *core.Board) {
	b.Jitsu.Activation().Subscribe(func(svc *core.Service, from, to core.ServiceState) {
		now := b.Eng.Now()
		switch {
		case to == core.StateLaunching && from == core.StateCold:
			ob.launchAt[svc] = now
		case from == core.StateLaunching && to.Booted():
			if t, ok := ob.launchAt[svc]; ok {
				ob.boots = append(ob.boots, now-t)
				delete(ob.launchAt, svc)
			}
			if g := svc.Guest; g != nil {
				ob.guests = append(ob.guests, g)
				if l := g.NIC.Link(); l != nil {
					ob.guestLinks = append(ob.guestLinks, l)
				}
			}
		}
		ob.domains[b] = b.Hyp.Domains()
		n := 0
		for _, k := range ob.domains {
			n += k
		}
		if n > ob.domainsPeak {
			ob.domainsPeak = n
		}
	})
}

// watchTCP counts every TCP segment h sends or receives.
func (ob *observer) watchTCP(h *netstack.Host) {
	h.TraceTCP = func(string, *netstack.TCPSegment) { ob.tcpSegments++ }
}

// counts adds the observer's figures and the netstack/netsim counters
// of hosts plus every observed guest.
func (ob *observer) counts(c counts, hosts []*netstack.Host) {
	if ob == nil {
		return
	}
	for _, g := range ob.guests {
		if g.Stack != nil {
			hosts = append(hosts, g.Stack)
		}
	}
	addHostCounts(c, hosts, ob.guestLinks)
	c.add("netstack.tcp_segments", float64(ob.tcpSegments))
	c.max("xen.domains_peak", float64(ob.domainsPeak))
	c.add("core.boots", float64(len(ob.boots)))
}

// addServiceCounts adds one service's activation counters.
func addServiceCounts(c counts, svc *core.Service) {
	c.add("core.launches", float64(svc.Launches))
	c.add("core.cold_starts", float64(svc.ColdStarts))
	c.add("core.handoffs", float64(svc.Handoffs))
	c.add("core.servfails", float64(svc.ServFails))
	c.add("core.reaps", float64(svc.Reaps))
	c.add("core.restores", float64(svc.Restores))
	c.add("core.disk_restores", float64(svc.DiskRestores))
}

// addBoardDisk adds the board's block-device counters (diskless boards
// add nothing).
func addBoardDisk(c counts, b *core.Board) {
	if b.Disk == nil {
		return
	}
	c.add("blockdev.reads", float64(b.Disk.Reads))
	c.add("blockdev.writes", float64(b.Disk.Writes))
	c.add("blockdev.mb_read", float64(b.Disk.BytesRead)/1e6)
	c.add("blockdev.mb_written", float64(b.Disk.BytesWritten)/1e6)
}

// addHostCounts adds the netstack and netsim counters of the given
// hosts, of the links their NICs transmit into and of extra links
// (guests unplug theirs on teardown). Each host and link counts once.
func addHostCounts(c counts, hosts []*netstack.Host, extra []*netsim.Link) {
	seen := map[*netstack.Host]bool{}
	links := map[*netsim.Link]bool{}
	for _, l := range extra {
		if !links[l] {
			links[l] = true
			c.add("netsim.delivered", float64(l.Stats.Delivered))
			c.add("netsim.dropped", float64(l.Stats.Dropped))
		}
	}
	for _, h := range hosts {
		if seen[h] {
			continue
		}
		seen[h] = true
		c.add("netstack.rx_packets", float64(h.RxPackets))
		c.add("netstack.tx_packets", float64(h.TxPackets))
		c.add("netstack.rx_dropped", float64(h.RxDropped))
		c.add("netsim.dropped", float64(h.NIC.Drops))
		if l := h.NIC.Link(); l != nil && !links[l] {
			links[l] = true
			c.add("netsim.delivered", float64(l.Stats.Delivered))
			c.add("netsim.dropped", float64(l.Stats.Dropped))
		}
	}
}
