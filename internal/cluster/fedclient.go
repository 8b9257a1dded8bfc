package cluster

import (
	"errors"
	"fmt"

	"jitsu/internal/core"
	"jitsu/internal/dns"
	"jitsu/internal/netsim"
	"jitsu/internal/netstack"
	"jitsu/internal/sim"
)

// ErrFederationFull is returned when no cluster in the federation could
// take the query (the root's SERVFAIL, after any spill attempt).
var ErrFederationFull = errors.New("cluster: no cluster can take the service")

// FedClient resolves names at the federation root and fetches from
// whichever cluster/board the answer names. The answer address encodes
// the owner — second octet the cluster, third the board — so one
// resolution tells the client exactly where to connect; per-cluster
// fetch attachments are created lazily on first use.
type FedClient struct {
	f     *Federation
	name  string
	ip    netstack.IP
	front *netstack.Host
	sub   []*Client // per-cluster attachments, indexed by cluster id

	// Retry, when non-zero, hardens the root resolution against a lossy
	// front network (zero value = single datagram, the ablation).
	Retry dns.RetryPolicy
	// ServFails counts federation-wide refusals observed by this
	// client; NXDomains counts lookups of names no cluster owns;
	// DNSRetries the root-query retransmits paid.
	ServFails  uint64
	NXDomains  uint64
	DNSRetries uint64
}

// NewClient attaches a client to the federation's front network.
func (f *Federation) NewClient(name string, ip netstack.IP) *FedClient {
	fc := &FedClient{f: f, name: name, ip: ip, sub: make([]*Client, len(f.members))}
	nic := netsim.NewNIC(f.eng, name+"-front", netsim.MACFor(0xB300+len(f.clients)))
	f.front.ConnectNIC(nic, core.ExtLinkLatency, core.ExtLinkBitsPerSec)
	fc.front = netstack.NewHost(f.eng, name+"-front", nic, ip, netstack.LinuxNativeProfile())
	f.clients = append(f.clients, fc)
	return fc
}

// cluster returns (building on first use) the client's attachment to
// member cid's boards.
func (fc *FedClient) cluster(cid int) *Client {
	for len(fc.sub) <= cid {
		fc.sub = append(fc.sub, nil)
	}
	if fc.sub[cid] == nil {
		fc.sub[cid] = fc.f.members[cid].Cluster.NewClient(fmt.Sprintf("%s-c%d", fc.name, cid), fc.ip)
	}
	return fc.sub[cid]
}

// Fetch resolves name at the federation root and fetches path from the
// cluster/board the delegated answer names. done reports the serving
// cluster and board (-1 on refusal or error).
func (fc *FedClient) Fetch(name, path string, timeout sim.Duration, done func(cluster, board int, resp *netstack.HTTPResponse, elapsed sim.Duration, err error)) {
	eng := fc.f.eng
	start := eng.Now()
	resolver := &dns.Client{Host: fc.front, Retry: fc.Retry}
	resolver.Query(FedRootAddr, name, dns.TypeA, timeout, func(m *dns.Message, _ sim.Duration, err error) {
		fc.DNSRetries += resolver.Retries
		if err != nil {
			done(-1, -1, nil, eng.Now()-start, err)
			return
		}
		if m.RCode == dns.RCodeServFail {
			fc.ServFails++
			done(-1, -1, nil, eng.Now()-start, ErrFederationFull)
			return
		}
		if m.RCode == dns.RCodeNXDomain {
			fc.NXDomains++
			done(-1, -1, nil, eng.Now()-start, fmt.Errorf("cluster: fed dns %v", m.RCode))
			return
		}
		if m.RCode != dns.RCodeNoError || len(m.Answers) == 0 {
			done(-1, -1, nil, eng.Now()-start, fmt.Errorf("cluster: fed dns %v", m.RCode))
			return
		}
		ip := m.Answers[0].A
		cid, board := int(ip[1])-10, int(ip[2])-100
		if cid < 0 || cid >= len(fc.f.members) || board < 0 || board >= len(fc.f.members[cid].Cluster.Boards) {
			done(-1, -1, nil, eng.Now()-start, fmt.Errorf("cluster: unmappable answer %v", ip))
			return
		}
		remaining := timeout - (eng.Now() - start)
		if remaining <= 0 {
			done(-1, -1, nil, eng.Now()-start, netstack.ErrTimeout)
			return
		}
		fc.cluster(cid).Host(board).HTTPGet(ip, 80, path, remaining,
			func(resp *netstack.HTTPResponse, _ sim.Duration, err error) {
				done(cid, board, resp, eng.Now()-start, err)
			})
	})
}
