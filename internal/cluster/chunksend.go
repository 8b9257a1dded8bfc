package cluster

import (
	"time"

	"jitsu/internal/cc"
	"jitsu/internal/netstack"
	"jitsu/internal/obs"
	"jitsu/internal/sim"
)

// Chunked checkpoint copies. Two paths move a checkpoint as a real
// windowed datagram exchange: the migration pre-copy, board agent to
// board agent on the cluster management network (migrateWire, Migrate*
// config), and the federation Transfer, agent to agent on the
// federation management network (fedXferWire, Transfer* config). The
// checkpoint is cut into chunks; each chunk datagram carries only a
// header but occupies the sender's uplink for the chunk's full byte
// count (netstack.SendUDPBulk), so gossip probes, delegated resolves
// and anything else on the same uplink queue behind the copy exactly as
// they would behind the real burst. How many chunks may be in flight at
// once is decided by the uplink's congestion controller (internal/cc):
// every chunk acquires window before it transmits and returns it on
// ack, timeout or failure, so the copy paces itself to the link instead
// of blasting — the unpaced ablation (nil controller) puts every chunk
// on the wire immediately with the fixed doubling RTO, which is exactly
// the bufferbloat that falsely suspects gossip peers on a throttled
// link. Lost chunks retransmit (bounded per chunk); a partition
// exhausts the retries and fails the copy, which the caller answers
// with abort (the source keeps serving).

// chunkWire names one chunk exchange on the wire: the UDP port both
// ends bind and the opcodes of its two datagrams,
// [op, id:4, idx:4, total:4] sender -> receiver and [op, id:4, idx:4]
// back.
type chunkWire struct {
	port           uint16
	opChunk, opAck byte
}

var (
	migrateWire = chunkWire{port: 7947, opChunk: 1, opAck: 2}
	fedXferWire = chunkWire{port: fedPort, opChunk: fedOpXferChunk, opAck: fedOpXferAck}
)

// bulk returns the xmit hook sending this exchange's chunk datagrams
// from h to dst.
func (w chunkWire) bulk(h *netstack.Host, dst netstack.IP) func(buf []byte, bytes int) {
	return func(buf []byte, bytes int) { h.SendUDPBulk(dst, w.port, w.port, buf, bytes) }
}

// chunkPath is what one copy needs from its caller: where the chunks
// go, what paces them, the retransmit schedule, and what to count and
// trace.
type chunkPath struct {
	wire chunkWire
	eng  *sim.Engine
	// host is where the copy's acks arrive; xmit sends one chunk
	// datagram from it, charged on the wire for bytes (wire.bulk).
	host *netstack.Host
	xmit func(buf []byte, bytes int)
	// ctrl paces the sending uplink; nil is the unpaced ablation.
	ctrl *cc.Controller
	// chunkMiB is the chunk size; rto the fixed RTO (unpaced) and the
	// controller's initial and minimum one; retries the retransmits
	// allowed per chunk; bitsPerSec the link rate behind the RTO's
	// serialisation allowance.
	chunkMiB   int
	rto        sim.Duration
	retries    int
	bitsPerSec float64
	// sent counts chunk datagrams (retransmits included), retx just the
	// retransmits, aborts the copies that exhausted a chunk's retries.
	sent, retx, aborts *uint64
	// traceRetx and traceAbort record a retransmit or an abort of copy
	// id; nil records nothing.
	traceRetx, traceAbort func(id uint32, chunk int)
}

// pacer returns *slot, building it on first use: the controller pacing
// this path's uplink, registered under prefix in reg.
func (p chunkPath) pacer(slot **cc.Controller, reg *obs.Registry, prefix string) *cc.Controller {
	if *slot == nil {
		*slot = cc.New(p.eng, cc.Config{
			MSS:     p.chunkMiB << 20,
			RTOMin:  p.rto,
			InitRTO: p.rto,
			RTOMax:  64 * p.rto,
		})
		(*slot).Register(reg, prefix)
	}
	return *slot
}

// sendChunk is one chunk's sender-side state. held tracks whether the
// chunk currently owns granted controller window: the controller's
// contract is that every grant is settled by exactly one of
// OnAck/OnTimeout/Release, and a chunk whose timer fired has already
// settled via OnTimeout while its re-Acquire waits in the queue — a
// late ack or a copy failure in that gap must not settle again.
type sendChunk struct {
	mib    int
	tries  int
	sentAt sim.Duration
	sent   bool
	acked  bool
	held   bool
	timer  sim.Event
}

// chunkSend is the sender side of one copy.
type chunkSend struct {
	chunkPath
	id       uint32
	live     map[uint32]*chunkSend // the owner's in-flight copies
	chunks   []sendChunk
	acked    int
	inflight int // unacked transmitted bytes (RTO serialisation allowance)
	done     func(ok bool)
	finished bool
}

// send streams stateMiB through p.xmit as copy id, tracked in live
// until it ends, and reports success exactly once. The 500µs lead-in
// models checkpoint serialisation on the source before the first byte
// moves.
func (p chunkPath) send(live map[uint32]*chunkSend, id uint32, stateMiB int, done func(ok bool)) {
	total := (stateMiB + p.chunkMiB - 1) / p.chunkMiB
	if total < 1 {
		total = 1
	}
	last := stateMiB - (total-1)*p.chunkMiB
	if last <= 0 {
		last = p.chunkMiB
	}
	s := &chunkSend{chunkPath: p, id: id, live: live,
		chunks: make([]sendChunk, total), done: done}
	for i := range s.chunks {
		s.chunks[i].mib = p.chunkMiB
	}
	s.chunks[total-1].mib = last
	live[id] = s
	p.eng.After(500*time.Microsecond, s.start)
}

// start puts the copy in motion: unpaced, every chunk transmits
// immediately; paced, each chunk queues on the uplink controller and
// transmits when the window grants it.
func (s *chunkSend) start() {
	for i := range s.chunks {
		if s.ctrl == nil {
			s.transmit(i)
		} else {
			s.acquire(i)
		}
	}
}

// acquire queues chunk idx for window. The grant transmits it — unless
// the chunk was acked or the copy ended while the request waited, in
// which case the grant hands its bytes straight back.
func (s *chunkSend) acquire(idx int) {
	cs := &s.chunks[idx]
	bytes := cs.mib << 20
	s.ctrl.Acquire(bytes, func() {
		if s.finished || cs.acked {
			s.ctrl.Release(bytes)
			return
		}
		cs.held = true
		s.transmit(idx)
	})
}

// transmit sends chunk idx's header datagram — charged on the wire for
// the chunk's full byte count — and arms its retransmit timer.
func (s *chunkSend) transmit(idx int) {
	if s.finished {
		return
	}
	cs := &s.chunks[idx]
	n := len(s.chunks)
	buf := []byte{s.wire.opChunk,
		byte(s.id >> 24), byte(s.id >> 16), byte(s.id >> 8), byte(s.id),
		byte(idx >> 24), byte(idx >> 16), byte(idx >> 8), byte(idx),
		byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	*s.sent++
	cs.tries++
	if !cs.sent {
		cs.sent = true
		cs.sentAt = s.eng.Now()
		s.inflight += cs.mib << 20
	}
	s.xmit(buf, cs.mib<<20)
	s.armTimer(idx)
}

// armTimer schedules chunk idx's retransmit: the controller's live RTO
// (or the fixed one, unpaced), doubled per retry of this chunk, plus a
// serialisation allowance for everything in flight ahead of it — the
// bytes occupy the shared link before the ack can exist.
func (s *chunkSend) armTimer(idx int) {
	cs := &s.chunks[idx]
	rto := s.rto
	if s.ctrl != nil {
		rto = s.ctrl.RTO()
	}
	for i := 1; i < cs.tries; i++ {
		rto *= 2
	}
	rto += sim.Duration(float64(s.inflight*8) / s.bitsPerSec * float64(time.Second))
	cs.timer = s.eng.After(rto, func() {
		if s.finished || cs.acked {
			return
		}
		if cs.tries > s.retries {
			s.fail()
			return
		}
		*s.retx++
		if s.traceRetx != nil {
			s.traceRetx(s.id, idx)
		}
		if s.ctrl == nil {
			s.transmit(idx)
			return
		}
		// The timeout collapses the window and settles the chunk's
		// grant; the retransmit re-queues for its share of whatever is
		// left and holds no window until the re-grant fires.
		cs.held = false
		s.ctrl.OnTimeout(cs.mib << 20)
		s.acquire(idx)
	})
}

// onAck retires one chunk: its window returns to the controller (with
// an RTT sample when the chunk was never retransmitted — Karn's rule).
func (s *chunkSend) onAck(idx int) {
	if s.finished || idx >= len(s.chunks) {
		return
	}
	cs := &s.chunks[idx]
	if !cs.sent || cs.acked {
		return // duplicate or stale ack
	}
	cs.acked = true
	s.eng.Cancel(cs.timer)
	bytes := cs.mib << 20
	s.inflight -= bytes
	if cs.held {
		// A chunk awaiting its post-timeout re-grant holds no window —
		// its queued grant settles itself when it fires.
		cs.held = false
		var rtt sim.Duration
		if cs.tries == 1 {
			rtt = s.eng.Now() - cs.sentAt
		}
		s.ctrl.OnAck(bytes, rtt)
	}
	s.acked++
	if s.acked == len(s.chunks) {
		s.finished = true
		delete(s.live, s.id)
		s.done(true)
	}
}

// fail abandons the copy after a chunk exhausted its retries (the path
// is gone): every chunk holding window returns it, so concurrent copies
// on the same uplink keep moving; queued grants see finished and
// release their own bytes when they fire.
func (s *chunkSend) fail() {
	s.finished = true
	delete(s.live, s.id)
	for i := range s.chunks {
		cs := &s.chunks[i]
		if cs.timer != (sim.Event{}) {
			s.eng.Cancel(cs.timer)
		}
		if cs.held {
			cs.held = false
			s.ctrl.Release(cs.mib << 20)
		}
	}
	*s.aborts++
	if s.traceAbort != nil {
		s.traceAbort(s.id, s.acked)
	}
	s.done(false)
}

// recv handles one datagram of this exchange arriving at host h. The
// receiver keeps no per-copy state: every chunk datagram is simply
// acknowledged (duplicates re-acknowledged — the previous ack may be
// the frame that was lost), and the sender decides completion. An ack
// goes to the copy in live that h itself is sending.
func (w chunkWire) recv(h *netstack.Host, live map[uint32]*chunkSend, src netstack.IP, payload []byte) {
	if len(payload) < 9 {
		return
	}
	id := uint32(payload[1])<<24 | uint32(payload[2])<<16 | uint32(payload[3])<<8 | uint32(payload[4])
	idx := int(payload[5])<<24 | int(payload[6])<<16 | int(payload[7])<<8 | int(payload[8])
	switch payload[0] {
	case w.opChunk:
		ack := []byte{w.opAck,
			byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id),
			byte(idx >> 24), byte(idx >> 16), byte(idx >> 8), byte(idx)}
		h.SendUDP(src, w.port, w.port, ack)
	case w.opAck:
		if s, ok := live[id]; ok && s.host == h {
			s.onAck(idx)
		}
	}
}
