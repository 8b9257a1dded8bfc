package cluster

import (
	"testing"
	"time"

	"jitsu/internal/cc"
	"jitsu/internal/sim"
)

// ackSeen classifies the acks a chunksend test delivered, so each case
// can prove it reached the state it is named for.
type ackSeen struct {
	late       int // chunk timed out and awaits its re-grant
	afterEnd   int // copy already finished or failed
	dup        int // chunk already acked
	outOfRange int // no such chunk
	unsent     int // chunk still waits for its first grant
	// heldAndQueuedAtFail: just before the copy failed, some chunk held
	// window while some grant still waited in the controller's queue.
	heldAndQueuedAtFail bool
}

// TestChunkSendSettlesEveryGrant drives the chunk sender against a real
// congestion controller with a fake transmit hook standing in for the
// network: whatever the receiver does, every window grant is settled
// exactly once and the copy reports exactly once.
func TestChunkSendSettlesEveryGrant(t *testing.T) {
	const rto = 10 * time.Millisecond
	type inject struct {
		at  sim.Duration
		idx int
	}
	cases := []struct {
		name     string
		paced    bool
		stateMiB int
		retries  int
		// ack answers a transmission of chunk idx (try counts from 1):
		// deliver one ack per entry of the returned delays.
		ack    func(idx, try int) []sim.Duration
		extra  []inject // acks injected at fixed virtual times
		wantOK bool
		want   ackSeen
	}{
		{
			name: "late ack while re-Acquire queued", paced: true, stateMiB: 16, retries: 6,
			ack:    func(int, int) []sim.Duration { return []sim.Duration{25 * time.Millisecond} },
			wantOK: true, want: ackSeen{late: 1},
		},
		{
			name: "ack after fail", paced: true, stateMiB: 4, retries: 1,
			ack:  func(int, int) []sim.Duration { return []sim.Duration{5 * time.Second} },
			want: ackSeen{afterEnd: 1},
		},
		{
			name: "duplicate and out-of-range acks", paced: true, stateMiB: 12, retries: 3,
			ack: func(int, int) []sim.Duration {
				return []sim.Duration{2 * time.Millisecond, 3 * time.Millisecond}
			},
			extra:  []inject{{at: 600 * time.Microsecond, idx: 11}, {at: 1 * time.Millisecond, idx: 99}},
			wantOK: true, want: ackSeen{dup: 1, outOfRange: 1, unsent: 1},
		},
		{
			name: "fail with held and queued grants", paced: true, stateMiB: 12, retries: 1,
			ack:  func(int, int) []sim.Duration { return nil },
			want: ackSeen{heldAndQueuedAtFail: true},
		},
		{
			name: "unpaced", stateMiB: 4, retries: 2,
			ack: func(idx, try int) []sim.Duration {
				if idx == 1 && try == 1 {
					return nil
				}
				return []sim.Duration{2 * time.Millisecond}
			},
			wantOK: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(1)
			var sent, retx, aborts uint64
			var s *chunkSend
			var seen ackSeen
			tries := map[int]int{}
			deliver := func(idx int) {
				switch {
				case s.finished:
					seen.afterEnd++
				case idx >= len(s.chunks):
					seen.outOfRange++
				case s.chunks[idx].acked:
					seen.dup++
				case !s.chunks[idx].sent:
					seen.unsent++
				case !s.chunks[idx].held && s.ctrl != nil:
					seen.late++
				}
				s.onAck(idx)
			}
			p := chunkPath{wire: migrateWire, eng: eng,
				xmit: func(buf []byte, bytes int) {
					idx := int(buf[5])<<24 | int(buf[6])<<16 | int(buf[7])<<8 | int(buf[8])
					if bytes != s.chunks[idx].mib<<20 {
						t.Errorf("chunk %d charged %d wire bytes, want %d", idx, bytes, s.chunks[idx].mib<<20)
					}
					tries[idx]++
					for _, d := range tc.ack(idx, tries[idx]) {
						eng.After(d, func() { deliver(idx) })
					}
				},
				chunkMiB: 1, rto: rto, retries: tc.retries, bitsPerSec: 8e9,
				sent: &sent, retx: &retx, aborts: &aborts}
			// A bystander grant stands for a concurrent copy on the same
			// uplink: it holds one chunk of window throughout, so a
			// double settle shows up as a short in-flight account
			// instead of vanishing under the controller's clamp at zero.
			ctrl := cc.New(eng, cc.Config{MSS: 1 << 20, InitWindow: 8 << 20, MinWindow: 4 << 20,
				RTOMin: rto, InitRTO: rto, RTOMax: 64 * rto})
			bystander := 0
			if tc.paced {
				p.ctrl = ctrl
				ctrl.Acquire(1<<20, func() { bystander = 1 << 20 })
			}
			live := map[uint32]*chunkSend{}
			calls, ok := 0, false
			p.send(live, 7, tc.stateMiB, func(res bool) { calls++; ok = res })
			s = live[7]
			for _, in := range tc.extra {
				idx := in.idx
				eng.At(in.at, func() { deliver(idx) })
			}
			// heldBytes is the window the copy's chunks own; beside the
			// bystander's it must make up the controller's whole in-flight
			// account between any two events.
			heldBytes := func() int {
				n := 0
				for i := range s.chunks {
					if s.chunks[i].held {
						n += s.chunks[i].mib << 20
					}
				}
				return n
			}
			for {
				heldAndQueued := heldBytes() > 0 && ctrl.QueueLen() > 0
				finished := s.finished
				if !eng.Step() {
					break
				}
				if !finished && s.finished && !ok {
					seen.heldAndQueuedAtFail = heldAndQueued
				}
				if ctrl.InFlight() != bystander+heldBytes() {
					t.Fatalf("at %v: controller in-flight %d, chunks hold %d beside the bystander's %d",
						eng.Now(), ctrl.InFlight(), heldBytes(), bystander)
				}
			}
			ctrl.Release(bystander)

			if calls != 1 || ok != tc.wantOK {
				t.Fatalf("done called %d times, ok=%v; want once, ok=%v", calls, ok, tc.wantOK)
			}
			if ctrl.InFlight() != 0 || ctrl.QueueLen() != 0 {
				t.Fatalf("controller leaked: inflight=%d queued=%d, want 0/0", ctrl.InFlight(), ctrl.QueueLen())
			}
			if !tc.paced && ctrl.Acks+ctrl.Timeouts != 0 {
				t.Fatalf("unpaced copy touched the controller: acks=%d timeouts=%d", ctrl.Acks, ctrl.Timeouts)
			}
			if len(live) != 0 || eng.Pending() != 0 {
				t.Fatalf("copy left state behind: live=%d pending=%d", len(live), eng.Pending())
			}
			// A timeout counts as a retransmit when it re-queues the chunk,
			// even if an ack or the copy's end then cancels the resend.
			var xmits, resent uint64
			for _, n := range tries {
				xmits += uint64(n)
				resent += uint64(n - 1)
			}
			if sent != xmits || retx < resent {
				t.Fatalf("counters sent=%d retx=%d, want %d and >= %d", sent, retx, xmits, resent)
			}
			wantAborts := uint64(1)
			if tc.wantOK {
				wantAborts = 0
			}
			if aborts != wantAborts {
				t.Fatalf("aborts=%d, want %d", aborts, wantAborts)
			}
			if (tc.want.late > 0 && seen.late == 0) || (tc.want.afterEnd > 0 && seen.afterEnd == 0) ||
				(tc.want.dup > 0 && seen.dup == 0) || (tc.want.outOfRange > 0 && seen.outOfRange == 0) ||
				(tc.want.unsent > 0 && seen.unsent == 0) ||
				(tc.want.heldAndQueuedAtFail && !seen.heldAndQueuedAtFail) {
				t.Fatalf("scenario not exercised: saw %+v, want %+v", seen, tc.want)
			}
		})
	}
}
