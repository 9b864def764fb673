package nmad

import (
	"slices"
	"testing"
)

// Fuzz harness for the piece of pure bookkeeping whose correctness
// everything chaotic leans on: the bounded settled-log that dedups
// retransmitted frames, checked against a trivially-correct reference
// model (a map+FIFO queue); run with `go test -fuzz=FuzzSettledDedup`
// to explore beyond the committed corpus.

// FuzzSettledDedup drives the bounded settled-log with arbitrary
// add/has sequences and cross-checks against a map plus explicit FIFO
// queue. A false negative redelivers a duplicate frame; broken
// eviction order silently shrinks the dedup window.
func FuzzSettledDedup(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 1})
	f.Add([]byte("repeat-repeat-repeat-repeat"))
	f.Add([]byte{255, 255, 254, 255, 255, 254, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var l settledLog
		model := make(map[uint64]bool)
		var fifo []uint64
		// Two data bytes per op give 128k distinct msgIDs (the low bit of
		// the first byte lands in the top bit, so ids spread across the
		// keyspace), far past the 512-entry window: eviction is reachable.
		for i := 0; i+1 < len(data); i += 2 {
			k := uint64(data[i]&1)<<63 | uint64(data[i])>>1 | uint64(data[i+1])<<7
			if l.has(k) != model[k] {
				t.Fatalf("op %d: has(%v) = %v before add, model says %v", i/2, k, l.has(k), model[k])
			}
			l.add(k)
			if !model[k] {
				if len(fifo) >= settledLogSize {
					delete(model, fifo[0])
					fifo = fifo[1:]
				}
				model[k] = true
				fifo = append(fifo, k)
			}
			if !l.has(k) {
				t.Fatalf("op %d: key %v invisible immediately after add", i/2, k)
			}
		}
		for _, k := range fifo {
			if !l.has(k) {
				t.Fatalf("unevicted key %v missing from log", k)
			}
		}
		if len(fifo) > settledLogSize {
			t.Fatalf("model grew to %d entries, window is %d", len(fifo), settledLogSize)
		}
	})
}

// FuzzAckSet drives the ack encoding with arbitrary id multisets —
// unsorted, duplicated, spanning more than 64, more than 64 ids —
// sorted as sendAcks sorts them, and checks that the acks nextAck
// produces name exactly the input set,
// that no ack names an id past its MsgID+64, and that no encoding
// could use fewer acks: every base is an input id more than 64 past
// the previous base, so no single ack can cover two bases.
func FuzzAckSet(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 1, 2, 3})
	f.Add(uint64(100), uint8(0), []byte{7, 3, 3, 64, 65, 0, 200, 129, 130})
	f.Add(uint64(1<<63), uint8(7), []byte("unsorted ids with duplicates and spans past sixty-four, more than sixty-four of them"))
	f.Add(^uint64(0)-300, uint8(1), []byte{255, 0, 128, 64, 65, 66})
	f.Fuzz(func(t *testing.T, base uint64, scale uint8, offs []byte) {
		if len(offs) == 0 {
			return
		}
		ids := make([]uint64, len(offs))
		want := make(map[uint64]bool)
		for i, o := range offs {
			ids[i] = base + uint64(o)*(uint64(scale%8)+1)
			want[ids[i]] = true
		}
		slices.Sort(ids)
		got := make(map[uint64]bool)
		var bases []uint64
		for rest := ids; len(rest) > 0; {
			var b, mask uint64
			b, mask, rest = nextAck(rest)
			if !want[b] {
				t.Fatalf("ack base %d is not an input id", b)
			}
			if n := len(bases); n > 0 && b-bases[n-1] <= 64 {
				t.Fatalf("ack bases %d and %d are within 64: one ack could cover both", bases[n-1], b)
			}
			bases = append(bases, b)
			for _, id := range ackIDs(nil, b, mask) {
				if id-b > 64 {
					t.Fatalf("ack at %d names %d, past MsgID+64", b, id)
				}
				if !want[id] {
					t.Fatalf("ack at %d names %d, which was never acked", b, id)
				}
				got[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("acks name %d distinct ids, input has %d", len(got), len(want))
		}
	})
}
