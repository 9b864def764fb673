package nmad

import (
	"slices"
	"testing"
)

// Fuzz harness for the piece of pure bookkeeping whose correctness
// everything chaotic leans on: the receive window that dedups
// retransmitted frames, checked against a trivially-correct reference
// model; run with `go test -fuzz=FuzzRecvWindow` to explore beyond the
// committed corpus.

// FuzzRecvWindow drives the receive window with arbitrary add and raise
// sequences — ids near the base, far past it and past maxWindowSpan,
// floors below, at and past the base — and cross-checks against an
// unbounded model: settled = added ∪ {id < highest floor}, with the
// base the lowest id not settled. A false "settled" loses a message; a
// false "fresh" delivers one twice.
func FuzzRecvWindow(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 2, 0})
	f.Add([]byte{0, 5, 0, 0, 3, 0, 1, 9, 0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{2, 255, 255, 4, 200, 0, 0, 70, 0, 1, 0, 1, 3, 0, 2})
	f.Add([]byte("raise-add-raise-add-far-ids-and-floors"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w recvWindow
		added := make(map[uint64]bool)
		var floor, base uint64 // the model's highest floor and base
		settled := func(id uint64) bool { return id < floor || added[id] }
		for i := 0; i+2 < len(data); i += 3 {
			op, off := data[i], uint64(data[i+1])|uint64(data[i+2])<<8
			switch op >> 1 & 3 { // how far from the base
			case 0:
				off &= 255
			case 2:
				off <<= 9 // up to 2^25: past maxWindowSpan
			}
			if op&1 == 0 {
				id := base + off
				if op&8 != 0 && off <= base {
					id = base - off // below the base
				}
				if got, want := w.accepts(id), id < base+maxWindowSpan; got != want {
					t.Fatalf("op %d: accepts(%d) = %v with base %d, want %v", i/3, id, got, base, want)
				}
				if id >= base+maxWindowSpan {
					continue
				}
				if got, want := w.add(id), !settled(id); got != want {
					t.Fatalf("op %d: add(%d) = %v, model says fresh = %v", i/3, id, got, want)
				}
				added[id] = true
			} else {
				fl := base + off
				if op&8 != 0 && off <= base {
					fl = base - off
				}
				w.raise(fl)
				floor = max(floor, fl)
			}
			base = max(base, floor)
			for settled(base) {
				base++
			}
			if w.base != base {
				t.Fatalf("op %d: base %d, model says %d", i/3, w.base, base)
			}
			for id := base - min(base, 2); id < base+130; id++ {
				if w.settled(id) != settled(id) {
					t.Fatalf("op %d: settled(%d) = %v, model says %v", i/3, id, w.settled(id), settled(id))
				}
			}
		}
		for id := range added {
			if !w.settled(id) {
				t.Fatalf("added id %d no longer settled", id)
			}
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
