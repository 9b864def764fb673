package nmad

import (
	"testing"
)

// Fuzz harnesses for the two pieces of pure bookkeeping whose
// correctness everything chaotic leans on: the coverage-span merge
// that decides when a striped rendezvous payload is complete, and the
// bounded settled-log that dedups retransmitted frames. Both are
// checked against trivially-correct reference models (a bitmap, a
// map+FIFO queue); run with `go test -fuzz=FuzzCoverageMerge` (or
// FuzzSettledDedup) to explore beyond the committed corpus.

// coverageUniverse bounds fuzzed offsets so the reference bitmap stays
// small while still exercising every merge shape (insert, extend both
// ways, bridge, swallow, exact duplicate).
const coverageUniverse = 256

// FuzzCoverageMerge drives addCovered with arbitrary [lo, hi) ranges
// and cross-checks every return value and the final span set against a
// byte bitmap. A bug here either completes a rendezvous with holes in
// the payload (over-count) or wedges it forever (under-count).
func FuzzCoverageMerge(f *testing.F) {
	f.Add([]byte{0, 16, 16, 32, 8, 24})         // adjacent + bridging
	f.Add([]byte{10, 20, 10, 20, 0, 255})       // duplicate, then swallow-all
	f.Add([]byte{40, 50, 0, 10, 20, 30, 5, 45}) // out-of-order, multi-span bridge
	f.Add([]byte{5, 5, 9, 3})                   // empty and inverted ranges
	f.Fuzz(func(t *testing.T, data []byte) {
		st := &recvRdvState{}
		var bitmap [coverageUniverse]bool
		covered := 0
		for i := 0; i+1 < len(data); i += 2 {
			lo := int(data[i]) % coverageUniverse
			hi := int(data[i+1]) % (coverageUniverse + 1)
			want := 0
			for b := lo; b < hi; b++ {
				if !bitmap[b] {
					bitmap[b] = true
					want++
				}
			}
			if got := st.addCovered(lo, hi); got != want {
				t.Fatalf("addCovered(%d, %d) = %d newly covered, bitmap says %d", lo, hi, got, want)
			}
			covered += want
		}
		// The span set must be sorted, disjoint, non-touching, and agree
		// with the bitmap byte for byte.
		total := 0
		for i, sp := range st.covered {
			if sp.hi <= sp.lo {
				t.Fatalf("span %d is empty or inverted: %+v", i, sp)
			}
			if i > 0 && sp.lo <= st.covered[i-1].hi {
				t.Fatalf("spans %d and %d overlap or touch unmerged: %+v, %+v", i-1, i, st.covered[i-1], sp)
			}
			for b := sp.lo; b < sp.hi; b++ {
				if !bitmap[b] {
					t.Fatalf("span %+v claims byte %d the bitmap never saw", sp, b)
				}
			}
			total += sp.hi - sp.lo
		}
		if total != covered {
			t.Fatalf("spans cover %d bytes, merge reported %d", total, covered)
		}
	})
}

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
