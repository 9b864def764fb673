package nmad

import (
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
