package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
)

// flow generates and verifies the messages of one direction of one
// workload. Every message is the flow's base — size bytes drawn from
// the workload seed — with three words stamped over it: the sequence
// number, a head word mixed from the flow key and the sequence number,
// and its complement as the tail word. The program under test sees
// only these bytes.
type flow struct {
	base []byte
	key  uint64
	// tamper makes stamp flip a bit of the tail word after stamping, so
	// that the receiver must count the message as failed. Only the test
	// sets it.
	tamper bool
}

// minFlowSize is the smallest message a flow can stamp: three words.
const minFlowSize = 24

func newFlow(rng *rand.Rand, size int) *flow {
	f := &flow{base: make([]byte, size), key: rng.Uint64()}
	rng.Read(f.base)
	return f
}

func (f *flow) head(seq uint64) uint64 {
	x := (f.key ^ seq) * 0x9E3779B97F4A7C15
	return x ^ x>>29
}

// fill copies the base into buf, which the sender then reuses for every
// message of the flow.
func (f *flow) fill(buf []byte) { copy(buf, f.base) }

// stamp writes the sequence number and the head and tail words of
// message seq into buf, which already holds the base.
func (f *flow) stamp(buf []byte, seq uint64) {
	h := f.head(seq)
	binary.LittleEndian.PutUint64(buf[0:], seq)
	binary.LittleEndian.PutUint64(buf[8:], h)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], ^h)
	if f.tamper {
		buf[len(buf)-1] ^= 1
	}
}

// check reports whether got is message seq of the flow: the length,
// the sequence number and the head and tail words always, and every
// other byte too when full is set.
func (f *flow) check(got []byte, seq uint64, full bool) bool {
	if len(got) != len(f.base) {
		return false
	}
	h := f.head(seq)
	if binary.LittleEndian.Uint64(got[0:]) != seq ||
		binary.LittleEndian.Uint64(got[8:]) != h ||
		binary.LittleEndian.Uint64(got[len(got)-8:]) != ^h {
		return false
	}
	if full {
		n := len(got) - 8
		return bytes.Equal(got[16:n], f.base[16:n])
	}
	return true
}

// window checks the messages of one window of a flow. nmad hands each
// Isend's packet to the task engine as a task of its own, and on a
// host with more than one CPU the tasks of one gate run on several
// CPUs at once, so messages posted back to back on one tag may arrive
// in another order than they were sent in. That is counted, but it is
// not a failure: a window is correct when it holds each of its
// sequence numbers exactly once, every message intact.
type window struct {
	flow      *flow
	seen      []bool
	reordered int64 // messages that arrived out of the order they were sent in
}

func newWindow(f *flow, size int) *window { return &window{flow: f, seen: make([]bool, size)} }

// begin starts the check of the next window.
func (w *window) begin() { clear(w.seen) }

// add checks the message that arrived at position pos of the window
// whose first sequence number is base.
func (w *window) add(got []byte, base uint64, pos int, full bool) bool {
	if len(got) < minFlowSize {
		return false
	}
	seq := binary.LittleEndian.Uint64(got)
	i := seq - base
	if i >= uint64(len(w.seen)) || w.seen[i] || !w.flow.check(got, seq, full) {
		return false
	}
	w.seen[i] = true
	if int(i) != pos {
		w.reordered++
	}
	return true
}
