package trace

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"testing"
)

// fixedClock returns a clock that ticks by one per call, starting at
// base, so event order is encoded in timestamps.
func fixedClock(base int64) func() int64 {
	t := base
	return func() int64 { t++; return t }
}

func TestRecordAndDrain(t *testing.T) {
	r := New(2, 64, fixedClock(0))
	r.Record(0, EvTaskRun, 1, 0)
	r.Record(1, EvRdvRTS, 42, 4096)
	r.Record(0, EvTaskSteal, 3, 7)

	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("drained %d events, want 3", len(evs))
	}
	if evs[0].Kind != EvTaskRun || evs[0].Ring != 0 {
		t.Fatalf("first event = %+v, want task-run on ring 0", evs[0])
	}
	if evs[1].Kind != EvRdvRTS || evs[1].A != 42 || evs[1].B != 4096 {
		t.Fatalf("second event = %+v, want rdv-rts A=42 B=4096", evs[1])
	}
	if got := r.Recorded(); got != 3 {
		t.Fatalf("Recorded() = %d, want 3", got)
	}
	// Draining is non-destructive.
	if again := r.Events(); len(again) != 3 {
		t.Fatalf("second drain saw %d events, want 3", len(again))
	}
}

func TestRingWraparound(t *testing.T) {
	const capacity = 64
	r := New(1, capacity, fixedClock(0))
	const total = capacity*3 + 5
	for i := 0; i < total; i++ {
		r.Record(0, EvTaskRun, uint64(i), 0)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("drained %d events after wrap, want the last %d", len(evs), capacity)
	}
	// The survivors must be exactly the newest `capacity` events, in
	// order.
	for i, ev := range evs {
		want := uint64(total - capacity + i)
		if ev.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest must be overwritten)", i, ev.A, want)
		}
	}
	if got := r.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
}

func TestRingClampAndNilSafety(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record(0, EvTaskRun, 1, 2) // must not panic
	if nilRec.Events() != nil || nilRec.Recorded() != 0 {
		t.Fatal("nil recorder must drain empty")
	}

	r := New(2, 64, fixedClock(0))
	r.Record(7, EvRailDeath, 0, 0)  // clamps to ring 7%2 = 1
	r.Record(-3, EvRailDeath, 1, 0) // negative rings must not panic
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if evs[0].Ring != 1 {
		t.Fatalf("ring 7 clamped to %d, want 1", evs[0].Ring)
	}
}

// TestConcurrentRecordDrain hammers one ring from several writers
// while a reader drains, under -race. Correctness bar: no race, no
// panic, and every drained event is internally consistent (a payload
// that matches its kind's writer).
func TestConcurrentRecordDrain(t *testing.T) {
	r := New(4, 256, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(w, EvTaskRun, uint64(i), uint64(w))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, ev := range r.Events() {
			if ev.Kind != EvTaskRun {
				t.Errorf("drained kind %v mid-write, want only task-run", ev.Kind)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteTraceChromeJSON(t *testing.T) {
	r := New(2, 64, fixedClock(1000))
	r.Record(0, EvTaskRun, 5, 0)
	r.Record(1, EvRetransmit, 9, 2)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string             `json:"name"`
			Phase string             `json:"ph"`
			TS    float64            `json:"ts"`
			TID   int                `json:"tid"`
			Args  map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "task-run" || doc.TraceEvents[0].Phase != "i" {
		t.Fatalf("first event = %+v, want instant task-run", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "retransmit" || doc.TraceEvents[1].TID != 1 {
		t.Fatalf("second event = %+v, want retransmit on tid 1", doc.TraceEvents[1])
	}
	// ns → µs conversion: clock starts at 1001 ns.
	if doc.TraceEvents[0].TS != 1.001 {
		t.Fatalf("ts = %v µs, want 1.001", doc.TraceEvents[0].TS)
	}
}

// TestWriteTraceGolden pins the exact document bytes: the empty
// recorder emits a loadable skeleton, and a span begin/end pair renders
// as async "b"/"e" events sharing one (cat, id, name) triple so viewers
// pair them into a bar. Any byte change here is a format change and
// must be deliberate (tracestat fixtures ride on these bytes).
func TestWriteTraceGolden(t *testing.T) {
	empty := New(1, 8, fixedClock(0))
	var buf bytes.Buffer
	if err := empty.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace(empty): %v", err)
	}
	if got, want := buf.String(), "{\"traceEvents\":[]}\n"; got != want {
		t.Fatalf("empty document = %q, want %q", got, want)
	}

	sid := PackSpanID(1, 2, DirSend, 0, 7)
	r := New(1, 8, nil)
	r.RecordAt(0, EvSendBegin, sid, 100, 2000)
	r.RecordAt(0, EvSendEnd, sid, 0, 5000)
	buf.Reset()
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	hex := "0x" + strconv.FormatUint(sid, 16)
	want := `{"traceEvents":[{"name":"send","cat":"msg","id":"` + hex + `","ph":"b","ts":2,"pid":0,"tid":0,"args":{"a":` + strconv.FormatUint(sid, 10) + `,"b":100}}
,{"name":"send","cat":"msg","id":"` + hex + `","ph":"e","ts":5,"pid":0,"tid":0,"args":{"a":` + strconv.FormatUint(sid, 10) + `,"b":0}}
]}
`
	if buf.String() != want {
		t.Fatalf("span document:\n%s\nwant:\n%s", buf.String(), want)
	}

	// And the document must parse right back to the drained stream.
	evs, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(evs) != 2 || evs[0] != (Event{TS: 2000, Kind: EvSendBegin, A: sid, B: 100}) ||
		evs[1] != (Event{TS: 5000, Kind: EvSendEnd, A: sid, B: 0}) {
		t.Fatalf("round-trip drained %+v", evs)
	}
}

// TestReadTraceRoundTrip drains a mixed instant/span stream through the
// chrome document and back; every kind must survive bit-exact.
func TestReadTraceRoundTrip(t *testing.T) {
	r := New(3, 64, fixedClock(0))
	sid := PackSpanID(3, 1, DirRecv, 2, 9)
	r.Record(0, EvTaskRun, 11, 22)
	r.Record(1, EvRecvBegin, sid, 4096)
	r.Record(1, EvMatchBegin, sid, 0)
	r.Record(2, EvRetransmit, sid, 1)
	r.Record(1, EvMatchEnd, sid, 0)
	r.Record(1, EvRecvEnd, sid, 0)
	want := r.Events()

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPackSpanID checks the bit layout round-trips at the field
// extremes and that SpanMsgKey is direction- and aux-independent (the
// sender's and receiver's spans for one message collapse to one key).
func TestPackSpanID(t *testing.T) {
	cases := []struct {
		node, peer int
		dir        uint64
		aux        uint8
		msgID      uint64
	}{
		{0, 0, DirSend, 0, 1},
		{1, 2, DirSend, 0, 7},
		{2047, 2047, DirRecv, 255, (1 << 33) - 1},
		{512, 3, DirRecv, 17, 1 << 20},
	}
	for _, c := range cases {
		id := PackSpanID(c.node, c.peer, c.dir, c.aux, c.msgID)
		if SpanNode(id) != c.node || SpanPeer(id) != c.peer ||
			SpanDir(id) != c.dir || uint8(id>>spanAuxShift&spanAuxMask) != c.aux || SpanMsgID(id) != c.msgID {
			t.Fatalf("pack(%+v) = %#x, unpacked to node=%d peer=%d dir=%d msg=%d",
				c, id, SpanNode(id), SpanPeer(id), SpanDir(id), SpanMsgID(id))
		}
	}
	// Sender's id (node=src, peer=dst, send) and receiver's id
	// (node=dst, peer=src, recv) — same message, same key; aux (chunk
	// index) never changes the key.
	send := PackSpanID(4, 9, DirSend, 0, 33)
	recv := PackSpanID(9, 4, DirRecv, 5, 33)
	if SpanMsgKey(send) != SpanMsgKey(recv) {
		t.Fatalf("send key %#x != recv key %#x for one message", SpanMsgKey(send), SpanMsgKey(recv))
	}
	other := PackSpanID(4, 9, DirSend, 0, 34)
	if SpanMsgKey(send) == SpanMsgKey(other) {
		t.Fatal("distinct msg ids collapsed to one key")
	}
}

// TestRecordAtAndNow covers the explicit-timestamp append and the clock
// accessor protocol instrumentation rides (retroactive span begins use
// a Now() captured at post time).
func TestRecordAtAndNow(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Now() != 0 {
		t.Fatal("nil recorder Now() must be 0")
	}
	r := New(2, 8, fixedClock(100))
	if ts := r.Now(); ts != 101 {
		t.Fatalf("Now() = %d, want 101", ts)
	}
	r.RecordAt(1, EvRecvBegin, 5, 6, 42) // backdated vs the clock
	r.Record(1, EvRecvEnd, 5, 0)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if evs[0].TS != 42 || evs[0].Kind != EvRecvBegin {
		t.Fatalf("backdated event sorted as %+v, want recv begin at 42", evs[0])
	}
	nilRec.RecordAt(0, EvRecvBegin, 1, 2, 3) // must not panic
}

// TestMarkEventsSince covers per-scenario slicing on a shared recorder.
func TestMarkEventsSince(t *testing.T) {
	r := New(2, 64, fixedClock(0))
	r.Record(0, EvTaskRun, 1, 0)
	m := r.Mark()
	r.Record(0, EvTaskRun, 2, 0)
	r.Record(1, EvTaskRun, 3, 0)
	since := r.EventsSince(m)
	if len(since) != 2 || since[0].A != 2 || since[1].A != 3 {
		t.Fatalf("EventsSince = %+v, want the two post-mark events", since)
	}
	if all := r.Events(); len(all) != 3 {
		t.Fatalf("full drain has %d events, want 3", len(all))
	}
	var nilRec *Recorder
	if nilRec.Mark() != nil || nilRec.EventsSince(nil) != nil {
		t.Fatal("nil recorder Mark/EventsSince must be empty")
	}
}

// TestRingStats checks the loss-visibility counters: Recorded counts
// every append, Dropped stays 0 until the ring wraps and then equals
// the overwritten count.
func TestRingStats(t *testing.T) {
	const capacity = 64
	r := New(2, capacity, fixedClock(0))
	for i := 0; i < 10; i++ {
		r.Record(0, EvTaskRun, uint64(i), 0)
	}
	st := r.RingStats()
	if len(st) != 2 {
		t.Fatalf("RingStats has %d rings, want 2", len(st))
	}
	if st[0].Recorded != 10 || st[0].Dropped != 0 {
		t.Fatalf("ring 0 = %+v, want 10 recorded, 0 dropped", st[0])
	}
	if st[1].Recorded != 0 || st[1].Dropped != 0 {
		t.Fatalf("ring 1 = %+v, want untouched", st[1])
	}
	for i := 0; i < capacity*2; i++ {
		r.Record(1, EvTaskRun, uint64(i), 0)
	}
	st = r.RingStats()
	if st[1].Recorded != capacity*2 || st[1].Dropped != capacity {
		t.Fatalf("wrapped ring 1 = %+v, want %d recorded, %d dropped", st[1], capacity*2, capacity)
	}
}

// TestRecordSpanAllocs is the enabled-path allocation contract: a span
// append (and the explicit-timestamp variant) must not allocate.
func TestRecordSpanAllocs(t *testing.T) {
	r := New(4, 1<<12, func() int64 { return 1 })
	sid := PackSpanID(1, 2, DirSend, 0, 7)
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(0, EvSendBegin, sid, 100)
	}); n != 0 {
		t.Fatalf("Record allocates %v per span append, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		r.RecordAt(1, EvChunkBegin, sid, 64, 5)
	}); n != 0 {
		t.Fatalf("RecordAt allocates %v per span append, want 0", n)
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

// BenchmarkRecord prices one enabled-path event append; the disabled
// path is a nil check on the engine field and is priced by the
// scheduler guard benchmarks staying within their 5% band.
func BenchmarkRecord(b *testing.B) {
	clock := func() int64 { return 1 }
	r := New(4, 1<<12, clock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(i, EvTaskRun, uint64(i), 0)
	}
}
