package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// epoch is the zero of the benchmark's clock. The traced pass stamps
// the engines' flight recorder and the benchmark's own spans on this
// one monotonic clock, so the two files line up in a viewer.
var epoch = time.Now()

// now returns monotonic nanoseconds since the benchmark started.
func now() int64 { return int64(time.Since(epoch)) }

// span is one call the benchmark made into the program, or the
// operation that call belongs to. Calls made by the peer's serving
// goroutines are named with a "peer:" prefix, which keeps them out of
// the load side's call-time figures.
type span struct {
	name   string
	parent int32 // index of the enclosing span in the same log, -1 for an operation
	op     uint64
	start  int64
	end    int64
}

// spanLog holds the spans of one goroutine. It is filled only during
// the traced pass; a nil log records nothing, so the untraced loops
// pay one nil check per call.
type spanLog struct {
	who     string
	spans   []span
	dropped int
}

// begin opens a span and returns its index, or -1 when nothing is
// recorded.
func (l *spanLog) begin(name string, parent int32, op uint64) int32 {
	if l == nil {
		return -1
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, op: op, start: now()})
	return int32(len(l.spans) - 1)
}

// end closes the span begin returned.
func (l *spanLog) end(i int32) {
	if i >= 0 {
		l.spans[i].end = now()
	}
}

// spanSet is the traced pass's collection of span logs, one per
// goroutine that calls into the program.
type spanSet struct {
	mu     sync.Mutex
	perLog int
	logs   []*spanLog
}

// newSpanSet sizes every log for perLog spans: the logs are allocated
// before the pass so that recording never allocates inside it.
func newSpanSet(perLog int) *spanSet { return &spanSet{perLog: perLog} }

// log returns a fresh log for the calling goroutine; nil when the pass
// is untraced.
func (s *spanSet) log(who string) *spanLog {
	if s == nil {
		return nil
	}
	l := &spanLog{who: who, spans: make([]span, 0, s.perLog)}
	s.mu.Lock()
	s.logs = append(s.logs, l)
	s.mu.Unlock()
	return l
}

// p50 returns the median duration in nanoseconds of the closed spans
// called name that started at or after since, and how many there were.
func (s *spanSet) p50(name string, since int64) (float64, int) {
	if s == nil {
		return 0, 0
	}
	var d []int64
	for _, l := range s.logs {
		for i := range l.spans {
			sp := &l.spans[i]
			if sp.name == name && sp.start >= since && sp.end > 0 {
				d = append(d, sp.end-sp.start)
			}
		}
	}
	if len(d) == 0 {
		return 0, 0
	}
	slices.Sort(d)
	return float64(quantile(d, 0.50)), len(d)
}

// write renders the logs as chrome://tracing complete events, one
// thread per goroutine, with each span's operation and parent in args.
func (s *spanSet) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for tid, l := range s.logs {
		fmt.Fprintf(w, "%s\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			sep(&first), tid, l.who)
		for i := range l.spans {
			sp := &l.spans[i]
			if sp.end == 0 {
				continue
			}
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"id":%d,"parent":%d}}`,
				sp.name, tid, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.op, i, sp.parent)
		}
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sep(first *bool) string {
	if *first {
		*first = false
		return ""
	}
	return ","
}

// dropped counts spans the logs had no room for.
func (s *spanSet) dropped() int {
	n := 0
	for _, l := range s.logs {
		n += l.dropped
	}
	return n
}
