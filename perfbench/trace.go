package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRecord is one finished span of the traced run, as written to the
// JSONL file. Spans of one operation share a trace id; times are
// nanoseconds since the recorder started.
type spanRecord struct {
	Trace    uint64 `json:"trace_id"`
	ID       uint64 `json:"span_id"`
	Parent   uint64 `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	Duration int64  `json:"duration_ns"`
	// Attr distinguishes spans of one name, such as the model variant of
	// a core.solve span.
	Attr string `json:"attr,omitempty"`
}

// recorder keeps the spans of the traced run in memory. A nil recorder
// records nothing, so the untraced replay runs the same code.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	next  uint64
	spans []spanRecord
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// span is an open span; end records it.
type span struct {
	r     *recorder
	rec   spanRecord
	start time.Time
}

// root opens the span of one operation, under a trace of its own.
func (r *recorder) root(name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &span{r: r, rec: spanRecord{Trace: id, ID: id, Name: name}, start: time.Now()}
}

// child opens a span under s.
func (s *span) child(name, attr string) *span {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	s.r.next++
	id := s.r.next
	s.r.mu.Unlock()
	return &span{r: s.r, rec: spanRecord{Trace: s.rec.Trace, ID: id, Parent: s.rec.ID, Name: name, Attr: attr},
		start: time.Now()}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.rec.Start = s.start.Sub(s.r.base).Nanoseconds()
	s.rec.Duration = d.Nanoseconds()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
	return d
}

// durations returns the durations in milliseconds of the spans with the
// given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.Duration)/1e6)
		}
	}
	return out
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	children := map[uint64][]spanRecord{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.Duration - covered(s, children[s.ID]))
	}
	return out
}

// printSelfTimes reports each span name's total self time, by name.
func (r *recorder) printSelfTimes(w io.Writer) {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "self time: %-18s %12.3f ms\n", name, ms(self[name]))
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent spanRecord, kids []spanRecord) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	pEnd := parent.Start + parent.Duration
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.Start+k.Duration, pEnd)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	return total + cur.hi - cur.lo
}

// writeJSONL writes every recorded span to path, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
