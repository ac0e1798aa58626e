package span

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"kncube/internal/telemetry"
)

// Record is the exported (JSONL) form of one finished span: flat JSON, one
// record per line, snake_case keys, times as integer nanoseconds so
// records are stable under re-encoding.
type Record struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// RemoteParent marks a root whose parent id came from an inbound
	// traceparent header rather than a local span.
	RemoteParent bool   `json:"remote_parent,omitempty"`
	Name         string `json:"name"`
	Start        int64  `json:"start_unix_nano"`
	Duration     int64  `json:"duration_nano"`
	// Attrs holds span attributes. Numeric values decode as json.Number
	// kinds (float64) after a round-trip; tests compare via fmt rendering.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Rounds are the span's fixed-point round events, exported under the
	// generic "events" key.
	Rounds        []Round `json:"events,omitempty"`
	DroppedEvents int     `json:"dropped_events,omitempty"`
}

// Round is one fixed-point substitution round of a fixpoint.solve span,
// the only span event kind. It holds no pointers, so a span's rounds slice
// is never scanned by the garbage collector (TestRoundHoldsNoPointers).
type Round struct {
	// OffsetNano is the time of the round in nanoseconds from the span
	// start.
	OffsetNano  int64
	Iteration   int64
	MaxRelDelta float64
	Accelerated bool
}

// roundWire is a Round's JSON form: a "round" event with an attrs object.
// The attrs fields are declared in sorted key order, so the bytes match an
// attrs map encoded by encoding/json (testdata/fixpoint_solve.jsonl pins
// them).
type roundWire struct {
	Name       string     `json:"name"`
	OffsetNano int64      `json:"offset_nano"`
	Attrs      roundAttrs `json:"attrs"`
}

type roundAttrs struct {
	Accelerated bool    `json:"accelerated"`
	Iteration   int64   `json:"iteration"`
	MaxRelDelta float64 `json:"max_rel_delta"`
}

// roundEventName is the event name every exported round carries.
const roundEventName = "round"

// MarshalJSON encodes r as a "round" event.
func (r Round) MarshalJSON() ([]byte, error) {
	return json.Marshal(roundWire{
		Name:       roundEventName,
		OffsetNano: r.OffsetNano,
		Attrs:      roundAttrs{Accelerated: r.Accelerated, Iteration: r.Iteration, MaxRelDelta: r.MaxRelDelta},
	})
}

// UnmarshalJSON decodes a "round" event; an event of any other name is an
// error, not silently dropped.
func (r *Round) UnmarshalJSON(b []byte) error {
	var w roundWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Name != roundEventName {
		return fmt.Errorf("span: event %q is not a %q event", w.Name, roundEventName)
	}
	*r = Round{
		OffsetNano:  w.OffsetNano,
		Iteration:   w.Attrs.Iteration,
		MaxRelDelta: w.Attrs.MaxRelDelta,
		Accelerated: w.Attrs.Accelerated,
	}
	return nil
}

// RingExporter retains the most recent kept traces in memory (FIFO over
// distinct trace ids) for the GET /v1/traces/{id} debug endpoint, and
// optionally tees every kept trace to a JSONL stream (one Record per
// line). Traces are retained in their compact ended form; Records are
// rendered only for the tee and by Trace.
type RingExporter struct {
	mu   sync.Mutex
	byID map[TraceID][]ended
	// order holds the retained ids in a circular buffer of the ring's
	// capacity; next is the slot of the next id, which holds the oldest
	// retained id once the ring is full.
	order []TraceID
	next  int
	enc   *json.Encoder
	err   error
}

// defaultRingCapacity bounds retained traces when capacity <= 0.
const defaultRingCapacity = 256

// NewRingExporter builds an exporter retaining up to capacity distinct
// traces (<= 0 means 256). A non-nil w additionally receives every kept
// trace as JSONL; write errors are sticky and reported by Err.
func NewRingExporter(capacity int, w io.Writer) *RingExporter {
	if capacity <= 0 {
		capacity = defaultRingCapacity
	}
	e := &RingExporter{
		byID:  make(map[TraceID][]ended, capacity),
		order: make([]TraceID, capacity),
	}
	if w != nil {
		e.enc = json.NewEncoder(w)
	}
	return e
}

// export retains a kept trace (its spans in end order, root last) and tees
// it to the JSONL stream, evicting the oldest retained trace beyond
// capacity. It runs on the goroutine that ended the root span.
func (e *RingExporter) export(id TraceID, spans []ended) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.byID[id]; !ok {
		if len(e.byID) == len(e.order) {
			delete(e.byID, e.order[e.next])
		}
		e.order[e.next] = id
		e.next = (e.next + 1) % len(e.order)
	}
	e.byID[id] = spans
	if e.enc != nil && e.err == nil {
		for i := range spans {
			rec := spans[i].record(id)
			if err := e.enc.Encode(&rec); err != nil {
				e.err = err
				break
			}
		}
	}
}

// Trace renders the retained spans of one trace id as Records, root last
// (nil if evicted or never kept). The Records share the retained rounds;
// callers must not mutate them.
func (e *RingExporter) Trace(id TraceID) []Record {
	e.mu.Lock()
	spans := e.byID[id]
	e.mu.Unlock()
	if spans == nil {
		return nil
	}
	recs := make([]Record, len(spans))
	for i := range spans {
		recs[i] = spans[i].record(id)
	}
	return recs
}

// Len reports the number of retained traces (tests).
func (e *RingExporter) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.byID)
}

// Err reports the first JSONL write error, if any.
func (e *RingExporter) Err() error {
	// The hot-path audit reaches this method through a false
	// class-hierarchy edge: fixpoint.Solve calls ctx.Err() through the
	// context.Context interface, and per-method resolution matches every
	// Err() error in the load set. A RingExporter is never a solver's ctx.
	//lint:ignore hotblock name/signature collision with context.Context.Err, not actually reachable from the solver
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// ReadRecords decodes an exported span JSONL stream (the inverse of the
// RingExporter tee), reusing the shared telemetry JSONL reader.
func ReadRecords(r io.Reader) ([]Record, error) {
	return telemetry.ReadJSONL[Record](r)
}

// StartFile begins the one-root trace of a command-line run (-span-out):
// ctx gains a root span named name, and finish ends it and writes the
// run's spans to path (created or truncated) as JSONL. maxEvents is
// Config.MaxEventsPerSpan, the round budget so no round is dropped. With
// path "" it returns ctx unchanged and a no-op finish.
func StartFile(ctx context.Context, path, name string, maxEvents int) (_ context.Context, finish func() error, _ error) {
	if path == "" {
		return ctx, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return ctx, nil, err
	}
	exp := NewRingExporter(1, f)
	ctx, root := New(Config{Exporter: exp, MaxEventsPerSpan: maxEvents}).Start(ctx, name)
	return ctx, func() error {
		root.End()
		return errors.Join(exp.Err(), f.Close())
	}, nil
}
