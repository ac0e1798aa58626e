// Package span is the request-tracing half of the observability layer
// (DESIGN.md §11): explicit span trees with start/end times, attributes and
// bounded fixed-point round events, W3C traceparent propagation,
// tail-based sampling, and a ring-buffered JSONL exporter — dependency-free
// like the rest of internal/telemetry. Where the metrics registry
// (DESIGN.md §7) answers "how much", spans answer "why was this request
// slow": one trace ties a khs-serve request to its admission wait, cache
// outcome, solver preparation and fixed-point rounds, and an async sweep
// job's per-(panel, λ, rep) simulation spans link back to the request that
// launched them.
//
// The design is deliberately head-samples-everything: every request is
// recorded, and the tail policy decides at trace completion which finished
// trees are worth exporting (slow, errored, or explicitly marked via
// (*Span).Keep — e.g. saturated solves and cache-miss leaders). Code that
// runs without a tracer in its context pays nothing: StartChild returns a
// nil *Span, every method is nil-safe, and — critically for the hot-path
// contract — no fixpoint trace callback is installed at all, so a disabled
// or sampled-out solve executes the exact baseline instruction stream.
package span

import (
	"context"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id shared by every span of one trace.
type TraceID [16]byte

// SpanID is the 8-byte W3C span id, unique within a trace.
type SpanID [8]byte

// String renders the id as 32 lowercase hex characters.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 16 lowercase hex characters.
func (id SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// ParseTraceID parses 32 hex characters into a TraceID, rejecting the
// all-zero id (invalid per the W3C trace-context spec).
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return id, fmt.Errorf("span: trace id %q is not %d hex characters", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("span: trace id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("span: all-zero trace id is invalid")
	}
	return id, nil
}

// ParseSpanID parses 16 hex characters into a SpanID, rejecting all-zero.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 2*len(id) {
		return id, fmt.Errorf("span: span id %q is not %d hex characters", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("span: span id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("span: all-zero span id is invalid")
	}
	return id, nil
}

// Attr is one key/value attribute on a span. Values should be
// strings, bools, or int/float numbers so the JSONL export round-trips.
type Attr struct {
	Key   string
	Value any
}

// String, Int and Float64 build typed attributes.
func String(key, value string) Attr      { return Attr{Key: key, Value: value} }
func Int(key string, value int) Attr     { return Attr{Key: key, Value: int64(value)} }
func Float64(key string, v float64) Attr { return Attr{Key: key, Value: v} }

// Parent identifies a span context received from (or handed to) another
// process, per the W3C traceparent header.
type Parent struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the recorded flag of the caller's trace context. It is
	// propagated back out verbatim; the tail policy, not the caller's flag,
	// decides local export.
	Sampled bool
}

// IsZero reports whether p carries no usable context.
func (p Parent) IsZero() bool { return p.TraceID.IsZero() || p.SpanID.IsZero() }

// Config tunes a Tracer. The zero value of any field selects the
// documented default.
type Config struct {
	// Exporter retains every trace the tail policy keeps, its spans in end
	// order with the root last. Nil drops all spans (spans are still
	// built, so Keep marks and attributes stay testable).
	Exporter *RingExporter
	// Tail is the keep policy applied when a trace's root span ends.
	Tail TailPolicy
	// MaxEventsPerSpan bounds the round events retained per span; further
	// rounds are counted as dropped. 0 means 128. The bound is what keeps a
	// 10000-round fixed-point solve from inflating one span without limit.
	MaxEventsPerSpan int
	// Seed makes span/trace id generation deterministic (tests, replay).
	// 0 seeds from the wall clock.
	Seed int64
}

// defaultMaxEvents bounds per-span rounds when Config.MaxEventsPerSpan is 0.
const defaultMaxEvents = 128

// Tracer builds spans and runs finished traces through the tail policy and
// exporter. A nil *Tracer is a valid no-op: Start returns a nil span.
type Tracer struct {
	exp       *RingExporter
	tail      TailPolicy
	maxEvents int
	seed      uint64
	seq       atomic.Uint64
	// rounds pools the *[]round buffers, of capacity maxEvents, that
	// FixpointTraces lend their spans (see lendRounds).
	rounds sync.Pool
	// lastSpans is the span count of the most recently finished trace: a
	// new trace sizes its span list to it, so traces of one shape, such
	// as the requests of one workload, fill their list without growing it
	// and hand it to the exporter without a clipping copy.
	lastSpans atomic.Int64
}

// roundBuffer returns an empty rounds buffer of capacity maxEvents, from
// the pool when one is free; its borrower puts it back in t.rounds.
func (t *Tracer) roundBuffer() *[]round {
	if b, ok := t.rounds.Get().(*[]round); ok {
		return b
	}
	b := make([]round, 0, t.maxEvents)
	return &b
}

// New builds a Tracer from cfg (zero fields defaulted).
func New(cfg Config) *Tracer {
	maxEvents := cfg.MaxEventsPerSpan
	if maxEvents == 0 {
		maxEvents = defaultMaxEvents
	}
	seed := uint64(cfg.Seed)
	if cfg.Seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	tail := cfg.Tail
	if tail.Seed == 0 {
		tail.Seed = cfg.Seed
	}
	// Tail is stored raw; Decide normalizes (normalization maps the
	// negative "disabled" sentinels to 0 and is not idempotent).
	return &Tracer{
		exp:       cfg.Exporter,
		tail:      tail,
		maxEvents: maxEvents,
		seed:      seed,
	}
}

// mix64 is the splitmix64 finaliser: a bijective avalanche mix used for id
// generation and the deterministic ratio-sampling hash. It is not a
// general-purpose RNG — ids only need to be unique and well-spread.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID draws the next nonzero 64-bit id from the seeded sequence.
func (t *Tracer) nextID() uint64 {
	for {
		if v := mix64(t.seed + t.seq.Add(1)*0x9e3779b97f4a7c15); v != 0 {
			return v
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	hi, lo := t.nextID(), t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (56 - 8*i))
		id[8+i] = byte(lo >> (56 - 8*i))
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	v := t.nextID()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (56 - 8*i))
	}
	return id
}

// trace is the per-trace collection state shared by all spans of one tree:
// finished spans accumulate here until the root ends, along with the
// tail-keep reasons any span raised.
type trace struct {
	tracer *Tracer
	id     TraceID

	mu       sync.Mutex
	spans    []ended
	keep     []string
	rootDone bool
}

// ended is the retained form of one finished span: ids as arrays and the
// span's own attribute slice. The trace id is held once per trace, by the
// ring. A Record, with hex ids and an attrs map, is rendered from it only
// where bytes leave the process (RingExporter's JSONL tee and Trace).
type ended struct {
	spanID, parentID SpanID
	name             string
	start, duration  int64 // Unix nanoseconds; nanoseconds
	attrs            []Attr
	events           *events // nil when the span recorded no round
	remote           bool
}

// events are the rounds an ended span recorded, clipped to their length,
// and the count of rounds dropped beyond the bound. Only fixpoint.solve
// spans record rounds, so ended holds them behind a pointer rather than
// giving every span a slice header and a count.
type events struct {
	rounds  []round
	dropped int
}

// Span is one timed operation in a trace. All methods are safe on a nil
// receiver (the not-recording case) and for concurrent use.
type Span struct {
	tr       *trace
	name     string
	spanID   SpanID
	parentID SpanID
	remote   bool // parentID came from a traceparent header, not a local span
	isRoot   bool
	start    time.Time

	mu      sync.Mutex
	attrs   []Attr
	rounds  []round
	dropped int
	ended   bool
	// lent marks rounds as a buffer the span records into but does not
	// own (see lendRounds).
	lent bool
}

// ctxKey carries the current *Span; parentKey carries a remote Parent
// extracted from a traceparent header before any local span exists.
type ctxKey struct{}
type parentKey struct{}

// ContextWith returns ctx carrying sp as the current span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, nil when ctx carries none.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ContextWithParent returns ctx carrying a remote parent (from an inbound
// traceparent header); the next Start call roots its trace under it.
func ContextWithParent(ctx context.Context, p Parent) context.Context {
	if p.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, p)
}

// parentFromContext returns the remote parent, if any.
func parentFromContext(ctx context.Context) (Parent, bool) {
	p, ok := ctx.Value(parentKey{}).(Parent)
	return p, ok
}

// Start begins a span under ctx's current span — or, when ctx has none, a
// new trace root adopting a remote Parent if the context carries one. The
// returned context carries the new span for further nesting. A nil tracer
// returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		s := &Span{
			tr:       parent.tr,
			name:     name,
			spanID:   parent.tr.tracer.newSpanID(),
			parentID: parent.spanID,
			start:    time.Now(),
			attrs:    attrs,
		}
		return ContextWith(ctx, s), s
	}
	if p, ok := parentFromContext(ctx); ok {
		s := t.newRoot(p.TraceID, name, attrs)
		s.parentID, s.remote = p.SpanID, true
		return ContextWith(ctx, s), s
	}
	s := t.newRoot(t.newTraceID(), name, attrs)
	return ContextWith(ctx, s), s
}

// newRoot begins a trace's root span under the given trace id.
func (t *Tracer) newRoot(id TraceID, name string, attrs []Attr) *Span {
	return &Span{
		tr:     &trace{tracer: t, id: id, spans: make([]ended, 0, t.lastSpans.Load())},
		name:   name,
		spanID: t.newSpanID(),
		isRoot: true,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// StartLinked begins a fresh trace root that is causally linked to — but
// not part of — another trace: the async-job case, where a sweep outlives
// the HTTP request that launched it. The link is recorded as the
// link.trace_id / link.span_id attributes on the new root.
func (t *Tracer) StartLinked(ctx context.Context, name string, link Parent, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	s := t.newRoot(t.newTraceID(), name, attrs)
	if !link.IsZero() {
		s.attrs = append(s.attrs,
			String("link.trace_id", link.TraceID.String()),
			String("link.span_id", link.SpanID.String()))
	}
	return ContextWith(ctx, s), s
}

// StartChild begins a span under ctx's current span, through that span's
// own tracer. When ctx carries no span it returns (ctx, nil): libraries
// can instrument unconditionally and pay nothing unless a tracer is
// upstream.
func StartChild(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	return parent.tr.tracer.Start(ctx, name, attrs...)
}

// TraceID returns the span's trace id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SpanID returns the span's id (zero for a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// SetAttr sets one attribute, overwriting an existing key. Attributes set
// after End are not recorded: the ended span shares its attribute slice.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AttrValue returns the value of one attribute (the access logger reads
// handler-set attributes like the cache outcome back off the root span).
func (s *Span) AttrValue(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return nil, false
}

// Round appends one fixed-point substitution round, the only span event
// kind, bounded by the tracer's MaxEventsPerSpan; rounds beyond the bound
// are counted, not stored.
func (s *Span) Round(iteration int, maxRelDelta float64, accelerated bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rounds) >= s.tr.tracer.maxEvents {
		s.dropped++
		return
	}
	r := round{offsetNano: time.Since(s.start).Nanoseconds(), maxRelDelta: maxRelDelta, iterAccel: int64(iteration) << 1}
	if accelerated {
		r.iterAccel |= 1
	}
	s.rounds = append(s.rounds, r)
}

// lendRounds hands the span buf, emptied, to record its rounds in. The
// span does not keep it: End copies the rounds out clipped to their
// length, so the owner may lend buf to its next span once this one ended,
// and a buffer sized to the tracer's bound makes the rounds of a span cost
// that one copy.
func (s *Span) lendRounds(buf []round) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.rounds, s.lent = buf[:0], true
	}
}

// round is a Round as a span holds it: 24 bytes rather than 32, the
// accelerated flag packed into the low bit of the iteration index. Like
// Round it holds no pointers.
type round struct {
	offsetNano  int64
	maxRelDelta float64
	iterAccel   int64 // iteration<<1 | accelerated
}

// export renders the round as a Round.
func (r round) export() Round {
	return Round{OffsetNano: r.offsetNano, Iteration: r.iterAccel >> 1,
		MaxRelDelta: r.maxRelDelta, Accelerated: r.iterAccel&1 != 0}
}

// Keep marks the whole trace as must-export, overriding the ratio rule of
// the tail policy (slow and marked traces are always kept). Handlers mark
// saturated solves, 4xx/5xx responses, and cache-miss leaders.
func (s *Span) Keep(reason string) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, r := range tr.keep {
		if r == reason {
			return
		}
	}
	tr.keep = append(tr.keep, reason)
}

// End finishes the span. Ending the root span completes the trace: the
// collected records run through the tail policy and, if kept, the
// exporter. End is idempotent; spans ended after their root are dropped
// (the trace has already shipped).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	e := ended{
		spanID:   s.spanID,
		parentID: s.parentID,
		remote:   s.remote,
		name:     s.name,
		start:    s.start.UnixNano(),
		duration: now.Sub(s.start).Nanoseconds(),
		attrs:    s.attrs,
	}
	if len(s.rounds) > 0 || s.dropped > 0 {
		rounds := s.rounds
		if cap(rounds) > len(rounds) || s.lent {
			// Clipped by a copy: neither the slack nor a lent buffer is
			// retained, and a late Round appends to the span's slice, not
			// this one.
			rounds = slices.Clone(rounds)
		}
		e.events = &events{rounds: rounds, dropped: s.dropped}
	}
	if s.lent {
		s.rounds, s.lent = nil, false
	}
	s.mu.Unlock()

	tr := s.tr
	tr.mu.Lock()
	if tr.rootDone {
		tr.mu.Unlock()
		return
	}
	tr.spans = append(tr.spans, e)
	if !s.isRoot {
		tr.mu.Unlock()
		return
	}
	tr.rootDone = true
	spans, keep := tr.spans, tr.keep
	tr.spans = nil
	tr.mu.Unlock()
	tr.tracer.finish(tr.id, spans, keep)
}

// finish applies the tail policy to a completed trace, whose root is the
// last span, and hands it to the exporter when kept, with the winning keep
// reason appended to the root's attributes as tail.keep.
func (t *Tracer) finish(id TraceID, spans []ended, keep []string) {
	t.lastSpans.Store(int64(len(spans)))
	if t.exp == nil {
		return
	}
	root := &spans[len(spans)-1]
	ok, reason := t.tail.Decide(id, time.Duration(root.duration), keep)
	if !ok {
		return
	}
	root.attrs = append(root.attrs, String("tail.keep", reason))
	// The ring holds the trace until evicted: drop any slack.
	if cap(spans) > len(spans) {
		spans = slices.Clone(spans)
	}
	t.exp.export(id, spans)
}

// record renders the span in its export form under the trace id.
func (e *ended) record(id TraceID) Record {
	rec := Record{
		TraceID:      id.String(),
		SpanID:       e.spanID.String(),
		RemoteParent: e.remote,
		Name:         e.name,
		Start:        e.start,
		Duration:     e.duration,
		Attrs:        attrMap(e.attrs),
	}
	if ev := e.events; ev != nil {
		rec.DroppedEvents = ev.dropped
		if len(ev.rounds) > 0 {
			rec.Rounds = make([]Round, len(ev.rounds))
			for i, r := range ev.rounds {
				rec.Rounds[i] = r.export()
			}
		}
	}
	if !e.parentID.IsZero() {
		rec.ParentID = e.parentID.String()
	}
	return rec
}

// attrMap flattens attributes for export; later keys win, matching
// SetAttr's overwrite semantics for attrs passed at Start.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}
