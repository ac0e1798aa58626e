package span

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// tracer returns a deterministic tracer exporting into a fresh ring.
func tracer(t *testing.T, cfg Config) (*Tracer, *RingExporter) {
	t.Helper()
	ring := NewRingExporter(0, nil)
	if cfg.Exporter == nil {
		cfg.Exporter = ring
	} else {
		ring = nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return New(cfg), ring
}

// TestTraceSpanListSizedOnce: a trace sizes its span list to the span
// count of the tracer's last finished trace, so a trace of the same shape
// allocates its list once, and the ring keeps it without a clipping copy:
// its allocations grow with its span count by exactly the spans' own.
func TestTraceSpanListSizedOnce(t *testing.T) {
	tr, _ := tracer(t, Config{Exporter: NewRingExporter(1, nil)})
	allocs := func(children int) int {
		run := func() {
			ctx, root := tr.Start(context.Background(), "root")
			root.Keep("test")
			for range children {
				_, sp := tr.Start(ctx, "child")
				sp.End()
			}
			root.End()
		}
		run() // the tracer learns the shape
		return int(testing.AllocsPerRun(20, run))
	}
	perSpan := allocs(41) - allocs(40)
	if got, want := allocs(80)-allocs(40), 40*perSpan; got != want {
		t.Errorf("40 more spans cost %v allocations, want %v (%v per span)", got, want, perSpan)
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, root := tr.Start(context.Background(), "http POST /v1/solve", String("http.method", "POST"))
	ctx2, child := tr.Start(ctx, "solve")
	_, grand := tr.Start(ctx2, "fixpoint.solve")
	grand.SetAttr("iterations", int64(17))
	grand.Round(1, 0.5, false)
	grand.End()
	child.End()
	root.SetAttr("http.status", int64(200))
	root.End()

	recs := ring.Trace(root.TraceID())
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Records accumulate in end order: grandchild, child, root.
	g, c, r := recs[0], recs[1], recs[2]
	if r.ParentID != "" || r.Name != "http POST /v1/solve" {
		t.Fatalf("root record wrong: %+v", r)
	}
	if c.ParentID != r.SpanID {
		t.Fatalf("child parent %q != root span %q", c.ParentID, r.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Fatalf("grandchild parent %q != child span %q", g.ParentID, c.SpanID)
	}
	for _, rec := range recs {
		if rec.TraceID != root.TraceID().String() {
			t.Fatalf("trace id mismatch: %q vs %q", rec.TraceID, root.TraceID())
		}
	}
	if g.Attrs["iterations"] != int64(17) {
		t.Fatalf("grandchild attrs = %v", g.Attrs)
	}
	if len(g.Rounds) != 1 || g.Rounds[0].Iteration != 1 || math.Float64bits(g.Rounds[0].MaxRelDelta) != math.Float64bits(0.5) {
		t.Fatalf("grandchild rounds = %+v", g.Rounds)
	}
	if r.Attrs["tail.keep"] == nil {
		t.Fatalf("root not stamped with tail.keep: %v", r.Attrs)
	}
}

func TestRemoteParentAdopted(t *testing.T) {
	tr, ring := tracer(t, Config{})
	p, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithParent(context.Background(), p)
	_, root := tr.Start(ctx, "http GET /healthz")
	root.End()

	if got := root.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %q did not adopt caller's", got)
	}
	recs := ring.Trace(p.TraceID)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].ParentID != "00f067aa0ba902b7" || !recs[0].RemoteParent {
		t.Fatalf("root record did not keep remote parent: %+v", recs[0])
	}
}

func TestStartLinkedFreshTraceWithLink(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, req := tr.Start(context.Background(), "http POST /v1/sweeps")
	_, job := tr.StartLinked(context.Background(), "sweep.job",
		Parent{TraceID: req.TraceID(), SpanID: req.SpanID()})
	if job.TraceID() == req.TraceID() {
		t.Fatal("linked job must start a fresh trace")
	}
	job.End()
	req.End()
	_ = ctx

	recs := ring.Trace(job.TraceID())
	if len(recs) != 1 {
		t.Fatalf("got %d job records, want 1", len(recs))
	}
	if recs[0].Attrs["link.trace_id"] != req.TraceID().String() {
		t.Fatalf("job link attrs = %v, want trace %s", recs[0].Attrs, req.TraceID())
	}
	if recs[0].Attrs["link.span_id"] != req.SpanID().String() {
		t.Fatalf("job link span = %v, want %s", recs[0].Attrs, req.SpanID())
	}
}

func TestStartChildWithoutTracerIsNil(t *testing.T) {
	ctx, sp := StartChild(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("StartChild without an upstream span must return nil")
	}
	// The full nil-safe surface must not panic.
	sp.SetAttr("k", 1)
	sp.Round(1, 0.5, false)
	sp.Keep("r")
	sp.End()
	if got := sp.TraceID(); !got.IsZero() {
		t.Fatalf("nil span trace id = %v", got)
	}
	if _, ok := sp.AttrValue("k"); ok {
		t.Fatal("nil span must report no attrs")
	}
	if sp2 := FromContext(ctx); sp2 != nil {
		t.Fatal("context must not gain a span")
	}

	var nilTracer *Tracer
	_, sp3 := nilTracer.Start(context.Background(), "x")
	if sp3 != nil {
		t.Fatal("nil tracer must start nil spans")
	}
}

func TestKeepOverridesDrop(t *testing.T) {
	tr, ring := tracer(t, Config{Tail: TailPolicy{KeepRatio: -1, SlowThreshold: -1}})
	_, dropped := tr.Start(context.Background(), "drop-me")
	dropped.End()
	if got := ring.Len(); got != 0 {
		t.Fatalf("dropped trace was exported (%d retained)", got)
	}

	_, kept := tr.Start(context.Background(), "keep-me")
	kept.Keep("saturated")
	kept.End()
	recs := ring.Trace(kept.TraceID())
	if len(recs) != 1 {
		t.Fatalf("kept trace not exported: %d records", len(recs))
	}
	if recs[0].Attrs["tail.keep"] != "saturated" {
		t.Fatalf("tail.keep = %v, want saturated", recs[0].Attrs["tail.keep"])
	}
}

func TestEventBound(t *testing.T) {
	tr, ring := tracer(t, Config{MaxEventsPerSpan: 3})
	_, sp := tr.Start(context.Background(), "bounded")
	for i := 0; i < 10; i++ {
		sp.Round(i+1, 0, false)
	}
	sp.End()
	recs := ring.Trace(sp.TraceID())
	if len(recs) != 1 || len(recs[0].Rounds) != 3 || recs[0].Rounds[2].Iteration != 3 ||
		recs[0].DroppedEvents != 7 {
		t.Fatalf("bounded span = %+v", recs[0])
	}
}

func TestEndIdempotentAndLateChildDropped(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, root := tr.Start(context.Background(), "root")
	_, child := tr.Start(ctx, "late")
	root.End()
	root.End() // idempotent
	child.End()

	recs := ring.Trace(root.TraceID())
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (late child dropped)", len(recs))
	}
}

func TestDeterministicIDs(t *testing.T) {
	a := New(Config{Seed: 7})
	b := New(Config{Seed: 7})
	_, sa := a.Start(context.Background(), "x")
	_, sb := b.Start(context.Background(), "x")
	if sa.TraceID() != sb.TraceID() || sa.SpanID() != sb.SpanID() {
		t.Fatalf("same seed produced different ids: %v/%v vs %v/%v",
			sa.TraceID(), sa.SpanID(), sb.TraceID(), sb.SpanID())
	}
	_, sa2 := a.Start(context.Background(), "y")
	if sa2.TraceID() == sa.TraceID() {
		t.Fatal("consecutive traces must get distinct ids")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ring := NewRingExporter(8, &buf)
	tr := New(Config{Exporter: ring, Seed: 42})
	ctx, root := tr.Start(context.Background(), "http POST /v1/solve")
	_, child := tr.Start(ctx, "solve", String("cache", "miss"))
	child.Round(1, 0.25, true)
	child.End()
	root.End()
	if err := ring.Err(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round-tripped %d records, want 2", len(got))
	}
	if got[0].Name != "solve" || got[0].Attrs["cache"] != "miss" {
		t.Fatalf("child record = %+v", got[0])
	}
	if len(got[0].Rounds) != 1 || got[0].Rounds[0].Iteration != 1 ||
		math.Float64bits(got[0].Rounds[0].MaxRelDelta) != math.Float64bits(0.25) || !got[0].Rounds[0].Accelerated {
		t.Fatalf("child rounds = %+v", got[0].Rounds)
	}
	if got[1].Name != "http POST /v1/solve" || got[1].ParentID != "" {
		t.Fatalf("root record = %+v", got[1])
	}
	if got[0].TraceID != got[1].TraceID {
		t.Fatal("trace ids diverged across the round trip")
	}
}

func TestRingEviction(t *testing.T) {
	ring := NewRingExporter(2, nil)
	tr := New(Config{Exporter: ring, Seed: 1})
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, sp := tr.Start(context.Background(), "r")
		sp.End()
		ids = append(ids, sp.TraceID())
	}
	if ring.Len() != 2 {
		t.Fatalf("ring retained %d traces, want 2", ring.Len())
	}
	if ring.Trace(ids[0]) != nil {
		t.Fatal("oldest trace must be evicted")
	}
	if ring.Trace(ids[1]) == nil || ring.Trace(ids[2]) == nil {
		t.Fatal("recent traces must be retained")
	}
}

func TestSetAttrOverwritesAndAttrValue(t *testing.T) {
	tr, _ := tracer(t, Config{})
	_, sp := tr.Start(context.Background(), "x", String("cache", "miss"))
	sp.SetAttr("cache", "hit")
	if v, ok := sp.AttrValue("cache"); !ok || v != "hit" {
		t.Fatalf("AttrValue = %v, %v", v, ok)
	}
	sp.End()
}

func TestTraceparentParseFormat(t *testing.T) {
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	p, err := ParseTraceparent(good)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sampled {
		t.Fatal("flags 01 must parse as sampled")
	}
	if got := FormatTraceparent(p); got != good {
		t.Fatalf("round trip = %q, want %q", got, good)
	}
	if got := FormatTraceparent(Parent{}); got != "" {
		t.Fatalf("zero parent formatted as %q", got)
	}

	bad := []string{
		"",
		"00-xyz-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	}
	for _, v := range bad {
		if _, err := ParseTraceparent(v); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
	// Unknown (non-ff) versions with trailing fields are accepted.
	if _, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

func TestConcurrentSpansOneTrace(t *testing.T) {
	tr, ring := tracer(t, Config{})
	ctx, root := tr.Start(context.Background(), "root")
	done := make(chan struct{})
	const workers = 8
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			_, sp := tr.Start(ctx, "worker", Int("i", i))
			sp.Round(i, 0, false)
			sp.End()
		}(i)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	root.End()
	recs := ring.Trace(root.TraceID())
	if len(recs) != workers+1 {
		t.Fatalf("got %d records, want %d", len(recs), workers+1)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.SpanID] {
			t.Fatalf("duplicate span id %s", r.SpanID)
		}
		seen[r.SpanID] = true
	}
}

func TestIDStringForms(t *testing.T) {
	tid, err := ParseTraceID(strings.Repeat("ab", 16))
	if err != nil {
		t.Fatal(err)
	}
	if tid.String() != strings.Repeat("ab", 16) {
		t.Fatalf("trace id round trip = %q", tid.String())
	}
	if _, err := ParseTraceID("short"); err == nil {
		t.Fatal("short trace id accepted")
	}
	sid, err := ParseSpanID(strings.Repeat("cd", 8))
	if err != nil {
		t.Fatal(err)
	}
	if sid.String() != strings.Repeat("cd", 8) {
		t.Fatalf("span id round trip = %q", sid.String())
	}
	if _, err := ParseSpanID(strings.Repeat("zz", 8)); err == nil {
		t.Fatal("non-hex span id accepted")
	}
}

func TestSlowRootKept(t *testing.T) {
	ring := NewRingExporter(4, nil)
	tr := New(Config{
		Exporter: ring,
		Seed:     42,
		Tail:     TailPolicy{SlowThreshold: time.Nanosecond, KeepRatio: -1},
	})
	_, sp := tr.Start(context.Background(), "slow")
	time.Sleep(time.Millisecond)
	sp.End()
	recs := ring.Trace(sp.TraceID())
	if len(recs) != 1 || recs[0].Attrs["tail.keep"] != "slow" {
		t.Fatalf("slow trace not kept as slow: %+v", recs)
	}
}
