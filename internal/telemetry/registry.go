package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Labels attach dimensions to a metric. The map is read once at
// registration; recording against the returned handle never touches it.
type Labels map[string]string

// labelPair is one canonicalised (sorted) label.
type labelPair struct {
	key, value string
}

// metric is one registered time series: a handle plus its identity.
type metric struct {
	labels []labelPair
	sig    string // canonical label signature, the intra-family sort key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name, help string
	typ        MetricType
	bySig      map[string]*metric
}

// Registry is a named collection of metrics. Handles are get-or-create:
// asking for the same (name, labels) twice returns the same Counter/Gauge/
// Histogram, so callers may resolve handles lazily without double counting.
// All methods are safe for concurrent use; the hot path is recording
// against the returned handles, not registration.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter returns the counter registered under name with the given labels,
// creating it on first use. It panics if name is already registered with a
// different type — a programming error, caught at wiring time.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.metric(name, help, TypeCounter, labels, nil)
	return m.c
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	m := r.metric(name, help, TypeGauge, labels, nil)
	return m.g
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the given bounds on first use. Later calls for
// an existing series ignore bounds (the first registration wins), but every
// series of one family shares the first registration's bounds.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	m := r.metric(name, help, TypeHistogram, labels, bounds)
	return m.h
}

// metric resolves (name, labels) to its series. A lookup of an existing
// series only canonicalises the labels into stack buffers and reads two
// maps; the name and label checks run when a family or series is created,
// the only time an invalid one could enter the registry.
func (r *Registry) metric(name, help string, typ MetricType, labels Labels, bounds []float64) *metric {
	var pairBuf [8]labelPair
	pairs := sortedPairs(pairBuf[:0], labels)
	var sigBuf [128]byte
	sig := appendSig(sigBuf[:0], pairs)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if !nameRe.MatchString(name) {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
		f = &family{name: name, help: help, typ: typ, bySig: make(map[string]*metric)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if m := f.bySig[string(sig)]; m != nil {
		return m
	}
	for _, p := range pairs {
		if !labelRe.MatchString(p.key) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", p.key, name))
		}
	}
	m := &metric{labels: append([]labelPair(nil), pairs...), sig: string(sig)}
	switch typ {
	case TypeCounter:
		m.c = &Counter{}
	case TypeGauge:
		m.g = &Gauge{}
	case TypeHistogram:
		// Every series of a family shares the family's bucket layout so
		// the exposition stays comparable across label values.
		if existing := f.anyHistogram(); existing != nil {
			bounds = existing.Bounds()
		}
		m.h = NewHistogram(bounds)
	}
	f.bySig[m.sig] = m
	return m
}

// sortedPairs appends labels to dst sorted by key. Label sets are small,
// so an insertion sort does, without sort.Slice's allocations.
func sortedPairs(dst []labelPair, labels Labels) []labelPair {
	for k, v := range labels {
		dst = append(dst, labelPair{key: k, value: v})
		for i := len(dst) - 1; i > 0 && dst[i].key < dst[i-1].key; i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// appendSig appends the canonical signature of sorted label pairs: each
// key and value closed by a separator byte no label name contains.
func appendSig(dst []byte, pairs []labelPair) []byte {
	for _, p := range pairs {
		dst = append(dst, p.key...)
		dst = append(dst, 1)
		dst = append(dst, p.value...)
		dst = append(dst, 2)
	}
	return dst
}

func (f *family) anyHistogram() *Histogram {
	for _, m := range f.bySig {
		return m.h
	}
	return nil
}

// familyView is an immutable snapshot of a family's structure taken under
// the registry lock; the metric handles it points at stay live (their
// values are atomic), only the maps are copied.
type familyView struct {
	name, help string
	typ        MetricType
	metrics    []*metric
}

// view returns the families in name order, each with its metrics in
// label-signature order — the stable ordering both exposition formats rely
// on (and the golden test pins down). The structure is copied under the
// lock so exposition is safe against concurrent registration.
func (r *Registry) view() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		ms := make([]*metric, 0, len(f.bySig))
		for _, m := range f.bySig {
			ms = append(ms, m)
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].sig < ms[j].sig })
		fams = append(fams, familyView{name: f.name, help: f.help, typ: f.typ, metrics: ms})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
