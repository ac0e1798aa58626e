package core

// Flat-state segmentation shared by the model variants. Every solver
// flattens its service-time vectors into one []float64 for the fixed-point
// driver; seg/vecBuilder are the single copy of that bookkeeping (the
// per-variant flatten/unflatten and index-arithmetic code they replace).

// seg is a contiguous segment of a flattened fixed-point vector holding a
// 1-indexed quantity (logical positions 1..n).
type seg struct{ off, n int }

// vecBuilder allocates disjoint segments of one flat vector; Size() after
// all seg calls is the solver's StateSize.
type vecBuilder struct{ size int }

func (b *vecBuilder) seg(n int) seg {
	if n < 0 {
		n = 0
	}
	s := seg{off: b.size, n: n}
	b.size += n
	return s
}

func (b *vecBuilder) Size() int { return b.size }

// buf returns a fresh buffer for the segment's 1-indexed view.
func (s seg) buf() []float64 { return make([]float64, s.n+1) }

// unpack copies the segment into dst's 1-indexed positions 1..n (dst[0]
// is unused), the shape the service-time recursions are written in. dst
// comes from buf: solvers build one per segment at Prepare, so a round
// unpacks its input without allocating.
func (s seg) unpack(x, dst []float64) { copy(dst[1:], x[s.off:s.off+s.n]) }

// put stores v at the segment's 1-indexed position j.
func (s seg) put(x []float64, j int, v float64) { x[s.off+j-1] = v }

// at reads the segment's 1-indexed position j.
func (s seg) at(x []float64, j int) float64 { return x[s.off+j-1] }
