package core

// Flat-state segmentation shared by the model variants. Every solver
// flattens its service-time vectors into one []float64 for the fixed-point
// driver; seg/vecBuilder are the single copy of that bookkeeping (the
// per-variant flatten/unflatten and index-arithmetic code they replace).
// A model reads and writes its state in place, through at and put.

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

// put stores v at the segment's 1-indexed position j.
func (s seg) put(x []float64, j int, v float64) { x[s.off+j-1] = v }

// at reads the segment's 1-indexed position j.
func (s seg) at(x []float64, j int) float64 { return x[s.off+j-1] }
