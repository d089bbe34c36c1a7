package main

import "repro/internal/la"

// tracedMatrix decorates the operand handed to ml.*: every operator call
// becomes a span under parent, named for its operator class (coreOps), so
// an algorithm's span splits into the time inside the operand's rewrites
// and the algorithm's own work on the n×k intermediates. transposed tracks
// T() so that Tᵀ·X is filed under tmul whichever way it was reached.
type tracedMatrix struct {
	m          la.Matrix
	tr         *tracer
	parent     int
	transposed bool
}

// traceOperand wraps m for one algorithm run; with a nil tracer it returns
// m itself, so the untraced pass calls the operand directly.
func traceOperand(m la.Matrix, tr *tracer, parent int) la.Matrix {
	if tr == nil {
		return m
	}
	return &tracedMatrix{m: m, tr: tr, parent: parent}
}

func (t *tracedMatrix) wrap(m la.Matrix, transposed bool) la.Matrix {
	return &tracedMatrix{m: m, tr: t.tr, parent: t.parent, transposed: transposed}
}

func (t *tracedMatrix) timed(op string, f func()) {
	id := t.tr.begin(t.parent, "core."+op)
	f()
	t.tr.end(id)
}

// dir names a product by which side of the original operand it multiplies.
func (t *tracedMatrix) dir(plain, flipped string) string {
	if t.transposed {
		return flipped
	}
	return plain
}

func (t *tracedMatrix) Rows() int    { return t.m.Rows() }
func (t *tracedMatrix) Cols() int    { return t.m.Cols() }
func (t *tracedMatrix) T() la.Matrix { return t.wrap(t.m.T(), !t.transposed) }

func (t *tracedMatrix) elemwise(f func() la.Matrix) la.Matrix {
	var out la.Matrix
	t.timed("elemwise", func() { out = f() })
	return t.wrap(out, t.transposed)
}

func (t *tracedMatrix) Scale(x float64) la.Matrix {
	return t.elemwise(func() la.Matrix { return t.m.Scale(x) })
}
func (t *tracedMatrix) AddScalar(x float64) la.Matrix {
	return t.elemwise(func() la.Matrix { return t.m.AddScalar(x) })
}
func (t *tracedMatrix) Pow(p float64) la.Matrix {
	return t.elemwise(func() la.Matrix { return t.m.Pow(p) })
}
func (t *tracedMatrix) Apply(f func(float64) float64) la.Matrix {
	return t.elemwise(func() la.Matrix { return t.m.Apply(f) })
}

func (t *tracedMatrix) RowSums() (out *la.Dense) {
	t.timed(t.dir("rowsums", "colsums"), func() { out = t.m.RowSums() })
	return out
}
func (t *tracedMatrix) ColSums() (out *la.Dense) {
	t.timed(t.dir("colsums", "rowsums"), func() { out = t.m.ColSums() })
	return out
}
func (t *tracedMatrix) Mul(x *la.Dense) (out *la.Dense) {
	t.timed(t.dir("mul", "tmul"), func() { out = t.m.Mul(x) })
	return out
}

// LeftMul is X·T = (Tᵀ·Xᵀ)ᵀ, so it is filed with the transposed product.
func (t *tracedMatrix) LeftMul(x *la.Dense) (out *la.Dense) {
	t.timed(t.dir("tmul", "mul"), func() { out = t.m.LeftMul(x) })
	return out
}
func (t *tracedMatrix) CrossProd() (out *la.Dense) {
	t.timed("crossprod", func() { out = t.m.CrossProd() })
	return out
}

// Sum, Ginv and Dense are passed through untimed: none of the benchmark's
// algorithms calls them on the operand.
func (t *tracedMatrix) Sum() float64     { return t.m.Sum() }
func (t *tracedMatrix) Ginv() *la.Dense  { return t.m.Ginv() }
func (t *tracedMatrix) Dense() *la.Dense { return t.m.Dense() }
