package la

import (
	"fmt"
	"math"
)

// scaleInto writes src*x into dst (same length).
func scaleInto(dst, src []float64, x float64) {
	for i, v := range src {
		dst[i] = v * x
	}
}

// ScaleDense returns m*x as a new dense matrix.
func (m *Dense) ScaleDense(x float64) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		scaleInto(out.data[lo*m.cols:hi*m.cols], m.data[lo*m.cols:hi*m.cols], x)
	})
	return out
}

// AddScalarDense returns m+x (element-wise) as a new dense matrix.
func (m *Dense) AddScalarDense(x float64) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo * m.cols; i < hi*m.cols; i++ {
			out.data[i] = m.data[i] + x
		}
	})
	return out
}

// PowDense returns m^p (element-wise) as a new dense matrix. p==2 is
// special-cased because squared matrices dominate the ML workloads.
func (m *Dense) PowDense(p float64) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		if p == 2 {
			for i := lo * m.cols; i < hi*m.cols; i++ {
				v := m.data[i]
				out.data[i] = v * v
			}
			return
		}
		for i := lo * m.cols; i < hi*m.cols; i++ {
			out.data[i] = math.Pow(m.data[i], p)
		}
	})
	return out
}

// ApplyDense returns f applied element-wise as a new dense matrix.
func (m *Dense) ApplyDense(f func(float64) float64) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo * m.cols; i < hi*m.cols; i++ {
			out.data[i] = f(m.data[i])
		}
	})
	return out
}

// ScaleRowsDense returns a copy with row i multiplied by v[i].
func (m *Dense) ScaleRowsDense(v []float64) *Dense {
	if len(v) != m.rows {
		panic(fmt.Sprintf("la: ScaleRows length %d != rows %d", len(v), m.rows))
	}
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			scaleInto(out.Row(i), m.Row(i), v[i])
		}
	})
	return out
}

// Add returns m+b element-wise.
func (m *Dense) Add(b *Dense) *Dense {
	return m.zipWith(b, func(x, y float64) float64 { return x + y })
}

// Sub returns m-b element-wise.
func (m *Dense) Sub(b *Dense) *Dense {
	return m.zipWith(b, func(x, y float64) float64 { return x - y })
}

func (m *Dense) zipWith(b *Dense, f func(x, y float64) float64) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("la: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo * m.cols; i < hi*m.cols; i++ {
			out.data[i] = f(m.data[i], b.data[i])
		}
	})
	return out
}

// AddInPlace adds b into m.
func (m *Dense) AddInPlace(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("la: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo * m.cols; i < hi*m.cols; i++ {
			m.data[i] += b.data[i]
		}
	})
}

// AXPYInPlace computes m += alpha*b.
func (m *Dense) AXPYInPlace(alpha float64, b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("la: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo * m.cols; i < hi*m.cols; i++ {
			m.data[i] += alpha * b.data[i]
		}
	})
}

// RowSums returns an n×1 column vector of row sums.
func (m *Dense) RowSums() *Dense {
	out := NewDense(m.rows, 1)
	parallelFor(m.rows, len(m.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for _, v := range m.Row(i) {
				s += v
			}
			out.data[i] = s
		}
	})
	return out
}

// ColSums returns a 1×d row vector of column sums.
func (m *Dense) ColSums() *Dense {
	out := NewDense(1, m.cols)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			out.data[j] += v
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// --- la.Matrix interface ---

// T returns the transpose as a logical operand.
func (m *Dense) T() Matrix { return m.TDense() }

// Scale implements Matrix.
func (m *Dense) Scale(x float64) Matrix { return m.ScaleDense(x) }

// AddScalar implements Matrix.
func (m *Dense) AddScalar(x float64) Matrix { return m.AddScalarDense(x) }

// Pow implements Matrix.
func (m *Dense) Pow(p float64) Matrix { return m.PowDense(p) }

// Apply implements Matrix.
func (m *Dense) Apply(f func(float64) float64) Matrix { return m.ApplyDense(f) }

// Mul computes m·x.
func (m *Dense) Mul(x *Dense) *Dense { return MatMul(m, x) }

// LeftMul computes x·m.
func (m *Dense) LeftMul(x *Dense) *Dense { return MatMul(x, m) }

// Dense implements Matrix by returning the receiver.
func (m *Dense) Dense() *Dense { return m }

// --- la.Mat interface (base-table role) ---

// TMul computes mᵀ·x.
func (m *Dense) TMul(x *Dense) *Dense { return TMatMul(m, x) }

// ScaleRows implements Mat.
func (m *Dense) ScaleRows(v []float64) Mat { return m.ScaleRowsDense(v) }
