// Package tensor provides the dense float64 vector and matrix primitives
// underlying the neural-network library in internal/nn. It implements only
// what gradient-descent training of small MLPs needs — GEMM/GEMV, axpy,
// element-wise maps, stable softmax — with bounds checking on construction
// and panics reserved for programmer errors (shape mismatches).
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(v), len(w)))
	}
	var sum float64
	for i := range v {
		sum += v[i] * w[i]
	}
	return sum
}

// AddScaled adds alpha*w to v in place (axpy). It panics on length
// mismatch.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies every element of v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Argmax returns the index of the largest element (first winner on ties),
// or -1 for an empty vector.
func (v Vector) Argmax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// SquaredDistance returns the squared Euclidean distance between v and w.
// It panics on length mismatch.
func (v Vector) SquaredDistance(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: distance length mismatch %d vs %d", len(v), len(w)))
	}
	var sum float64
	for i := range v {
		d := v[i] - w[i]
		sum += d * d
	}
	return sum
}

// Softmax writes the softmax of v into dst (allocating when dst is nil or
// mis-sized) using the max-subtraction trick for numerical stability, and
// returns dst.
func Softmax(dst, v Vector) Vector {
	if len(dst) != len(v) {
		dst = NewVector(len(v))
	}
	if len(v) == 0 {
		return dst
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		uniform := 1 / float64(len(v))
		for i := range dst {
			dst[i] = uniform
		}
		return dst
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// LogSumExp returns log(sum(exp(v))) computed stably.
func LogSumExp(v Vector) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// negative dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share one
// length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("tensor: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, x float64) {
	m.Data[i*m.Cols+j] = x
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element of m to x.
func (m *Matrix) Fill(x float64) {
	for i := range m.Data {
		m.Data[i] = x
	}
}

// Scale multiplies every element by alpha in place.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddScaled adds alpha*other to m in place. It panics on shape mismatch.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += alpha * other.Data[i]
	}
}

// MulVec computes dst = m * v for a column vector v of length Cols,
// writing into dst of length Rows (allocating when dst is nil or
// mis-sized) and returning dst. Four output rows share each pass over
// v; every row still sums in ascending column order from zero, so the
// result is bit-identical to one dot product per row (and to
// MatMulTInto with v as a one-row a).
func (m *Matrix) MulVec(dst, v Vector) Vector {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVec got %d, want %d", len(v), m.Cols))
	}
	if len(dst) != m.Rows {
		dst = NewVector(m.Rows)
	}
	cols := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[i*cols : (i+1)*cols][:len(v)]
		r1 := m.Data[(i+1)*cols : (i+2)*cols][:len(v)]
		r2 := m.Data[(i+2)*cols : (i+3)*cols][:len(v)]
		r3 := m.Data[(i+3)*cols : (i+4)*cols][:len(v)]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*cols : (i+1)*cols][:len(v)]
		var sum float64
		for j, x := range v {
			sum += row[j] * x
		}
		dst[i] = sum
	}
	return dst
}

// MulVecT computes dst = mᵀ * v for v of length Rows, writing into dst of
// length Cols and returning dst. Used for backpropagating through dense
// layers without materializing the transpose.
func (m *Matrix) MulVecT(dst, v Vector) Vector {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecT got %d, want %d", len(v), m.Rows))
	}
	if len(dst) != m.Cols {
		dst = NewVector(m.Cols)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst[j] += x * vi
		}
	}
	return dst
}

// AddOuterScaled adds alpha * a ⊗ b to m in place, where a has length Rows
// and b has length Cols. This is the gradient accumulation of a dense
// layer's weight matrix.
func (m *Matrix) AddOuterScaled(alpha float64, a, b Vector) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("tensor: AddOuterScaled shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		ai := alpha * a[i]
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			row[j] += ai * b[j]
		}
	}
}

// MatMul returns a new matrix a*b. It panics on inner-dimension
// mismatch. Thin wrapper over MatMulInto (see matmul.go), which reuses a
// caller-held destination instead of allocating per call.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(nil, a, b)
}
