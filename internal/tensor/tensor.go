// Package tensor provides dense float32 matrices and the numeric kernels
// needed for sample-based GNN training: parallel matrix multiply with a
// fixed summation order over one row kernel, SSE2 assembly on amd64
// (matmul.go, rowkernel.go), elementwise operations, softmax, and
// deterministic random initialization. It is deliberately 2-D: every
// activation in a layered GNN mini-batch is a [nodes x features] matrix.
package tensor

import "fmt"

// Matrix is a dense, row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// EnsureShape returns a rows x cols matrix, reusing m's storage when its
// capacity suffices and allocating otherwise (m may be nil). The returned
// matrix's contents are unspecified — pair it with the *Into kernels,
// which overwrite or zero their destination. This is the reuse primitive
// behind the per-layer scratch matrices in internal/nn.
func EnsureShape(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	if m == nil {
		return New(rows, cols)
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// FromSlice wraps data as a rows x cols matrix without copying.
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Add accumulates o into m elementwise.
func (m *Matrix) Add(o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", m, o))
	}
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// Sub subtracts o from m elementwise.
func (m *Matrix) Sub(o *Matrix) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", m, o))
	}
	for i, v := range o.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddRowVector adds the length-Cols vector v to every row of m.
func (m *Matrix) AddRowVector(v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, b := range v {
			row[j] += b
		}
	}
}

// ColSumsInto adds the per-column sums of m into dst (length Cols),
// accumulating on top of dst's existing contents: the bias-gradient call
// sites sum into a persistent gradient buffer. Zero dst first for fresh
// sums.
func (m *Matrix) ColSumsInto(dst []float32) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(dst), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for j, v := range row {
			dst[j] += v
		}
	}
}
