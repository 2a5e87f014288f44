package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %v len=%d", m, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero storage")
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	m.Set(1, 2, 42)
	if d[5] != 42 {
		t.Fatal("FromSlice must alias, not copy")
	}
	if m.At(0, 1) != 2 {
		t.Fatalf("At(0,1)=%v", m.At(0, 1))
	}
}

func TestFromSliceLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice(2, 3, make([]float32, 5))
}

func TestRowAliases(t *testing.T) {
	m := New(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

// fill, clone and transpose are the reference helpers the tests below
// build expectations from.
func fill(m *Matrix, v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

func clone(m *Matrix) *Matrix {
	return FromSlice(m.Rows, m.Cols, append([]float32(nil), m.Data...))
}

func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	fill(m, 3)
	c := clone(m)
	c.Set(0, 0, 9)
	if m.At(0, 0) != 3 {
		t.Fatal("clone must deep-copy")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	a.Add(b)
	want := []float32{5, 7, 9}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Add[%d]=%v want %v", i, a.Data[i], v)
		}
	}
	a.Sub(b)
	a.Scale(2)
	want = []float32{2, 4, 6}
	for i, v := range want {
		if a.Data[i] != v {
			t.Fatalf("Sub/Scale[%d]=%v want %v", i, a.Data[i], v)
		}
	}
}

func TestAddScaledAndMul(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 1})
	b := FromSlice(1, 2, []float32{2, 3})
	a.AddScaled(b, 0.5)
	if a.Data[0] != 2 || a.Data[1] != 2.5 {
		t.Fatalf("AddScaled got %v", a.Data)
	}
	a.Mul(b)
	if a.Data[0] != 4 || a.Data[1] != 7.5 {
		t.Fatalf("Mul got %v", a.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	for name, f := range map[string]func(){
		"Add":       func() { a.Add(b) },
		"Sub":       func() { a.Sub(b) },
		"Mul":       func() { a.Mul(b) },
		"AddScaled": func() { a.AddScaled(b, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float32{10, 20, 30})
	if m.At(1, 2) != 36 || m.At(0, 0) != 11 {
		t.Fatalf("AddRowVector got %v", m.Data)
	}
	s := m.ColSums()
	want := []float32{11 + 14, 22 + 25, 33 + 36}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("ColSums[%d]=%v want %v", i, s[i], want[i])
		}
	}
}

// matMul, matMulT1 and matMulT2 are the allocating spellings the older
// tests were written against; production code only has the *Into forms.
func matMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

func matMulT1(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulT1Into(out, a, b)
	return out
}

func matMulT2(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulT2Into(out, a, b)
	return out
}

// maxAbsDiff returns max_i |m[i]-o[i]| for the tolerance checks.
func maxAbsDiff(m, o *Matrix) float64 {
	if !m.SameShape(o) {
		panic("maxAbsDiff shape mismatch")
	}
	var worst float64
	for i := range m.Data {
		if d := math.Abs(float64(m.Data[i] - o.Data[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// matMulNaive is the reference triple loop.
func matMulNaive(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat32()
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 32, 48}, {130, 70, 33}} {
		a := randomMatrix(rng, dims[0], dims[1])
		b := randomMatrix(rng, dims[1], dims[2])
		got := matMul(a, b)
		want := matMulNaive(a, b)
		if d := maxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("dims %v: MatMul diff %g", dims, d)
		}
	}
}

func TestMatMulT1MatchesTranspose(t *testing.T) {
	rng := NewRNG(2)
	a := randomMatrix(rng, 20, 7)
	b := randomMatrix(rng, 20, 11)
	got := matMulT1(a, b)
	want := matMul(transpose(a), b)
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("MatMulT1 diff %g", d)
	}
}

func TestMatMulT2MatchesTranspose(t *testing.T) {
	rng := NewRNG(3)
	a := randomMatrix(rng, 20, 7)
	b := randomMatrix(rng, 11, 7)
	got := matMulT2(a, b)
	want := matMul(a, transpose(b))
	if d := maxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("MatMulT2 diff %g", d)
	}
}

func TestMatMulDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected dim panic")
		}
	}()
	matMul(New(2, 3), New(4, 2))
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(4)
	m := randomMatrix(rng, 9, 13)
	tt := transpose(transpose(m))
	if d := maxAbsDiff(m, tt); d != 0 {
		t.Fatalf("transpose involution diff %g", d)
	}
}

// Property: (A+B)·C == A·C + B·C for random small matrices.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := NewRNG(5)
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, m, k)
		c := randomMatrix(rng, k, n)
		ab := clone(a)
		ab.Add(b)
		lhs := matMul(ab, c)
		rhs := matMul(a, c)
		rhs.Add(matMul(b, c))
		return maxAbsDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(6)
	m := randomMatrix(rng, 17, 9)
	m.Scale(5)
	lp := LogSoftmax(m)
	for i := 0; i < lp.Rows; i++ {
		var sum float64
		for _, v := range lp.Row(i) {
			if v > 0 {
				t.Fatalf("log-prob > 0: %v", v)
			}
			sum += math.Exp(float64(v))
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("row %d probs sum to %v", i, sum)
		}
	}
}

func TestLogSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m := randomMatrix(r, 1+r.Intn(5), 2+r.Intn(6))
		shifted := clone(m)
		for i := range shifted.Data {
			shifted.Data[i] += 100
		}
		return maxAbsDiff(LogSoftmax(m), LogSoftmax(shifted)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNLLLossGradientNumerically(t *testing.T) {
	rng := NewRNG(7)
	logits := randomMatrix(rng, 4, 5)
	labels := []int32{1, 0, 4, 2}
	_, grad := NLLLoss(LogSoftmax(logits), labels)
	// Central difference on a few coordinates.
	eps := float32(1e-2)
	for _, probe := range [][2]int{{0, 1}, {1, 3}, {3, 0}, {2, 4}} {
		i, j := probe[0], probe[1]
		orig := logits.At(i, j)
		logits.Set(i, j, orig+eps)
		lp, _ := NLLLoss(LogSoftmax(logits), labels)
		logits.Set(i, j, orig-eps)
		lm, _ := NLLLoss(LogSoftmax(logits), labels)
		logits.Set(i, j, orig)
		num := (lp - lm) / (2 * eps)
		if math.Abs(float64(num-grad.At(i, j))) > 2e-2 {
			t.Fatalf("grad(%d,%d): numeric %v analytic %v", i, j, num, grad.At(i, j))
		}
	}
}

func TestReLUAndBackward(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 0, 2, -3})
	ReLU(m)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("ReLU got %v", m.Data)
		}
	}
	g := FromSlice(1, 4, []float32{1, 1, 1, 1})
	ReLUBackward(g, m)
	want = []float32{0, 0, 1, 0}
	for i := range want {
		if g.Data[i] != want[i] {
			t.Fatalf("ReLUBackward got %v", g.Data)
		}
	}
}

func TestArgmaxAndAccuracy(t *testing.T) {
	m := FromSlice(3, 3, []float32{1, 5, 2, 9, 0, 1, 3, 3, 4})
	am := Argmax(m)
	if am[0] != 1 || am[1] != 0 || am[2] != 2 {
		t.Fatalf("Argmax got %v", am)
	}
	acc := Accuracy(m, []int32{1, 0, 0})
	if math.Abs(acc-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy got %v", acc)
	}
	if Accuracy(New(0, 3), nil) != 0 {
		t.Fatal("empty accuracy must be 0")
	}
}

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(200)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitBounds(t *testing.T) {
	m := New(64, 64)
	XavierInit(m, 64, 64, NewRNG(11))
	bound := math.Sqrt(6.0 / 128)
	var nonzero int
	for _, v := range m.Data {
		if math.Abs(float64(v)) > bound {
			t.Fatalf("Xavier sample %v exceeds bound %v", v, bound)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Data)/2 {
		t.Fatal("Xavier init left too many zeros")
	}
}

func TestRNGNormApproxStandard(t *testing.T) {
	r := NewRNG(12)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("norm stats off: mean=%v var=%v", mean, variance)
	}
}

func TestEnsureShapeReuseAndGrow(t *testing.T) {
	m := EnsureShape(nil, 2, 3)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("nil case shape %v", m)
	}
	fill(m, 7)
	back := &m.Data[0]
	// Shrinking reuses the backing array.
	m2 := EnsureShape(m, 1, 4)
	if m2 != m || &m2.Data[0] != back || m2.Rows != 1 || m2.Cols != 4 {
		t.Fatalf("shrink did not reuse storage: %v", m2)
	}
	// Growing past capacity reallocates.
	m3 := EnsureShape(m2, 5, 5)
	if m3.Rows != 5 || m3.Cols != 5 || len(m3.Data) != 25 {
		t.Fatalf("grow shape %v len=%d", m3, len(m3.Data))
	}
}

func TestMatMulIntoMatchesMatMulWithDirtyDst(t *testing.T) {
	rng := NewRNG(3)
	a, b := New(7, 5), New(5, 6)
	for i := range a.Data {
		a.Data[i] = rng.Float32() - 0.5
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32() - 0.5
	}
	want := matMul(a, b)
	dst := New(7, 6)
	fill(dst, 99) // stale contents must not leak through
	MatMulInto(dst, a, b)
	if d := maxAbsDiff(dst, want); d > 1e-6 {
		t.Fatalf("MatMulInto differs by %v", d)
	}
}

func TestMatMulT1T2IntoMatchDirty(t *testing.T) {
	rng := NewRNG(4)
	a, b := New(6, 4), New(6, 5) // T1: aᵀ*b -> 4x5
	for i := range a.Data {
		a.Data[i] = rng.Float32() - 0.5
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32() - 0.5
	}
	want1 := matMulT1(a, b)
	d1 := New(4, 5)
	fill(d1, -3)
	MatMulT1Into(d1, a, b)
	if d := maxAbsDiff(d1, want1); d > 1e-6 {
		t.Fatalf("MatMulT1Into differs by %v", d)
	}

	c := New(3, 5) // T2: c*bᵀ -> 3x6
	for i := range c.Data {
		c.Data[i] = rng.Float32() - 0.5
	}
	want2 := matMulT2(c, b)
	d2 := New(3, 6)
	fill(d2, 11)
	MatMulT2Into(d2, c, b)
	if d := maxAbsDiff(d2, want2); d > 1e-6 {
		t.Fatalf("MatMulT2Into differs by %v", d)
	}
}

func TestMatMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out shape mismatch")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(3, 4))
}

func TestColSumsIntoAccumulates(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	dst := []float32{10, 10, 10}
	m.ColSumsInto(dst)
	want := []float32{15, 17, 19}
	for j := range want {
		if dst[j] != want[j] {
			t.Fatalf("col %d: %v want %v", j, dst[j], want[j])
		}
	}
}
