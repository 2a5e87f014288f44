package tensor

import (
	"fmt"
	"math"
)

// ReLU applies max(0, x) in place and returns m for chaining: every
// value below zero becomes +0, and -0 and NaN stay as they are. The
// comparison is done on the bits, without a branch, because the sign of
// a post-matmul value is a coin flip no predictor learns.
func ReLU(m *Matrix) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = math.Float32frombits(math.Float32bits(v) &^ below(v))
	}
	return m
}

// ReLUBackward zeroes grad where the forward output was zero
// (out is the post-activation matrix): where out <= 0, so for either
// zero and every negative value, never for NaN. Branchless, like ReLU.
func ReLUBackward(grad, out *Matrix) {
	if !grad.SameShape(out) {
		panic(fmt.Sprintf("tensor: ReLUBackward shape mismatch %v vs %v", grad, out))
	}
	for i, v := range out.Data {
		b := math.Float32bits(v)
		// b<<1 == 0 exactly for ±0; the subtraction borrows only then.
		zero := uint32((uint64(b<<1) - 1) >> 32)
		g := &grad.Data[i]
		*g = math.Float32frombits(math.Float32bits(*g) &^ (below(v) | zero))
	}
}

// below returns all ones when v < 0 and zero otherwise (for ±0, positive
// values and NaN). The values below zero are the bit patterns from
// 0x80000001 (the smallest negative subnormal) to 0xff800000 (-Inf);
// moving that range to start at zero turns the test into one unsigned
// compare, whose borrow out of 64 bits is the mask.
func below(v float32) uint32 {
	d := uint64(math.Float32bits(v) - 0x80000001)
	return uint32(int64(d-0x7f800000) >> 63)
}

// LogSoftmaxInto computes log-softmax along each row of m into dst and
// returns it. dst may be nil or hold stale data: it is reshaped with
// EnsureShape, so a caller that keeps the result allocates only when m
// outgrows it.
func LogSoftmaxInto(dst, m *Matrix) *Matrix {
	out := EnsureShape(dst, m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - max))
		}
		lse := float32(math.Log(sum)) + max
		orow := out.Row(i)
		for j, v := range row {
			orow[j] = v - lse
		}
	}
	return out
}

// NLLLossInto returns the mean negative log-likelihood of labels under the
// log-probabilities logp, together with the gradient w.r.t. logits (i.e.
// the softmax-cross-entropy gradient, already divided by Rows), written
// into grad. grad is reshaped with EnsureShape as LogSoftmaxInto's dst is.
func NLLLossInto(grad, logp *Matrix, labels []int32) (float32, *Matrix) {
	if len(labels) != logp.Rows {
		panic(fmt.Sprintf("tensor: NLLLossInto %d labels for %d rows", len(labels), logp.Rows))
	}
	grad = EnsureShape(grad, logp.Rows, logp.Cols)
	var loss float64
	inv := 1 / float32(logp.Rows)
	for i, y := range labels {
		row := logp.Row(i)
		loss -= float64(row[y])
		grow := grad.Row(i)
		for j, lp := range row {
			grow[j] = float32(math.Exp(float64(lp))) * inv
		}
		grow[y] -= inv
	}
	return float32(loss / float64(logp.Rows)), grad
}

// argmax returns the index of the first max element of row.
func argmax(row []float32) int32 {
	best, bi := row[0], 0
	for j, v := range row[1:] {
		if v > best {
			best = v
			bi = j + 1
		}
	}
	return int32(bi)
}

// Argmax returns the index of the max element of each row.
func Argmax(m *Matrix) []int32 {
	out := make([]int32, m.Rows)
	for i := range out {
		out[i] = argmax(m.Row(i))
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax equals the label.
// It allocates nothing.
func Accuracy(logits *Matrix, labels []int32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	hit := 0
	for i := 0; i < logits.Rows; i++ {
		if argmax(logits.Row(i)) == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}
