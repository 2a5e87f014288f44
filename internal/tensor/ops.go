package tensor

import (
	"fmt"
	"math"
)

// ReLU applies max(0, x) in place and returns m for chaining.
func ReLU(m *Matrix) *Matrix {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// ReLUBackward zeroes grad where the forward output was zero
// (out is the post-activation matrix).
func ReLUBackward(grad, out *Matrix) {
	if !grad.SameShape(out) {
		panic(fmt.Sprintf("tensor: ReLUBackward shape mismatch %v vs %v", grad, out))
	}
	for i, v := range out.Data {
		if v <= 0 {
			grad.Data[i] = 0
		}
	}
}

// LogSoftmax computes log-softmax along each row into a new matrix.
func LogSoftmax(m *Matrix) *Matrix {
	out := New(m.Rows, m.Cols)
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

// NLLLoss returns the mean negative log-likelihood of labels under the
// log-probabilities logp, together with the gradient w.r.t. logits
// (i.e. the softmax-cross-entropy gradient, already divided by Rows).
func NLLLoss(logp *Matrix, labels []int32) (float32, *Matrix) {
	if len(labels) != logp.Rows {
		panic(fmt.Sprintf("tensor: NLLLoss %d labels for %d rows", len(labels), logp.Rows))
	}
	grad := New(logp.Rows, logp.Cols)
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

// Argmax returns the index of the max element of each row.
func Argmax(m *Matrix) []int32 {
	out := make([]int32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best = v
				bi = j + 1
			}
		}
		out[i] = int32(bi)
	}
	return out
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *Matrix, labels []int32) float64 {
	if logits.Rows == 0 {
		return 0
	}
	pred := Argmax(logits)
	hit := 0
	for i, p := range pred {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}
