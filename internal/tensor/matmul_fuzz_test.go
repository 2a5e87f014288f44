package tensor

import (
	"math"
	"testing"
)

// FuzzMatMulForms holds every matmul form to its textbook reference and to
// the portable row kernel, bit for bit (checkBitIdentical), on fuzzed
// problems:
//   - n, the output row length, runs 0–200: up to three 64-lane blocks of
//     the amd64 kernel, each of its 16-, 8- and 4-lane blocks and its
//     scalar tail, and papers100m-s's 172-class rows;
//   - k, the inner length, runs 0–255: up to four kBlock operand lists per
//     row, so rows are stored and reloaded between kernel calls;
//   - m runs 0–40, past two and a half 16-row tiles of aᵀ·b;
//   - zeros/255 of a is ±0, half of it -0;
//   - specials&3 entries of b become +Inf, -Inf or NaN, each hidden under
//     zero a operands only when its bit of specials>>2 is set, so the
//     skipping forms must not touch it and a·bᵀ must turn it into NaN.
//
// testdata/fuzz/FuzzMatMulForms holds the committed seeds, the shapes at
// every block edge among them.
func FuzzMatMulForms(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, k, n, zeros, specials uint8, seed uint64) {
		mm, kk, nn := int(m)%41, int(k), int(n)%201
		// The NaN is the one this machine makes of 0·Inf, as a·bᵀ does: when
		// an add meets two different NaNs, IEEE 754 leaves which one it
		// returns to the machine, and Go may order a float add's operands
		// either way, so two NaN patterns would pin the compiler, not the
		// kernel. zero is computed at run time so the compiler cannot fold
		// the product.
		inf, zero := float32(math.Inf(1)), float32(specials&0)
		values := []float32{inf, -inf, inf * zero}
		for _, form := range matmulForms {
			rng := NewRNG(seed)
			a, b := form.operands(rng, mm, kk, nn, float64(zeros)/255)
			for s := 0; s < int(specials&3) && kk > 0 && nn > 0; s++ {
				k0 := rng.Intn(kk)
				*form.bAt(b, k0, rng.Intn(nn)) = values[rng.Intn(len(values))]
				if specials>>(2+s)&1 == 1 {
					for i := 0; i < mm; i++ {
						*form.aAt(a, i, k0) = 0
					}
				}
			}
			form.checkBitIdentical(t, a, b, mm, nn)
		}
	})
}
