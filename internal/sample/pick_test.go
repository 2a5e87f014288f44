package sample

import (
	"testing"
	"testing/quick"

	"gnndrive/internal/tensor"
)

// TestUniformPolicyBounds: the uniform pick returns min(fanout, degree)
// distinct neighbors drawn from the list.
func TestUniformPolicyBounds(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(fanRaw uint8) bool {
		fan := int(fanRaw)%12 + 1
		got := pickUniform([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, fan, rng)
		if fan >= 10 {
			return len(got) == 10
		}
		seen := map[int32]bool{}
		for _, u := range got {
			if u < 0 || u > 9 || seen[u] {
				return false
			}
			seen[u] = true
		}
		return len(got) == fan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
