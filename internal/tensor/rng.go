package tensor

import "math"

// RNG is a small, fast, deterministic xoshiro256** generator. Every module
// that needs randomness takes an explicit *RNG so experiments are
// reproducible run-to-run without global state.
type RNG struct{ s [4]uint64 }

// NewRNG seeds a generator; distinct seeds give independent streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the stream NewRNG(seed) would produce,
// discarding its current state. Deterministic resume re-derives per-batch
// streams this way instead of persisting generator state.
func (r *RNG) Reseed(seed uint64) {
	// splitmix64 expansion of the seed.
	z := seed
	for i := range r.s {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		r.s[i] = x ^ (x >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat32 returns a standard-normal sample via Box-Muller.
func (r *RNG) NormFloat32() float32 {
	return BoxMuller(r.NormUniforms())
}

// NormUniforms draws the two uniforms one NormFloat32 consumes, so a
// caller can keep the stream sequential and run BoxMuller elsewhere.
func (r *RNG) NormUniforms() (u1, u2 float64) {
	u1 = r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	return u1, r.Float64()
}

// BoxMuller maps a NormUniforms pair to NormFloat32's sample for it.
func BoxMuller(u1, u2 float64) float32 {
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// XavierInit fills m with U(-a, a), a = sqrt(6/(fanIn+fanOut)).
func XavierInit(m *Matrix, fanIn, fanOut int, r *RNG) {
	a := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	for i := range m.Data {
		m.Data[i] = (2*r.Float32() - 1) * a
	}
}
