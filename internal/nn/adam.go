package nn

import (
	"fmt"
	"math"
	"slices"
)

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR    float32
	Beta1 float32
	Beta2 float32
	Eps   float32
	t     int
	m, v  map[*Param][]float32
}

// NewAdam creates an optimizer with the usual defaults (lr 1e-3 unless
// overridden).
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float32), v: make(map[*Param][]float32),
	}
}

// Step applies one update from the accumulated gradients and clears them.
func (a *Adam) Step(params []*Param) {
	a.t++
	c1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	c2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		m, v := a.Moments(p)
		for i, g := range p.G.Data {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / c1
			vhat := v[i] / c2
			p.W.Data[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
		p.G.Zero()
	}
}

// AdamState is the optimizer's exportable state: the bias-correction
// step count plus the first and second moments, index-aligned with the
// parameter list the state was exported against. Checkpointing it makes
// a resumed run's update sequence bit-identical to an uninterrupted one
// (restarting Adam with zero moments and t=0 is a different trajectory).
type AdamState struct {
	T    int
	M, V [][]float32
}

// Moments returns p's first and second moments, zeroed on first use. The
// slices are the optimizer's own state, not copies: the next Step
// overwrites them.
func (a *Adam) Moments(p *Param) (m, v []float32) {
	m, ok := a.m[p]
	if !ok {
		m = make([]float32, len(p.W.Data))
		a.m[p] = m
		a.v[p] = make([]float32, len(p.W.Data))
	}
	return m, a.v[p]
}

// ExportState snapshots the moments for params (deep copies, in params
// order). Parameters the optimizer has not touched yet export zero
// moments of the right length.
func (a *Adam) ExportState(params []*Param) AdamState {
	st := AdamState{T: a.t, M: make([][]float32, len(params)), V: make([][]float32, len(params))}
	for i, p := range params {
		m, v := a.Moments(p)
		st.M[i] = slices.Clone(m)
		st.V[i] = slices.Clone(v)
	}
	return st
}

// ImportState restores moments exported by ExportState against the same
// parameter list (same order, same shapes). Existing state is replaced.
func (a *Adam) ImportState(params []*Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moments, model has %d params",
			len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.W.Data) || len(st.V[i]) != len(p.W.Data) {
			return fmt.Errorf("nn: adam moment %d has %d/%d values, param %q has %d",
				i, len(st.M[i]), len(st.V[i]), p.Name, len(p.W.Data))
		}
	}
	a.t = st.T
	a.m = make(map[*Param][]float32, len(params))
	a.v = make(map[*Param][]float32, len(params))
	for i, p := range params {
		m := make([]float32, len(st.M[i]))
		v := make([]float32, len(st.V[i]))
		copy(m, st.M[i])
		copy(v, st.V[i])
		a.m[p] = m
		a.v[p] = v
	}
	return nil
}

// T returns the optimizer's step count.
func (a *Adam) T() int { return a.t }
