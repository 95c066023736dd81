package fl

import (
	"context"
	"math"
	"testing"

	"clinfl/internal/tensor"
)

// deltaNorm computes the global L2 norm of (update - global).
func deltaNorm(t *testing.T, update *ClientUpdate, global map[string]*tensor.Matrix) float64 {
	t.Helper()
	var sq float64
	for name, w := range update.Weights {
		d, err := tensor.Sub(w, global[name])
		if err != nil {
			t.Fatal(err)
		}
		n := d.Norm()
		sq += n * n
	}
	return math.Sqrt(sq)
}

func bigUpdate(v float64) (*ClientUpdate, map[string]*tensor.Matrix) {
	global := map[string]*tensor.Matrix{
		"a": tensor.New(2, 2),
		"b": tensor.New(1, 4),
	}
	w := make(map[string]*tensor.Matrix, len(global))
	for name, g := range global {
		m := tensor.New(g.Rows(), g.Cols())
		m.Fill(v)
		w[name] = m
	}
	return &ClientUpdate{ClientName: "c", Weights: w, NumSamples: 1}, global
}

func TestNormCapFilterCapsLargeDelta(t *testing.T) {
	update, global := bigUpdate(10) // delta norm = 10*sqrt(8) ≈ 28.3
	before := deltaNorm(t, update, global)
	f := NormCapFilter{Cap: 1}
	if err := f.Apply(update, global); err != nil {
		t.Fatal(err)
	}
	after := deltaNorm(t, update, global)
	if before <= 1 {
		t.Fatal("test setup: delta should start above the cap")
	}
	if math.Abs(after-1) > 1e-9 {
		t.Fatalf("capped delta norm %v, want 1", after)
	}
	// Direction must be preserved: all elements equal and positive.
	v0 := update.Weights["a"].At(0, 0)
	if v0 <= 0 {
		t.Fatalf("cap flipped the delta direction: %v", v0)
	}
}

func TestNormCapFilterLeavesSmallDelta(t *testing.T) {
	update, global := bigUpdate(0.01)
	want := update.Weights["a"].Clone()
	f := NormCapFilter{Cap: 10}
	if err := f.Apply(update, global); err != nil {
		t.Fatal(err)
	}
	if !update.Weights["a"].Equal(want) {
		t.Fatal("under-cap update was modified")
	}
}

func TestNormCapFilterErrors(t *testing.T) {
	update, global := bigUpdate(1)
	if err := (NormCapFilter{Cap: 0}).Apply(update, global); err == nil {
		t.Fatal("want error for zero cap")
	}
	delete(global, "a")
	if err := (NormCapFilter{Cap: 1}).Apply(update, global); err == nil {
		t.Fatal("want error for missing global param")
	}
}

func TestGaussianNoiseFilterPerturbsWeights(t *testing.T) {
	update, global := bigUpdate(1)
	orig := update.Weights["a"].Clone()
	f := GaussianNoiseFilter{Sigma: 0.5, RNG: tensor.NewRNG(1)}
	if err := f.Apply(update, global); err != nil {
		t.Fatal(err)
	}
	if update.Weights["a"].Equal(orig) {
		t.Fatal("noise filter left weights unchanged")
	}
	// Perturbation magnitude should be on the order of sigma.
	d, _ := tensor.Sub(update.Weights["a"], orig)
	if d.MaxAbs() > 0.5*6 {
		t.Fatalf("noise far beyond 6 sigma: %v", d.MaxAbs())
	}
}

func TestGaussianNoiseFilterZeroSigmaIsIdentity(t *testing.T) {
	update, global := bigUpdate(1)
	orig := update.Weights["a"].Clone()
	if err := (GaussianNoiseFilter{Sigma: 0}).Apply(update, global); err != nil {
		t.Fatal(err)
	}
	if !update.Weights["a"].Equal(orig) {
		t.Fatal("zero-sigma filter modified weights")
	}
}

func TestGaussianNoiseFilterErrors(t *testing.T) {
	update, global := bigUpdate(1)
	if err := (GaussianNoiseFilter{Sigma: -1}).Apply(update, global); err == nil {
		t.Fatal("want error for negative sigma")
	}
	if err := (GaussianNoiseFilter{Sigma: 1}).Apply(update, global); err == nil {
		t.Fatal("want error for missing RNG")
	}
}

func TestControllerAppliesFilterChain(t *testing.T) {
	// A divergent client (value 100) is reined in by the norm cap, so the
	// aggregate stays near the well-behaved client.
	execs := []Executor{
		&fakeExecutor{name: "good", samples: 1, value: 0.1},
		&fakeExecutor{name: "bad", samples: 1, value: 100},
	}
	ctrl, err := NewController(ControllerConfig{
		Rounds:  1,
		Filters: []Filter{NormCapFilter{Cap: 0.5}},
	}, execs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Run(context.Background(), initialWeights())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FinalWeights["layer.w"].At(0, 0); got > 1 {
		t.Fatalf("filter chain did not cap the divergent client: aggregate %v", got)
	}
}

func TestFilterNames(t *testing.T) {
	if (NormCapFilter{}).Name() != "norm-cap" || (GaussianNoiseFilter{}).Name() != "gaussian-noise" {
		t.Fatal("filter names wrong")
	}
}

// TestPrivacyFiltersDeterministic: with a fixed seed, each privacy filter
// is a pure function of its input. Re-applying it to the same update with
// a fresh same-seed RNG must give the same bits every time — which noise
// draw lands on which parameter, and the order the clipping norm is
// summed in, must not follow Go's random map iteration.
func TestPrivacyFiltersDeterministic(t *testing.T) {
	newUpdate := func() (*ClientUpdate, map[string]*tensor.Matrix) {
		weights := make(map[string]*tensor.Matrix)
		global := make(map[string]*tensor.Matrix)
		for i := 0; i < 8; i++ {
			name := string(rune('a' + i))
			// One unit delta and seven of 2^-27: 1 + 2^-54 rounds back to
			// 1, so the clipping norm's bits depend on the order the
			// per-param squared norms are summed in.
			w := tensor.New(1, 3)
			w.Data()[0] = math.Ldexp(1, -27)
			if i == 0 {
				w.Data()[0] = 1
			}
			weights[name] = w
			global[name] = tensor.New(1, 3)
		}
		return &ClientUpdate{ClientName: "c", Weights: weights, NumSamples: 1}, global
	}
	for _, mk := range []func() Filter{
		func() Filter { return GaussianNoiseFilter{Sigma: 0.5, RNG: tensor.NewRNG(1)} },
		func() Filter { return NormCapFilter{Cap: 0.5} },
	} {
		var first map[string]*tensor.Matrix
		for rep := 0; rep < 50; rep++ {
			flt := mk()
			u, global := newUpdate()
			if err := flt.Apply(u, global); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = u.Weights
				continue
			}
			for name, w := range first {
				for i, v := range w.Data() {
					if got := u.Weights[name].Data()[i]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s application %d: %s[%d] = %v, first application %v", flt.Name(), rep, name, i, got, v)
					}
				}
			}
		}
	}
}
