package hier

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clinfl/internal/tensor"
)

func binsTestUpdates(r *rand.Rand, n int) []Update {
	out := make([]Update, n)
	for i := range out {
		w := tensor.New(4, 8)
		for j := range w.Data() {
			w.Data()[j] = r.NormFloat64() * math.Pow(2, float64(r.Intn(40)-20))
		}
		out[i] = Update{ClientName: fmt.Sprintf("c%d", i), Weights: map[string]*tensor.Matrix{"w": w},
			NumSamples: 1 + r.Intn(1000), TrainLoss: r.Float64()}
	}
	return out
}

func finalizeBits(t *testing.T, p *Partial) []uint64 {
	t.Helper()
	out, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var bits []uint64
	for _, v := range out["w"].Data() {
		bits = append(bits, math.Float64bits(v))
	}
	return append(bits, math.Float64bits(p.MeanLoss()))
}

// TestCapacityIsAnError: a partial whose bins could no longer stay
// exact — fullLoad − 1 deposits, two million leaf updates — refuses the
// next fold or merge instead of rounding, and is left unchanged.
func TestCapacityIsAnError(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	updates := binsTestUpdates(r, 2)
	p := NewPartial()
	if err := p.Fold(updates[0]); err != nil {
		t.Fatal(err)
	}
	want := finalizeBits(t, p)
	p.load = fullLoad - 1 // a load is an upper bound: overstating it is safe
	if err := p.Fold(updates[1]); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Fatalf("fold past capacity: err = %v", err)
	}
	o := NewPartial()
	if err := o.Fold(updates[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Merge(o); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Fatalf("merge past capacity: err = %v", err)
	}
	got := finalizeBits(t, p)
	for i := range want {
		if got[i] != want[i] || p.Updates() != 1 {
			t.Fatalf("refused fold or merge changed the partial")
		}
	}
}

// TestMergeRejectsCounterOverflow: update and merge counters that would
// wrap are errors, like the weight.
func TestMergeRejectsCounterOverflow(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mk := func() *Partial {
		p := NewPartial()
		if err := p.Fold(binsTestUpdates(r, 1)[0]); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for name, set := range map[string]func(p *Partial){
		"updates": func(p *Partial) { p.updates = math.MaxInt },
		"merged":  func(p *Partial) { p.merged = math.MaxInt },
	} {
		p, o := mk(), mk()
		set(p)
		if err := p.Merge(o); err == nil || !strings.Contains(err.Error(), "overflow") {
			t.Errorf("%s: err = %v, want overflow", name, err)
		}
	}
}

// TestWindowRaiseKeepsBits: a window that rises part way through a fold
// sequence holds the same bins as one that started at the top, whichever
// update does the raising.
func TestWindowRaiseKeepsBits(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	updates := binsTestUpdates(r, 12)
	updates[7].Weights["w"].Data()[3] = 0x1p60 // a value three grid bins up
	var want []uint64
	for trial := 0; trial < 8; trial++ {
		p := NewPartial()
		for _, i := range r.Perm(len(updates)) {
			if err := p.Fold(updates[i]); err != nil {
				t.Fatal(err)
			}
		}
		got := finalizeBits(t, p)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d [%d] = %x, want %x", trial, i, got[i], want[i])
			}
		}
	}
}
