package hier

import (
	"fmt"
	"math"
	"math/big"

	"clinfl/internal/tensor"
)

// The exact-sum oracle: Shewchuk floating-point expansions. An
// expansion is a sequence of nonoverlapping float64 components in
// increasing magnitude whose exact sum is the represented value, so
// folding every product w·v into one is an exact weighted sum — the
// reference the binned accumulator's error bound is checked against.
type expansion []float64

// twoSum returns s = fl(a+b) and the exact roundoff err with
// a + b = s + err (Knuth's branch-free TWO-SUM).
func twoSum(a, b float64) (s, err float64) {
	s = a + b
	bv := s - a
	av := s - bv
	err = (a - av) + (b - bv)
	return s, err
}

// grow adds q into the expansion (Shewchuk GROW-EXPANSION with zero
// elimination).
func (e expansion) grow(q float64) expansion {
	n := 0
	for i := 0; i < len(e); i++ {
		s, err := twoSum(q, e[i])
		q = s
		if err != 0 {
			e[n] = err
			n++
		}
	}
	e = e[:n]
	if q != 0 {
		e = append(e, q)
	}
	return e
}

// growProduct adds the exact product a·b: fl(a·b) plus its FMA-recovered
// roundoff.
func (e expansion) growProduct(a, b float64) expansion {
	hi := a * b
	return e.grow(math.FMA(a, b, -hi)).grow(hi)
}

// bigVal is the expansion's exact value.
func (e expansion) bigVal() *big.Float {
	acc := new(big.Float).SetPrec(2200)
	for _, c := range e {
		acc.Add(acc, new(big.Float).SetFloat64(c))
	}
	return acc
}

// CheckErrorBound checks got, the finalized FedAvg of updates, against
// the exact weighted mean element by element, under the bound the
// package documents:
//
//	|got − Σ w·v / W| ≤ 2^−52·|got| + (2^−53·Σ|w·v| + n·2^−64·M) / W
//
// with M = max |fl(w·v)| over the whole tensor. It returns the first
// violation, or nil.
func CheckErrorBound(updates []Update, got map[string]*tensor.Matrix) error {
	var weight float64
	for _, u := range updates {
		weight += float64(u.NumSamples)
	}
	n := float64(len(updates))
	for name, m := range got {
		var maxAbs float64
		for _, u := range updates {
			for _, v := range u.Weights[name].Data() {
				maxAbs = max(maxAbs, math.Abs(float64(u.NumSamples)*v))
			}
		}
		for i, g := range m.Data() {
			var e expansion
			var absSum float64
			for _, u := range updates {
				w, v := float64(u.NumSamples), u.Weights[name].Data()[i]
				e = e.growProduct(w, v)
				absSum += math.Abs(w * v)
			}
			exact := new(big.Float).SetPrec(2200).Quo(e.bigVal(), big.NewFloat(weight))
			diff := new(big.Float).Sub(big.NewFloat(g), exact)
			errAbs, _ := diff.Abs(diff).Float64()
			// The bound's own float64 arithmetic is widened by 2^-40.
			bound := (0x1p-52*math.Abs(g) + (0x1p-53*absSum+n*0x1p-64*maxAbs)/weight) * (1 + 0x1p-40)
			if errAbs > bound {
				ex, _ := exact.Float64()
				return fmt.Errorf("%s[%d] = %v, exact %v: error %g exceeds bound %g", name, i, g, ex, errAbs, bound)
			}
		}
	}
	return nil
}
