package hier

import "math"

// Reproducible binned summation: the indexed, pre-rounded sum of Demmel
// & Nguyen ("Fast Reproducible Floating-Point Summation", ARITH 2013;
// "Parallel Reproducible Summation", IEEE TC 2015 — the ReproBLAS
// scheme), applied to a whole parameter tensor at once.
//
// Bins sit on a fixed grid binW bits apart: grid bin g has ulp
// 2^(gridTop − g·binW). A tensor keeps a window of binK consecutive grid
// bins, the same window for every element, and each element holds one
// float64 per bin: the sum of the slices deposited there, always a
// multiple of the bin's ulp. A deposit cuts w·v into slices, top bin
// first: each slice is the remainder rounded to the bin's ulp by adding
// and subtracting a constant extractor, 1.5·2^52 ulps, whose fixed
// parity breaks ties the same way every time. What falls below the
// lowest bin is rounded away. A slice is therefore a function of the
// value and the grid alone, and adding it to a bin is exact.
//
// The window's top is the lowest grid bin whose capacity (2^(binW−1)
// ulps) exceeds the largest |w·v| the tensor has received — a function
// of that maximum alone. A larger value shifts the window up; the bins
// that drop off the bottom hold exactly the slices a value arriving after
// the shift would never have cut, and the bins above a value's top slice
// would have received zero from it. So each bin ends up holding
// Σ slice(w·v) over every deposit — the same bits in any arrival order
// and any tree shape — and merging two tensors aligns their windows and
// adds the bins, again exactly.
//
// A bin sum stays exact while it is below 2^52 ulps, and a slice is at
// most 2^(binW−1) ulps, so a Partial tracks a load (a bound on every bin
// sum, in slice units) and refuses a fold or merge that would take it
// to fullLoad: 2^21 − 1 leaf updates per partial. Below that every bin
// is an exact sum, so there are no carries to renormalize and the bins
// themselves are canonical.
//
// Error: with the window's top on the maximum M, the lowest bin's ulp is
// at most 2^(1−2·binW)·M, so each deposit rounds away at most
// 2^−64·M (or 2^−1047 when M is below 2^−983 and the window sits at the
// bottom of the grid).
const (
	binK = 3  // bins per element
	binW = 32 // grid spacing in bits

	gridTop  = 970                 // ulp exponent of grid bin 0, which holds |x| < 2^1001
	gridBins = 64                  // the lowest grid bin's ulp is 2^-1046
	topMax   = gridBins - binK     // deepest grid bin a window's top can take
	maxAbs   = 0x1p1000            // deposits must satisfy |w·v| < maxAbs
	signBit  = uint64(1) << 63     // float64 sign bit
	unitExp  = binW - 1            // a slice unit is 2^unitExp ulps
	fullLoad = 1 << (52 - unitExp) // slice units that reach 2^52 ulps
)

// pow2 returns 2^e for a normal exponent e.
func pow2(e int) float64 { return math.Float64frombits(uint64(e+1023) << 52) }

// ulpExp is grid bin g's ulp exponent.
func ulpExp(g int) int { return gridTop - g*binW }

// topFor is the lowest grid bin (largest index) whose capacity holds
// |x| < 2^(binW−1) ulps, clamped to topMax for values too small to need
// a higher one. |x| must be below maxAbs.
func topFor(x float64) int {
	// |x| < 2^(be−1022) for biased exponent be, and grid bin g holds
	// values below 2^(gridTop − g·binW + unitExp).
	be := int(math.Float64bits(x) &^ signBit >> 52)
	return min((gridTop+unitExp+1022-be)/binW, topMax)
}

// extractors returns the constant extractors of the window topped at
// grid bin top: 1.5·2^52 ulps of each bin.
func extractors(top int) (a [binK]float64) {
	for k := range a {
		a[k] = 1.5 * pow2(ulpExp(top+k)+52)
	}
	return a
}

// maxAbsBits returns the largest |v| in xs as a bit pattern; a NaN
// compares above every finite value and ±Inf.
func maxAbsBits(xs []float64) uint64 {
	var m uint64
	for _, v := range xs {
		m = max(m, math.Float64bits(v)&^signBit)
	}
	return m
}

// planes views a parameter's slab as binK planes of n elements: plane
// k holds bin k of every element, so each deposit streams through three
// contiguous arrays.
type planes [binK][]float64

func planesOf(slab []float64, n int) (p planes) {
	for k := range p {
		p[k] = slab[k*n : (k+1)*n : (k+1)*n]
	}
	return p
}

// deposit adds w·xs[i] into element i's bins, in order, using the
// window's extractors a, and returns how many it added: it stops at the
// first w·xs[i] whose magnitude is not below capacity, the window's top
// bin capacity (NaN included).
func deposit(b planes, a [binK]float64, capacity, w float64, xs []float64) int {
	a0, a1, a2 := a[0], a[1], a[2]
	b0, b1, b2 := b[0][:len(xs)], b[1][:len(xs)], b[2][:len(xs)]
	neg := -capacity
	for i, v := range xs {
		x := float64(w * v)
		if !(x < capacity && x > neg) {
			return i
		}
		s := float64(a0+x) - a0
		b0[i] += s
		x -= s
		s = float64(a1+x) - a1
		b1[i] += s
		x -= s
		b2[i] += float64(a2+x) - a2
	}
	return len(xs)
}

// shift moves a window s grid bins up: each plane moves down s slots,
// the planes shifted out the bottom are dropped, and the new top planes
// start empty.
func shift(p planes, s int) {
	for k := binK - 1; k >= 0; k-- {
		if k >= s {
			copy(p[k], p[k-s])
		} else {
			clear(p[k])
		}
	}
}

// mergeBins adds src's bins into dst's, where src's window top sits d
// grid bins below dst's: src plane k lands in dst plane k+d, and src
// planes below dst's window are dropped.
func mergeBins(dst, src planes, d int) {
	for k := 0; k+d < binK; k++ {
		db := dst[k+d]
		for i, v := range src[k][:len(db)] {
			db[i] += v
		}
	}
}

// twoSumAcc adds t to the pair (hi, lo), keeping hi's rounding error in
// lo (Knuth's TWO-SUM).
func twoSumAcc(hi, lo, t float64) (float64, float64) {
	s := hi + t
	bv := s - hi
	err := (hi - (s - bv)) + (t - bv)
	return s, lo + err
}

// quotient divides the pair hi + lo by w with one Newton correction, so
// the result is within a hair of the correctly rounded quotient.
func quotient(hi, lo, w float64) float64 {
	q := hi / w
	r := math.FMA(-q, w, hi) + lo
	return q + r/w
}
