// Package hier implements streaming, reproducible FedAvg: a Partial
// folds client updates in one at a time, Partials merge in any order,
// and an aggregation tree of any shape — flat, two-tier, lopsided —
// finalizes to bit-identical global weights. The flat root (fl.FedAvg)
// is a one-node tree over the same accumulator, so flat, tier and edge
// deployments agree bit for bit on any input. The resident state of any
// node is O(model), independent of how many clients fed into it, which
// is what lets an edge-aggregator tier front tens of thousands of
// clients without the root buffering every update.
//
// Floating-point addition is not associative, so a naive running sum
// would make the result depend on arrival order and tree shape. Each
// element's weighted sum is instead kept as a reproducible binned sum
// (bins.go): a fixed-width window of pre-rounded bins whose contents
// are the same whatever order the deposits arrive in. Finalize adds the
// bins and divides by the exact total weight.
//
// The result is reproducible, not correctly rounded. Per element, with
// n updates of weights w_i and values v_i, W = Σ w_i, and M the largest
// |fl(w_i·v_i)| over every element of the tensor:
//
//	|result − Σ w_i·v_i / W| ≤ 2^−52·|result| + (2^−53·Σ|w_i·v_i| + n·2^−64·M) / W
//
// That is the error of correctly rounding the rounded products, plus
// 2^−64 of the tensor's largest weighted value per update.
package hier

import (
	"fmt"
	"math"
	"sort"

	"clinfl/internal/tensor"
)

// Update is one leaf client's contribution as seen by an aggregator.
type Update struct {
	ClientName string
	Weights    map[string]*tensor.Matrix
	// NumSamples weights the update, exactly as flat FedAvg does.
	NumSamples int
	// TrainLoss is the client's mean local training loss; partials carry
	// the binned loss·samples sum so tier-aggregated mean loss matches
	// what the root would have computed from the raw updates.
	TrainLoss float64
	// UpBytes / DownBytes are the leaf's encoded transfer sizes, summed
	// into the partial's accounting.
	UpBytes   int
	DownBytes int
}

// paramSum is the running binned weighted sum for one parameter tensor:
// a window top shared by every element, and a slab of binK planes.
type paramSum struct {
	name       string
	rows, cols int
	top        int       // grid bin at the window's top
	bins       []float64 // planesOf(bins, rows*cols)
	next       int       // window top the update being folded needs
}

func newParamSum(name string, rows, cols int) *paramSum {
	return &paramSum{name: name, rows: rows, cols: cols, top: topMax, bins: make([]float64, rows*cols*binK)}
}

func (ps *paramSum) planes() planes { return planesOf(ps.bins, ps.rows*ps.cols) }

// deposit adds w·xs into the bins, stopping at the first value that
// does not fit the window; it returns how many it deposited.
func (ps *paramSum) deposit(w float64, xs []float64) int {
	return deposit(ps.planes(), extractors(ps.top), pow2(ulpExp(ps.top)+unitExp), w, xs)
}

func (ps *paramSum) reset() {
	ps.top = topMax
	clear(ps.bins)
}

// raise moves the window's top up to grid bin top, if that is higher.
func (ps *paramSum) raise(top int) {
	if top < ps.top {
		shift(ps.planes(), ps.top-top)
		ps.top = top
	}
}

// merge adds o's sums into ps (same shape).
func (ps *paramSum) merge(o *paramSum) {
	ps.raise(o.top)
	mergeBins(ps.planes(), o.planes(), o.top-ps.top)
}

// mean writes each element's sum divided by w into dst: the bins added
// high to low as an unevaluated pair, then one division.
func (ps *paramSum) mean(dst []float64, w float64) {
	b := ps.planes()
	b0, b1, b2 := b[0][:len(dst)], b[1][:len(dst)], b[2][:len(dst)]
	for i := range dst {
		hi, lo := twoSumAcc(b0[i], 0, b1[i])
		hi, lo = twoSumAcc(hi, lo, b2[i])
		dst[i] = quotient(hi, lo, w)
	}
}

func (ps *paramSum) residentBytes() int64 { return 48 + 8*int64(len(ps.bins)) }

// Partial is a streaming partial FedAvg aggregate: fold updates in as
// they arrive, merge sibling partials in any order, finalize once at the
// root. The zero value is not usable; call NewPartial.
type Partial struct {
	params  map[string]*paramSum
	loss    *paramSum // Σ TrainLoss·NumSamples, one element
	load    int       // bound on every bin sum, in slice units (< fullLoad)
	weight  int64     // Σ NumSamples, exact
	updates int       // leaf updates folded in (transitively)
	merged  int       // child partials merged in (transitively)

	participants []string
	failures     []string
	bytesUp      int64
	bytesDown    int64
	tierBytes    int64
}

// NewPartial returns an empty partial aggregate.
func NewPartial() *Partial {
	return &Partial{params: make(map[string]*paramSum), loss: newParamSum("", 1, 1)}
}

// empty reports whether nothing has been aggregated into p.
func (p *Partial) empty() bool { return p.updates == 0 && p.weight == 0 }

// sameSchema reports whether p's params are exactly n tensors with the
// shapes shapeOf reports.
func (p *Partial) sameSchema(n int, shapeOf func(name string) (rows, cols int, ok bool)) bool {
	if len(p.params) != n {
		return false
	}
	for name, ps := range p.params {
		r, c, ok := shapeOf(name)
		if !ok || r != ps.rows || c != ps.cols {
			return false
		}
	}
	return true
}

// Fold accumulates one client update. Non-positive weight, param-count
// mismatch, missing params and shape mismatches are errors (recorded by
// callers as per-client failures); so are non-finite values, and values
// whose weighted magnitude reaches 2^1000, beyond the bin grid. A
// rejected update leaves the partial unchanged.
func (p *Partial) Fold(u Update) error {
	if u.NumSamples <= 0 {
		return fmt.Errorf("hier: client %q has non-positive weight %d", u.ClientName, u.NumSamples)
	}
	w := float64(u.NumSamples)
	lim := maxAbs / w
	if !(math.Abs(u.TrainLoss) < lim) {
		if math.IsInf(u.TrainLoss, 0) || math.IsNaN(u.TrainLoss) {
			return fmt.Errorf("hier: client %q reported non-finite train loss", u.ClientName)
		}
		return fmt.Errorf("hier: client %q train loss %g is beyond the aggregation range", u.ClientName, u.TrainLoss)
	}
	if int64(u.NumSamples) > math.MaxInt64-p.weight {
		return fmt.Errorf("hier: client %q overflows the total weight", u.ClientName)
	}
	shapeOf := func(name string) (int, int, bool) {
		m, ok := u.Weights[name]
		if !ok {
			return 0, 0, false
		}
		return m.Rows(), m.Cols(), true
	}
	if p.empty() && !p.sameSchema(len(u.Weights), shapeOf) {
		p.params = make(map[string]*paramSum, len(u.Weights))
		for name, m := range u.Weights {
			p.params[name] = newParamSum(name, m.Rows(), m.Cols())
		}
	}
	if len(u.Weights) != len(p.params) {
		return fmt.Errorf("hier: client %q sent %d params, want %d", u.ClientName, len(u.Weights), len(p.params))
	}
	for name, ps := range p.params {
		m, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("hier: client %q missing param %q", u.ClientName, name)
		}
		if m.Rows() != ps.rows || m.Cols() != ps.cols {
			return fmt.Errorf("hier: client %q param %q is %dx%d, want %dx%d",
				u.ClientName, name, m.Rows(), m.Cols(), ps.rows, ps.cols)
		}
	}
	if p.load+1 >= fullLoad {
		return fmt.Errorf("hier: client %q: partial already holds the maximum %d updates", u.ClientName, fullLoad-1)
	}
	if !p.tryDeposit(u.Weights, w) {
		// Some value is out of its window, or not finite: validate, raise
		// the windows that need it, and deposit.
		for name, ps := range p.params {
			// max |v| < lim, compared as bit patterns; NaN and ±Inf fail it.
			mb := maxAbsBits(u.Weights[name].Data())
			if mb >= math.Float64bits(lim) {
				if mb >= math.Float64bits(math.Inf(1)) {
					return fmt.Errorf("hier: client %q param %q has non-finite value", u.ClientName, name)
				}
				return fmt.Errorf("hier: client %q param %q has value %g beyond the aggregation range",
					u.ClientName, name, math.Float64frombits(mb))
			}
			ps.next = topFor(w * math.Float64frombits(mb))
		}
		for name, ps := range p.params {
			ps.raise(ps.next)
			ps.deposit(w, u.Weights[name].Data())
		}
	}
	loss := [1]float64{u.TrainLoss}
	p.loss.raise(topFor(w * u.TrainLoss))
	p.loss.deposit(w, loss[:])
	p.load++
	p.weight += int64(u.NumSamples)
	p.updates++
	p.participants = append(p.participants, u.ClientName)
	p.bytesUp += int64(u.UpBytes)
	p.bytesDown += int64(u.DownBytes)
	return nil
}

// tryDeposit deposits every param of an update that fits the current
// windows. If some value does not fit (or is not finite) it takes back
// what it deposited — depositing −w·v undoes w·v bit for bit while the
// window stays put — and reports false.
func (p *Partial) tryDeposit(weights map[string]*tensor.Matrix, w float64) bool {
	var buf [16]*paramSum
	done := buf[:0]
	for name, ps := range p.params {
		data := weights[name].Data()
		if n := ps.deposit(w, data); n < len(data) {
			ps.deposit(-w, data[:n])
			for _, d := range done {
				d.deposit(-w, weights[d.name].Data())
			}
			return false
		}
		done = append(done, ps)
	}
	return true
}

// Reset returns the partial to the empty state while retaining its
// parameter schema and slabs, so a caller aggregating the same model
// round after round (the flat root, the controller's tier shards) reuses
// them instead of reallocating O(model) memory every round. A reset
// partial folds and merges exactly like a fresh NewPartial: an update or
// partial of a different schema replaces the retained one.
func (p *Partial) Reset() {
	for _, ps := range p.params {
		ps.reset()
	}
	p.loss.reset()
	p.load, p.weight, p.updates, p.merged = 0, 0, 0, 0
	p.participants = p.participants[:0]
	p.failures = p.failures[:0]
	p.bytesUp, p.bytesDown, p.tierBytes = 0, 0, 0
}

// Fail records a leaf failure ("name: reason" by convention) so the
// accounting a partial carries upward includes what went wrong below it.
func (p *Partial) Fail(entry string) { p.failures = append(p.failures, entry) }

// Merge folds another partial into this one. Merging is associative and
// commutative on the bins, so any tree shape finalizes identically. An
// empty side adopts the other's parameter schema. Counters that would
// overflow are an error, and leave p unchanged.
func (p *Partial) Merge(o *Partial) error {
	if o == nil || o.empty() {
		// Nothing aggregated below; still take its accounting.
		if o != nil {
			p.absorbAccounting(o)
		}
		return nil
	}
	if o.weight > math.MaxInt64-p.weight {
		return fmt.Errorf("hier: merge: total weight %d + %d overflows", p.weight, o.weight)
	}
	if o.updates > math.MaxInt-p.updates || o.merged >= math.MaxInt-p.merged {
		return fmt.Errorf("hier: merge: update counters %d + %d overflow", p.updates, o.updates)
	}
	if p.load+o.load >= fullLoad {
		return fmt.Errorf("hier: merge: partials would exceed the maximum %d updates", fullLoad-1)
	}
	shapeOf := func(name string) (int, int, bool) {
		ops, ok := o.params[name]
		if !ok {
			return 0, 0, false
		}
		return ops.rows, ops.cols, true
	}
	if p.empty() && !p.sameSchema(len(o.params), shapeOf) {
		p.params = make(map[string]*paramSum, len(o.params))
		for name, ops := range o.params {
			p.params[name] = newParamSum(name, ops.rows, ops.cols)
		}
	}
	if len(o.params) != len(p.params) {
		return fmt.Errorf("hier: merge: partial has %d params, want %d", len(o.params), len(p.params))
	}
	for name, ps := range p.params {
		ops, ok := o.params[name]
		if !ok {
			return fmt.Errorf("hier: merge: partial missing param %q", name)
		}
		if ops.rows != ps.rows || ops.cols != ps.cols {
			return fmt.Errorf("hier: merge: param %q is %dx%d, want %dx%d",
				name, ops.rows, ops.cols, ps.rows, ps.cols)
		}
	}
	for name, ps := range p.params {
		ps.merge(o.params[name])
	}
	p.loss.merge(o.loss)
	p.load += o.load
	p.weight += o.weight
	p.updates += o.updates
	p.absorbAccounting(o)
	p.merged += o.merged + 1
	return nil
}

func (p *Partial) absorbAccounting(o *Partial) {
	p.participants = append(p.participants, o.participants...)
	p.failures = append(p.failures, o.failures...)
	p.bytesUp += o.bytesUp
	p.bytesDown += o.bytesDown
	p.tierBytes += o.tierBytes
}

// Finalize computes the FedAvg result: for each element the binned
// weighted sum divided by the total weight.
func (p *Partial) Finalize() (map[string]*tensor.Matrix, error) {
	if p.updates == 0 {
		return nil, fmt.Errorf("hier: no updates to aggregate")
	}
	// Folds guarantee weight > 0 when updates > 0, but a decoded wire
	// partial can claim otherwise; never divide by a non-positive weight.
	if p.weight <= 0 {
		return nil, fmt.Errorf("hier: partial claims %d updates but non-positive weight %d", p.updates, p.weight)
	}
	w := float64(p.weight)
	out := make(map[string]*tensor.Matrix, len(p.params))
	for name, ps := range p.params {
		m := tensor.New(ps.rows, ps.cols)
		ps.mean(m.Data(), w)
		out[name] = m
	}
	return out, nil
}

// Weight is the exact total sample weight folded in.
func (p *Partial) Weight() int64 { return p.weight }

// Updates is the number of leaf updates folded in (transitively).
func (p *Partial) Updates() int { return p.updates }

// Merged is the number of child partials merged in (transitively).
func (p *Partial) Merged() int { return p.merged }

// MeanLoss is the sample-weighted mean training loss across every folded
// update (0 when empty).
func (p *Partial) MeanLoss() float64 {
	if p.weight == 0 {
		return 0
	}
	m := [1]float64{}
	p.loss.mean(m[:], float64(p.weight))
	return m[0]
}

// Participants returns the sorted names of every client folded in.
func (p *Partial) Participants() []string {
	out := append([]string(nil), p.participants...)
	sort.Strings(out)
	return out
}

// Failures returns the sorted failure entries recorded below this node.
func (p *Partial) Failures() []string {
	out := append([]string(nil), p.failures...)
	sort.Strings(out)
	return out
}

// BytesUp is the total leaf uplink payload bytes folded in.
func (p *Partial) BytesUp() int64 { return p.bytesUp }

// BytesDown is the total leaf downlink payload bytes folded in.
func (p *Partial) BytesDown() int64 { return p.bytesDown }

// TierBytes is the total encoded-partial bytes that crossed aggregator
// hops below this node (see AddTierBytes).
func (p *Partial) TierBytes() int64 { return p.tierBytes }

// AddTierBytes records n encoded-partial wire bytes against this node's
// tier accounting (called when a partial is encoded for, or received
// from, a tier hop).
func (p *Partial) AddTierBytes(n int64) { p.tierBytes += n }

// ResidentBytes reports the aggregation state this partial holds: the
// bin slabs plus fixed per-param overhead. It is the O(model) quantity
// the tier exists to bound — fixed by the model's size, never by the
// number of clients folded in. Participant/failure name lists (O(16 B) per client, needed
// for the round record either way) are accounting, not aggregation
// state, and are excluded.
func (p *Partial) ResidentBytes() int64 {
	n := 64 + p.loss.residentBytes() // struct + counters
	for _, ps := range p.params {
		n += ps.residentBytes()
	}
	return n
}
