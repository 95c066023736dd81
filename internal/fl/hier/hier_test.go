package hier_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clinfl/internal/fl"
	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

func randomUpdate(r *rand.Rand, name string, shapes map[string][2]int) hier.Update {
	weights := make(map[string]*tensor.Matrix, len(shapes))
	for pname, sh := range shapes {
		m := tensor.New(sh[0], sh[1])
		data := m.Data()
		for i := range data {
			// Arbitrary finite floats across ~24 decades of magnitude:
			// reproducibility must not depend on benign value ranges.
			data[i] = (r.Float64()*2 - 1) * math.Pow(2, float64(r.Intn(80)-40))
		}
		weights[pname] = m
	}
	return hier.Update{
		ClientName: name,
		Weights:    weights,
		NumSamples: 1 + r.Intn(5000),
		TrainLoss:  r.Float64() * 10,
	}
}

var testShapes = map[string][2]int{"layer.w": {3, 4}, "layer.b": {1, 4}}

// foldTree aggregates updates[lo:hi) through a random tree shape and
// returns the finalized weights.
func foldTree(t *testing.T, r *rand.Rand, updates []hier.Update) *hier.Partial {
	t.Helper()
	var build func(us []hier.Update) *hier.Partial
	build = func(us []hier.Update) *hier.Partial {
		p := hier.NewPartial()
		if len(us) <= 2 || r.Intn(3) == 0 {
			// Leaf aggregator: fold directly, in shuffled order.
			order := r.Perm(len(us))
			for _, i := range order {
				if err := p.Fold(us[i]); err != nil {
					t.Fatalf("fold %s: %v", us[i].ClientName, err)
				}
			}
			return p
		}
		// Split into 2-4 child aggregators and merge their partials.
		k := 2 + r.Intn(3)
		if k > len(us) {
			k = len(us)
		}
		bounds := map[int]bool{0: true, len(us): true}
		for len(bounds) < k+1 {
			bounds[1+r.Intn(len(us)-1)] = true
		}
		cuts := make([]int, 0, k+1)
		for b := range bounds {
			cuts = append(cuts, b)
		}
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}
		children := make([]*hier.Partial, 0, k)
		for i := 0; i+1 < len(cuts); i++ {
			children = append(children, build(us[cuts[i]:cuts[i+1]]))
		}
		for _, i := range r.Perm(len(children)) {
			if err := p.Merge(children[i]); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		return p
	}
	return build(updates)
}

func assertBitIdentical(t *testing.T, a, b map[string]*tensor.Matrix, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", label, len(a), len(b))
	}
	for name, ma := range a {
		mb, ok := b[name]
		if !ok {
			t.Fatalf("%s: missing param %q", label, name)
		}
		da, db := ma.Data(), mb.Data()
		for i := range da {
			if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
				t.Fatalf("%s: %s[%d] differs: %x (%v) vs %x (%v)",
					label, name, i, math.Float64bits(da[i]), da[i], math.Float64bits(db[i]), db[i])
			}
		}
	}
}

// TestTreeShapeBitIdentical is the core hierarchical invariant: FedAvg
// through any aggregation tree — any shard split, any merge order, any
// fold order — finalizes to exactly the same bits, on arbitrary finite
// floats, because every bin holds the same sum of slices whatever the
// order.
func TestTreeShapeBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(40)
		updates := make([]hier.Update, n)
		for i := range updates {
			updates[i] = randomUpdate(r, fmt.Sprintf("site-%03d", i), testShapes)
		}
		flat := hier.NewPartial()
		for _, u := range updates {
			if err := flat.Fold(u); err != nil {
				t.Fatal(err)
			}
		}
		want, err := flat.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for shape := 0; shape < 5; shape++ {
			tree := foldTree(t, r, updates)
			if tree.Updates() != n {
				t.Fatalf("tree folded %d updates, want %d", tree.Updates(), n)
			}
			got, err := tree.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, want, got, fmt.Sprintf("trial %d shape %d", trial, shape))
		}
	}
}

// TestTreeMatchesFlatFedAvgProperty is the one-FedAvg property: on
// random non-dyadic updates — sample counts that are not powers of two,
// values with full significands and magnitudes spread over 2^±30 — any
// aggregation tree, in any arrival order, finalizes to exactly the bits
// of fl.FedAvg's flat aggregate of the same updates in another order,
// and the result is within the documented error bound of the exact
// weighted mean (checked against the Shewchuk-expansion oracle).
func TestTreeMatchesFlatFedAvgProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		updates := make([]hier.Update, n)
		flat := make([]*fl.ClientUpdate, n)
		for i := range updates {
			weights := make(map[string]*tensor.Matrix, len(testShapes))
			for pname, sh := range testShapes {
				m := tensor.New(sh[0], sh[1])
				for j := range m.Data() {
					m.Data()[j] = (r.Float64()*2 - 1) * math.Pow(2, float64(r.Intn(61)-30))
				}
				weights[pname] = m
			}
			name := fmt.Sprintf("site-%03d", i)
			updates[i] = hier.Update{ClientName: name, Weights: weights, NumSamples: 1 + r.Intn(5000)}
			flat[i] = &fl.ClientUpdate{ClientName: name, Weights: weights, NumSamples: updates[i].NumSamples}
		}
		r.Shuffle(n, func(i, j int) { flat[i], flat[j] = flat[j], flat[i] })
		want, err := (fl.FedAvg{}).Aggregate(flat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := foldTree(t, r, updates).Finalize()
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, fmt.Sprintf("seed %d: tree vs flat", seed))
		if err := hier.CheckErrorBound(updates, got); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedFoldLeavesNoTrace: an update rejected for a non-finite
// value — after other params of it, or earlier elements of the same
// param, were already deposited — must leave the partial bit for bit as
// if it never arrived, including when the bad update would also have
// raised a window.
func TestRejectedFoldLeavesNoTrace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	good := make([]hier.Update, 6)
	for i := range good {
		good[i] = randomUpdate(r, fmt.Sprintf("ok-%d", i), testShapes)
	}
	for trial := 0; trial < 20; trial++ {
		clean, dirty := hier.NewPartial(), hier.NewPartial()
		for i, u := range good {
			if err := clean.Fold(u); err != nil {
				t.Fatal(err)
			}
			if err := dirty.Fold(u); err != nil {
				t.Fatal(err)
			}
			if i != 2 {
				continue
			}
			bad := randomUpdate(r, "bad", testShapes)
			if trial%2 == 1 {
				bad.Weights["layer.w"].Data()[0] = 0x1p90 // would raise the window
			}
			bad.Weights["layer.w"].Data()[1+r.Intn(11)] = math.NaN()
			if err := dirty.Fold(bad); err == nil || !strings.Contains(err.Error(), "non-finite value") {
				t.Fatalf("trial %d: bad fold err = %v", trial, err)
			}
		}
		want, err := clean.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := dirty.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, want, got, fmt.Sprintf("trial %d", trial))
		if clean.Updates() != dirty.Updates() || clean.MeanLoss() != dirty.MeanLoss() {
			t.Fatalf("trial %d: rejected fold changed the counters", trial)
		}
	}
}

// TestMergeValidation: a merge that does not fit is an error and leaves
// the receiving partial unchanged — including total weights that would
// overflow int64, which a decoded partial can claim up to MaxInt64.
func TestMergeValidation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	withWeight := func(w uint64) *hier.Partial {
		p := hier.NewPartial()
		if err := p.Fold(randomUpdate(r, "leaf", testShapes)); err != nil {
			t.Fatal(err)
		}
		blob, err := hier.EncodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(blob[len(hier.PartialMagic)+4:], w) // weight follows the param count
		q, err := hier.DecodePartial(blob)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	folded := func(shapes map[string][2]int) *hier.Partial {
		p := hier.NewPartial()
		if err := p.Fold(randomUpdate(r, "other", shapes)); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name  string
		left  *hier.Partial
		right *hier.Partial
		want  string
	}{
		{"param count", folded(testShapes), folded(map[string][2]int{"layer.w": {3, 4}}), "params, want"},
		{"missing param", folded(testShapes), folded(map[string][2]int{"layer.w": {3, 4}, "other": {1, 4}}), "missing param"},
		{"shape", folded(testShapes), folded(map[string][2]int{"layer.w": {3, 4}, "layer.b": {2, 2}}), "want 1x4"},
		{"weight overflow", withWeight(math.MaxInt64 - 3), withWeight(5), "overflows"},
		{"weight overflow at max", withWeight(math.MaxInt64), withWeight(math.MaxInt64), "overflows"},
	}
	for _, tc := range cases {
		weight, updates := tc.left.Weight(), tc.left.Updates()
		before, err := tc.left.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		err = tc.left.Merge(tc.right)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
			continue
		}
		if tc.left.Weight() != weight || tc.left.Updates() != updates {
			t.Errorf("%s: rejected merge changed weight/updates to %d/%d", tc.name, tc.left.Weight(), tc.left.Updates())
		}
		after, err := tc.left.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, before, after, tc.name)
	}
}

func TestFoldValidation(t *testing.T) {
	base := randomUpdate(rand.New(rand.NewSource(1)), "ok", testShapes)
	cases := []struct {
		name string
		mut  func(u *hier.Update)
		want string
	}{
		{"non-positive weight", func(u *hier.Update) { u.NumSamples = 0 }, "non-positive weight"},
		{"nan loss", func(u *hier.Update) { u.TrainLoss = math.NaN() }, "non-finite train loss"},
		{"extra param", func(u *hier.Update) { u.Weights["rogue"] = tensor.New(1, 1) }, "params, want"},
		{"missing param", func(u *hier.Update) { delete(u.Weights, "layer.b"); u.Weights["other"] = tensor.New(1, 4) }, "missing param"},
		{"shape mismatch", func(u *hier.Update) { u.Weights["layer.b"] = tensor.New(2, 4) }, "want 1x4"},
		{"non-finite value", func(u *hier.Update) { u.Weights["layer.b"].Data()[0] = math.Inf(1) }, "non-finite value"},
	}
	for _, tc := range cases {
		p := hier.NewPartial()
		if err := p.Fold(base); err != nil {
			t.Fatal(err)
		}
		u := randomUpdate(rand.New(rand.NewSource(2)), "bad", testShapes)
		tc.mut(&u)
		err := p.Fold(u)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
		if p.Updates() != 1 {
			t.Errorf("%s: rejected fold changed update count to %d", tc.name, p.Updates())
		}
	}
	if _, err := hier.NewPartial().Finalize(); err == nil {
		t.Error("empty partial must not finalize")
	}
}

func TestAccountingAndMeanLoss(t *testing.T) {
	p := hier.NewPartial()
	mk := func(v float64) map[string]*tensor.Matrix {
		m := tensor.New(1, 1)
		m.Data()[0] = v
		return map[string]*tensor.Matrix{"w": m}
	}
	if err := p.Fold(hier.Update{ClientName: "b", Weights: mk(1), NumSamples: 3, TrainLoss: 2, UpBytes: 100, DownBytes: 50}); err != nil {
		t.Fatal(err)
	}
	q := hier.NewPartial()
	if err := q.Fold(hier.Update{ClientName: "a", Weights: mk(5), NumSamples: 1, TrainLoss: 6, UpBytes: 10, DownBytes: 5}); err != nil {
		t.Fatal(err)
	}
	q.Fail("c: exec: boom")
	q.AddTierBytes(77)
	if err := p.Merge(q); err != nil {
		t.Fatal(err)
	}
	if got := p.Participants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("participants = %v", got)
	}
	if got := p.Failures(); len(got) != 1 || got[0] != "c: exec: boom" {
		t.Fatalf("failures = %v", got)
	}
	if p.Weight() != 4 || p.Updates() != 2 || p.Merged() != 1 {
		t.Fatalf("weight/updates/merged = %d/%d/%d", p.Weight(), p.Updates(), p.Merged())
	}
	if p.BytesUp() != 110 || p.BytesDown() != 55 || p.TierBytes() != 77 {
		t.Fatalf("bytes = %d/%d/%d", p.BytesUp(), p.BytesDown(), p.TierBytes())
	}
	// mean loss = (3*2 + 1*6)/4 = 3; mean weight = (3*1 + 1*5)/4 = 2.
	if got := p.MeanLoss(); got != 3 {
		t.Fatalf("mean loss = %v", got)
	}
	final, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := final["w"].Data()[0]; got != 2 {
		t.Fatalf("final = %v", got)
	}
}

// TestResidentBytesIndependentOfClientCount is the O(model) property:
// folding 10x the updates must not grow the partial's resident state
// (binK float64s per element, whatever the client count).
func TestResidentBytesIndependentOfClientCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := hier.NewPartial()
	var at1k int64
	for i := 0; i < 10000; i++ {
		if err := p.Fold(randomUpdate(r, fmt.Sprintf("c%d", i), testShapes)); err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			at1k = p.ResidentBytes()
		}
	}
	at10k := p.ResidentBytes()
	if at10k > at1k*3/2 {
		t.Fatalf("resident bytes grew with client count: %d at 1k folds vs %d at 10k", at1k, at10k)
	}
	// And it is nowhere near buffering 10k updates (16 params x 8 bytes
	// each x 10k clients would be ~1.3 MB).
	if at10k > 64<<10 {
		t.Fatalf("resident bytes %d not O(model)", at10k)
	}
}

// foldBenchUpdates is the sim-tier-2k fold shape: 64 updates of one
// 1x4096 parameter, non-dyadic weights and values.
func foldBenchUpdates() []hier.Update {
	r := rand.New(rand.NewSource(3))
	updates := make([]hier.Update, 64)
	for i := range updates {
		m := tensor.New(1, 4096)
		for j := range m.Data() {
			m.Data()[j] = r.NormFloat64()
		}
		updates[i] = hier.Update{ClientName: fmt.Sprintf("c%d", i),
			Weights: map[string]*tensor.Matrix{"w": m}, NumSamples: 1 + r.Intn(500)}
	}
	return updates
}

// BenchmarkPartialFold folds the 64 updates into a partial reused
// round to round (Reset, as the flat root and the tier shards do) and
// finalizes. CI gates it at 3x BenchmarkNaiveFold.
func BenchmarkPartialFold(b *testing.B) {
	updates := foldBenchUpdates()
	p := hier.NewPartial()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for _, u := range updates {
			if err := p.Fold(u); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveFold is BenchmarkPartialFold's control: the plain
// weighted average, acc += (w/W)·v per update, order-dependent bits.
func BenchmarkNaiveFold(b *testing.B) {
	updates := foldBenchUpdates()
	var total float64
	for _, u := range updates {
		total += float64(u.NumSamples)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := tensor.New(1, 4096)
		for _, u := range updates {
			if err := acc.AddScaledInPlace(float64(u.NumSamples)/total, u.Weights["w"]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
