package fl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/tensor"
)

// TierConfig enables hierarchical streaming aggregation: client updates
// fold into O(model) partial aggregates at tier nodes as they arrive,
// and only merged partials flow upward, so every node, the root
// included, holds O(model) aggregation state. Aggregation is
// reproducible — hier.Partial keeps a binned sum whose bits do not
// depend on arrival order or tree shape — so every tier shape, an edge
// deployment and the flat FedAvg root produce bit-identical global
// weights (pinned in fltest), within the error bound the hier package
// documents. Nil TierConfig keeps the flat path.
type TierConfig struct {
	// Aggregators lists the fan-in widths of the aggregation tiers
	// between the sampled clients and the root, leaf-most first, for the
	// in-process Controller: {64, 8} folds the sampled clients into 64
	// edge partials, merges those into 8 regional partials, and merges
	// the regionals at the root — each hop's encoded-partial bytes are
	// accounted in RoundRecord.TierBytesUp. The networked Server ignores
	// it (its tier shape is the deployed fl.Edge topology). Nil or empty
	// defaults to a single 8-wide edge tier.
	Aggregators []int
}

// widths resolves the configured tier fan-ins.
func (t *TierConfig) widths() []int {
	if t == nil || len(t.Aggregators) == 0 {
		return []int{8}
	}
	return t.Aggregators
}

// validateTier rejects configuration combinations the tier path does not
// compose with. These are config errors, not silent downgrades: each of
// these features assumes the root sees raw per-client updates.
func validateTier(t *TierConfig, agg Aggregator, async AsyncAggregator,
	filters []Filter, wal *durable.WAL, rp *ReconcilePolicy) error {
	if t == nil {
		return nil
	}
	for _, w := range t.Aggregators {
		if w <= 0 {
			return fmt.Errorf("fl: tier aggregator width %d must be positive", w)
		}
	}
	switch {
	case async != nil:
		return errors.New("fl: tier aggregation is incompatible with AsyncAggregator (stragglers are dropped at tier nodes, not merged late)")
	case len(filters) > 0:
		return errors.New("fl: tier aggregation is incompatible with Filters (per-client filters need raw updates at the root)")
	case wal != nil:
		return errors.New("fl: tier aggregation is incompatible with WAL durability (update records log raw weights)")
	case rp != nil:
		return errors.New("fl: tier aggregation is incompatible with Reconcile (per-client requeue needs root-visible clients)")
	}
	if agg != nil {
		if _, ok := agg.(FedAvg); !ok {
			return errors.New("fl: tier aggregation implies streaming FedAvg; custom Aggregator not supported")
		}
	}
	return nil
}

// tierSink is the in-process controller's fold-on-arrival sink: each
// arriving update is folded immediately into its edge shard's partial
// (and the raw weights dropped — the streaming O(model) property), and at
// finalize the shard partials merge up the configured tier widths with
// per-hop byte accounting before the root finalizes the FedAvg.
// Stale updates never reach it: tier mode has no AsyncAggregator, so
// they are dropped like the flat no-async path's.
type tierSink struct {
	shardOf map[string]int
	shards  []*hier.Partial
	scratch []*hier.Partial
}

// newTierSink builds the deterministic shard map for a round: contiguous
// blocks of the name-sorted sample, so the tier shape is a pure function
// of the sampled set. Shard partials are recycled from round to round: a
// nil slot still means "no update reached this shard", and a slot is
// taken from the run-long scratch (Reset keeps its slabs) the first time
// a shard folds. A reset partial accumulates bit-identically to a fresh
// one.
func (e *roundEngine) newTierSink(sampled []string) *tierSink {
	names := append([]string(nil), sampled...)
	sort.Strings(names)
	edges := e.tier.widths()[0]
	if edges > len(names) {
		edges = len(names)
	}
	shardOf := make(map[string]int, len(names))
	for i, n := range names {
		shardOf[n] = i * edges / len(names)
	}
	for len(e.partials) < edges {
		e.partials = append(e.partials, hier.NewPartial())
	}
	return &tierSink{shardOf: shardOf, shards: make([]*hier.Partial, edges), scratch: e.partials}
}

func (s *tierSink) add(name string, u *ClientUpdate) error {
	i := s.shardOf[name]
	if s.shards[i] == nil {
		s.shards[i] = s.scratch[i]
		s.shards[i].Reset()
	}
	return foldInto(s.shards[i], u)
}

// foldInto adds one arriving update to a partial: a lower edge's partial
// merges, its encoded size counted as tier bytes; a leaf's weights fold.
func foldInto(p *hier.Partial, u *ClientUpdate) error {
	if u.hierPartial != nil {
		if err := p.Merge(u.hierPartial); err != nil {
			return err
		}
		p.AddTierBytes(int64(u.PayloadBytes))
		return nil
	}
	return p.Fold(hier.Update{
		ClientName: u.ClientName, Weights: u.Weights, NumSamples: u.NumSamples,
		TrainLoss: u.TrainLoss, UpBytes: u.PayloadBytes, DownBytes: u.DownBytes,
	})
}

// finalize merges the shard partials up the tiers. Each hop accounts the
// exact wire size the level's partials would encode to — what an edge
// would have sent — without serializing them (EncodedSize is pinned
// against EncodePartial); merge order is index order, and the binned sum
// makes it irrelevant to the result anyway.
func (s *tierSink) finalize(e *roundEngine, _ map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error) {
	round, rec := e.r.round, e.r.rec
	level := make([]*hier.Partial, 0, len(s.shards))
	for _, p := range s.shards {
		if p != nil {
			level = append(level, p)
		}
	}
	climb := func(into []*hier.Partial, groupOf func(i int) int) error {
		for i, p := range level {
			size, err := p.EncodedSize()
			if err != nil {
				return fmt.Errorf("fl: round %d: encode partial: %w", round, err)
			}
			rec.TierPartials++
			rec.TierBytesUp += size
			g := groupOf(i)
			if into[g] == nil {
				// The group's first partial is adopted, not copied: the lower
				// level is dead after the climb, and merging is reproducible, so
				// "merge into an adopted sibling" and "merge into a fresh
				// empty partial" finalize bit-identically.
				into[g] = p
				into[g].AddTierBytes(size)
				continue
			}
			into[g].AddTierBytes(size)
			if err := into[g].Merge(p); err != nil {
				return fmt.Errorf("fl: round %d: merge partial: %w", round, err)
			}
		}
		return nil
	}
	for _, width := range e.tier.widths()[1:] {
		if width > len(level) {
			width = len(level)
		}
		next := make([]*hier.Partial, width)
		n := len(level)
		if err := climb(next, func(i int) int { return i * width / n }); err != nil {
			return nil, err
		}
		level = next
	}
	rootLevel := make([]*hier.Partial, 1)
	if err := climb(rootLevel, func(int) int { return 0 }); err != nil {
		return nil, err
	}
	root := rootLevel[0]
	if root == nil {
		return nil, fmt.Errorf("fl: round %d: no partials reached the root", round)
	}

	next, err := root.Finalize()
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
	rec.Participants = root.Participants()
	rec.MeanTrainLoss = root.MeanLoss()
	rec.BytesUp = root.BytesUp()
	rec.BytesDown = root.BytesDown()
	rec.TierResidentBytes = root.ResidentBytes()
	return next, nil
}

// foldSink is a tier-enabled Server's sink, root or edge: each in-time
// update folds, and each lower edge's partial merges, into one
// hier.Partial as it arrives, so the node's aggregation state is O(model)
// whatever its fan-in. It keeps only the per-update scalars flatSink
// records, so the round record reads the same as a buffered root's.
type foldSink struct {
	p   *hier.Partial
	ups []*ClientUpdate // weightless copies, for the record
}

// newFoldSink returns the round's sink over the engine's recycled
// partial (Reset keeps its slabs).
func (e *roundEngine) newFoldSink() *foldSink {
	if len(e.partials) == 0 {
		e.partials = append(e.partials, hier.NewPartial())
	}
	p := e.partials[0]
	p.Reset()
	return &foldSink{p: p}
}

func (s *foldSink) add(_ string, u *ClientUpdate) error {
	if err := foldInto(s.p, u); err != nil {
		return err
	}
	s.ups = append(s.ups, &ClientUpdate{
		ClientName: u.ClientName, NumSamples: u.NumSamples, TrainLoss: u.TrainLoss,
		PayloadBytes: u.PayloadBytes, DownBytes: u.DownBytes,
	})
	return nil
}

// record fills the round record: the per-update scalars in name order, as
// flatSink does, and the tier accounting of every hop below this node.
func (s *foldSink) record(rec *RoundRecord) {
	sort.Slice(s.ups, func(i, j int) bool { return s.ups[i].ClientName < s.ups[j].ClientName })
	recordUpdates(rec, s.ups)
	rec.TierPartials = s.p.Merged()
	rec.TierBytesUp = s.p.TierBytes()
	rec.TierResidentBytes = s.p.ResidentBytes()
}

// finalize is the root's end of the round: the partial's FedAvg.
func (s *foldSink) finalize(e *roundEngine, _ map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error) {
	s.record(e.r.rec)
	next, err := s.p.Finalize()
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", e.r.round, err)
	}
	return next, nil
}

// seal is an edge's end of the round: the round is recorded as at the
// root, and the partial goes upward unfinalized, carrying the round's
// failures in its accounting.
func (s *foldSink) seal(rec *RoundRecord) *hier.Partial {
	s.record(rec)
	for _, f := range rec.Failures {
		s.p.Fail(f)
	}
	return s.p
}

// clampSamples converts an exact partial weight to the int NumSamples
// field without overflow.
func clampSamples(v int64) int {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}
