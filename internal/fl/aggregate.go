// Package fl implements the federated-learning stack modeled on NVFlare's
// scatter-and-gather workflow (Fig. 1): a server-side controller that
// dispatches the global model each round, client-side executors that train
// locally, weighted FedAvg aggregation, model selection, and both an
// in-process simulator (NVFlare's simulator mode) and a networked
// deployment over the provision/transport substrate.
package fl

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"clinfl/internal/fl/hier"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

// ClientUpdate is one client's contribution for a round.
type ClientUpdate struct {
	ClientName string
	Round      int
	// Weights are the client's post-training parameters.
	Weights map[string]*tensor.Matrix
	// NumSamples weights this update during aggregation.
	NumSamples int
	// TrainLoss is the client's mean local training loss for the round.
	TrainLoss float64
	// PayloadBytes is the encoded update's size on the wire (0 for
	// in-process executors); experiments report bytes-on-wire from it.
	PayloadBytes int
	// DownBytes is the encoded task (global model) payload the client paid
	// to download before training this round — the downlink counterpart of
	// PayloadBytes, stamped by executors that model or measure their own
	// transfers (the simulator's clients, cost-replaying surrogates). The
	// networked server accounts downlink at send time instead and leaves
	// this zero; it is advisory accounting and is not persisted in WAL
	// update records.
	DownBytes int
	// hierPartial carries a tier partial when this "update" is an edge
	// aggregator's merged uplink rather than a single client's weights:
	// an Edge's round result on its way up, or a decoded uplink that a
	// tier-enabled server's sink merges.
	hierPartial *hier.Partial
}

// Aggregator combines client updates into a new global model.
type Aggregator interface {
	// Aggregate merges updates; the result maps parameter names to new
	// global values.
	Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error)
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAvg is the sample-count-weighted parameter average of McMahan et al.,
// NVFlare's default aggregator and the one the paper's pipeline uses. It
// folds every update into a one-node hier.Partial, so its bits are the
// reproducible binned sum the aggregation tier computes — independent of
// update order, and identical to any tier shape's.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (FedAvg) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return foldAverage(updates, func(u *ClientUpdate) int { return u.NumSamples })
}

// MeanAggregator averages updates uniformly regardless of client data
// volume; included as the ablation baseline DESIGN.md calls out.
type MeanAggregator struct{}

// Name implements Aggregator.
func (MeanAggregator) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (MeanAggregator) Aggregate(updates []*ClientUpdate) (map[string]*tensor.Matrix, error) {
	return foldAverage(updates, func(*ClientUpdate) int { return 1 })
}

// rootPartial keeps the flat root's accumulator between Aggregate calls,
// so a federation aggregating the same model every round reuses its
// O(model) bin slabs instead of allocating them per round. It is not a
// sync.Pool: a pool empties over two GC cycles, which an aggregation-heavy
// workload runs between rounds, and then every round allocates the slabs
// again. Callers take it with Swap(nil), so concurrent Aggregate calls
// never share one (the second allocates its own), and put it back when
// done; what it holds never changes a result.
var rootPartial atomic.Pointer[hier.Partial]

// takeRoot returns an empty partial, the kept one when there is one.
func takeRoot() *hier.Partial {
	if p := rootPartial.Swap(nil); p != nil {
		p.Reset()
		return p
	}
	return hier.NewPartial()
}

// foldAverage folds updates, weighted by weightOf, into the root
// accumulator and finalizes their weighted mean.
func foldAverage(updates []*ClientUpdate, weightOf func(*ClientUpdate) int) (map[string]*tensor.Matrix, error) {
	if len(updates) == 0 {
		return nil, errors.New("fl: no updates to aggregate")
	}
	root := takeRoot()
	defer rootPartial.Store(root)
	for _, u := range updates {
		err := root.Fold(hier.Update{ClientName: u.ClientName, Weights: u.Weights, NumSamples: weightOf(u)})
		if err != nil {
			return nil, fmt.Errorf("fl: aggregate: %w", err)
		}
	}
	return root.Finalize()
}

// AsyncAggregator folds a single (possibly stale) update into the current
// global model, FedAsync-style: unlike Aggregator it does not wait for a
// batch of updates, so the controller can apply stragglers' contributions
// from earlier rounds as they trickle in.
type AsyncAggregator interface {
	// Apply mutates global in place with u's contribution. staleness is
	// how many rounds old the update is (0 = current round).
	Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error
	// Name identifies the strategy in logs and experiment records.
	Name() string
}

// FedAsync is the staleness-damped asynchronous merge of Xie et al.
// (FedAsync): global ← (1-α_s)·global + α_s·update with α_s =
// Alpha/(1+staleness), so fresher updates move the model more and ancient
// ones fade toward no-ops instead of dragging it backward.
type FedAsync struct {
	// Alpha is the mixing rate for a fresh (staleness-0) update; values in
	// (0, 1]. Zero defaults to 0.5.
	Alpha float64
}

// Name implements AsyncAggregator.
func (FedAsync) Name() string { return "fedasync" }

// Apply implements AsyncAggregator.
func (f FedAsync) Apply(global map[string]*tensor.Matrix, u *ClientUpdate, staleness int) error {
	alpha := f.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("fl: fedasync alpha %v out of (0,1]", alpha)
	}
	if staleness < 0 {
		return fmt.Errorf("fl: fedasync negative staleness %d", staleness)
	}
	if len(u.Weights) != len(global) {
		return fmt.Errorf("fl: fedasync: client %q sent %d params, want %d", u.ClientName, len(u.Weights), len(global))
	}
	a := alpha / float64(1+staleness)
	for name, g := range global {
		w, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("fl: fedasync: client %q missing param %q", u.ClientName, name)
		}
		g.ScaleInPlace(1 - a)
		if err := g.AddScaledInPlace(a, w); err != nil {
			return fmt.Errorf("fl: fedasync %q from %q: %w", name, u.ClientName, err)
		}
	}
	return nil
}

// EncodeWeights serializes a weight map in the raw (exact float64)
// transport format; senders with a negotiated codec call its Encode
// instead.
func EncodeWeights(weights map[string]*tensor.Matrix) ([]byte, error) {
	var buf bytes.Buffer
	if err := nn.WriteWeightMap(&buf, weights); err != nil {
		return nil, fmt.Errorf("fl: encode weights: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeWeights parses a transported weight map produced by any registered
// codec (raw, f32-quantized, top-k sparse), sniffing the format from the
// payload's magic.
func DecodeWeights(blob []byte) (map[string]*tensor.Matrix, error) {
	weights, err := decoderFor(blob).Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("fl: decode weights: %w", err)
	}
	return weights, nil
}
