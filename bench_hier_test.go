// Benchmark for the streaming-aggregation tax: what folding each arriving
// update into a shard partial, climbing the tier merges and finalizing
// costs, relative to the identical flat round. BenchmarkTable3_FLRoundHierLSTM and its control
// BenchmarkTable3_FLRoundFlatLSTM run the same cohort, executors and
// round shape — 8 clients with 3 local batches each, a round where
// training dominates the way it does in any real federation — differing
// only in ControllerConfig.Tier, so their ratio isolates the tier tax.
// CI gates the overhead at 5% via bench_check's A/B mode, so the tier
// and its O(model) root state stay affordable on the training hot path.
package clinfl_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/fl"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/tensor"
)

func benchmarkFLRoundHier(b *testing.B, name string, clients, perClient int, tier *fl.TierConfig) {
	ds, vocab := benchCohort(b, clients*perClient+16)
	shards, err := data.PartitionBalanced(ds[:clients*perClient], clients)
	if err != nil {
		b.Fatal(err)
	}
	executors := make([]fl.Executor, clients)
	var ref model.Classifier
	for i, shard := range shards {
		m := benchModel(b, name, vocab)
		if i == 0 {
			ref = m
		}
		exec, err := fl.NewClassifierExecutor(fmt.Sprintf("site-%d", i), m, shard, nil,
			fl.LocalConfig{Epochs: 1, LR: 1e-3, BatchSize: 16, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		executors[i] = exec
	}
	initial := nn.SnapshotWeights(ref.Params())
	if err := runFLRoundsHier(executors, initial, tier, 1); err != nil {
		b.Fatal(err)
	}
	// One controller runs all b.N rounds — the shape every real federation
	// (and the sim) has, and what lets the tier path's round-over-round
	// shard recycling show up in the measurement instead of a fresh
	// controller's first-round allocations b.N times over.
	b.ResetTimer()
	if err := runFLRoundsHier(executors, initial, tier, b.N); err != nil {
		b.Fatal(err)
	}
}

func runFLRoundsHier(executors []fl.Executor, initial map[string]*tensor.Matrix, tier *fl.TierConfig, rounds int) error {
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds:        rounds,
		RoundDeadline: time.Minute,
		Tier:          tier,
	}, executors)
	if err != nil {
		return err
	}
	_, err = ctrl.Run(context.Background(), initial)
	return err
}

func BenchmarkTable3_FLRoundHierLSTM(b *testing.B) {
	benchmarkFLRoundHier(b, "lstm", 8, 48, &fl.TierConfig{Aggregators: []int{2}})
}

// BenchmarkTable3_FLRoundFlatLSTM is the hier benchmark's control: the
// identical cohort and round with Tier nil (legacy buffered
// weightedAverage at the root). Only the pair's ratio is gated; the
// smaller BenchmarkTable3_FLRoundLSTM remains the durability/reconcile
// pairs' shared baseline.
func BenchmarkTable3_FLRoundFlatLSTM(b *testing.B) {
	benchmarkFLRoundHier(b, "lstm", 8, 48, nil)
}
