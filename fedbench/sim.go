package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"time"

	"clinfl/internal/fl"
	"clinfl/internal/sim"
)

// Simulator population: 2,000 clients, 16 of them real and the rest
// surrogates, on a 4,096-wide linear task (LR 0.01: the default 0.05
// diverges at this width).
const (
	simClients, simRealClients, simDim           = 2000, 16, 4096
	simAsyncTimedRounds, simTierTimedRounds      = 10, 5
	simStragglerFraction, simFaultyFraction      = 0.10, 0.05
	simSampleFraction, simMinUpdates, simMinQuor = 0.5, 800, 200
)

// simBase is the population both simulator workloads share.
func simBase(seed int64) sim.Scenario {
	return sim.Scenario{
		Seed:        seed,
		Clients:     simClients,
		RealClients: simRealClients,
		Validate:    true,
		Task:        sim.LinearTask{Dim: simDim, LR: 0.01},
		Compute: sim.ComputeProfile{
			Mean:              200 * time.Millisecond,
			Jitter:            100 * time.Millisecond,
			StragglerFraction: simStragglerFraction,
			StragglerFactor:   20,
		},
	}
}

// simAsyncPass: 50% sampling with a deadline plus MinUpdates, 5% faulty
// clients, FedAsync late merging, raw/f32 uplinks, the chaos soak's
// reconciliation policy and a flat root.
func simAsyncPass(env passEnv) (*passResult, error) {
	sc := simBase(env.seed)
	sc.Name = "sim-async-2k"
	sc.SampleFraction = simSampleFraction
	sc.MinUpdates = simMinUpdates
	sc.MinClients = simMinQuor
	sc.RoundDeadline = 2 * time.Second
	sc.FedAsyncAlpha = 0.5
	sc.Codecs = []string{"raw", "f32"}
	sc.Faults = sim.FaultProfile{FaultyFraction: simFaultyFraction, DropProb: 0.3}
	sc.Reconcile = sim.ChaosFlapScenario(env.seed).Reconcile
	return simPass(env, sc, simAsyncTimedRounds)
}

// simTierPass: the same population folded through a [32, 8] tier with
// full participation. Tier mode rejects FedAsync and reconciliation, and
// the workload scripts no faults.
func simTierPass(env passEnv) (*passResult, error) {
	sc := simBase(env.seed)
	sc.Name = "sim-tier-2k"
	sc.MinClients = 1
	sc.Tier = []int{32, 8}
	return simPass(env, sc, simTierTimedRounds)
}

// simPass runs a scenario twice: a one-round probe (setup: population,
// calibration, roster and the warmup round) and the full 1+timed-round
// run. sim.Scenario.Run is one call, so the timed rounds' wall time, CPU
// and allocation are the full run's minus the probe's; both build the
// identical federation and run the identical first round.
func simPass(env passEnv, sc sim.Scenario, timedRounds int) (*passResult, error) {
	probe := sc
	probe.Rounds = 1
	u0 := readUsage()
	if _, err := probe.Run(); err != nil {
		return nil, err
	}
	u1 := readUsage()
	full := sc
	full.Rounds = 1 + timedRounds
	var prof profiler
	if env.traced {
		prof.start()
	}
	res, err := full.Run()
	u2 := readUsage()
	samples, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	setup, whole := u1.since(u0), u2.since(u1)
	timed := delta{wall: whole.wall - setup.wall, cpu: whole.cpu - setup.cpu}
	if whole.alloc > setup.alloc {
		timed.alloc = whole.alloc - setup.alloc
	}
	p := &passResult{
		setup:    setup.wall,
		timed:    timed,
		rounds:   timedRounds,
		roundDur: []float64{timed.wall.Seconds() / float64(timedRounds)},
		// Seeds draw ground truths of different norms, so the holdout MSE
		// is reported relative to the initial model's.
		valLoss:   res.FinalMSE / res.InitialMSE,
		initLoss:  res.InitialMSE,
		roundsRun: 1 + len(res.Result.History.Rounds),
		samples:   samples,
	}
	hist := res.Result.History.Rounds
	faulty := map[string]bool{}
	for _, n := range res.Faulty {
		faulty[n] = true
	}
	for _, r := range hist {
		p.tasks += len(r.Sampled) + len(r.Reassigned)
		p.taskFails += len(r.Failures)
		bad := false
		for _, f := range r.Failures {
			name, _, _ := strings.Cut(f, ": ")
			if !faulty[name] || !strings.Contains(f, "faulted on round") {
				bad = true
			}
		}
		if sc.Tier != nil && len(r.Participants) != sc.Clients {
			bad = true
		}
		if bad {
			p.roundFails++
			p.checkf("round %d: %d participants, unscripted failures in %v", r.Round, len(r.Participants), r.Failures)
		}
		if r.Round > 0 {
			p.wire += r.BytesUp + r.BytesDown
		}
	}
	if sc.Faults.FaultyFraction > 0 && p.taskFails == 0 {
		p.checkf("no scripted fault fired in %d rounds", len(hist))
	}
	if !(res.FinalMSE < res.InitialMSE) || math.IsNaN(res.FinalMSE) {
		p.checkf("final MSE %v is not below initial MSE %v", res.FinalMSE, res.InitialMSE)
	}
	hj, err := res.HistoryJSON()
	if err != nil {
		return nil, err
	}
	wd, err := sim.CanonicalWeightsDigest(res.Result.FinalWeights)
	if err != nil {
		return nil, err
	}
	hd := sha256.Sum256(hj)
	p.digest = hex.EncodeToString(hd[:8]) + "/" + wd[:16]
	p.layers = simLayers(hist[1:])
	return p, nil
}

// simLayers reads the per-layer counts the simulator's History exports,
// over the timed rounds. The virtual-clock values are deterministic.
func simLayers(hist []fl.RoundRecord) map[string]float64 {
	n := float64(len(hist))
	var virt []float64
	var late, strag, reassigned, failures, partials, tierUp, resident float64
	for _, r := range hist {
		virt = append(virt, r.Duration.Seconds())
		late += float64(len(r.LateApplied))
		reassigned += float64(len(r.Reassigned))
		failures += float64(len(r.Failures))
		done := map[string]bool{}
		for _, c := range r.Participants {
			done[c] = true
		}
		for _, f := range r.Failures {
			name, _, _ := strings.Cut(f, ": ")
			done[name] = true
		}
		for _, c := range r.Sampled {
			if !done[c] {
				strag++
			}
		}
		partials += float64(r.TierPartials)
		tierUp += float64(r.TierBytesUp)
		resident = math.Max(resident, float64(r.TierResidentBytes))
	}
	return map[string]float64{
		"sim.virtual_round_p50_s":    median(virt),
		"sim.late_applied_per_round": late / n,
		"sim.stragglers_per_round":   strag / n,
		"sim.reassigned_per_round":   reassigned / n,
		"sim.failures_per_round":     failures / n,
		"hier.partials_per_round":    partials / n,
		"hier.bytes_up_per_round":    tierUp / n,
		"hier.resident_bytes":        resident,
	}
}
