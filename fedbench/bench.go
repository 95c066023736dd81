package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// workload is one federation the benchmark drives. A run repeats passes —
// each one a fresh federation built from the seed: setup, one warmup
// round, then a fixed number of timed rounds — enough of them to measure
// about --seconds of timed rounds. Every pass of one seed must end
// bit-identical.
type workload struct {
	why string
	// passSeconds is the nominal timed seconds of one pass on the
	// reference machine; it sets how many passes --seconds buys.
	passSeconds float64
	pass        func(env passEnv) (*passResult, error)
}

// passEnv is what one pass gets from the run.
type passEnv struct {
	seed   int64
	traced bool
	tmp    string // scratch directory inside the checkout (WAL files)
}

// usage is a point-in-time reading of the process's clocks and counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// readUsage reads wall time, process user+system CPU and cumulative heap
// allocation. It does not stop the world.
func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

// delta is the usage between two readings.
type delta struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (u usage) since(from usage) delta {
	return delta{wall: u.wall.Sub(from.wall), cpu: u.cpu - from.cpu, alloc: u.alloc - from.alloc}
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024
}

// passResult is what one pass measured and checked.
type passResult struct {
	setup  time.Duration // build plus warmup round
	timed  delta         // over the timed rounds
	rounds int           // timed rounds
	// roundDur holds the timed rounds' durations in seconds: the
	// program's RoundRecord.Duration on real-clock workloads, the mean
	// real time of a timed round on the simulator ones.
	roundDur []float64
	wire     int64 // bytes moved during the timed rounds
	valLoss  float64
	initLoss float64 // the initial model's holdout loss, where known
	digest   string  // final weights (and, in the simulator, History)
	// roundsRun / roundFails count every round, warmup included, and the
	// rounds that failed a check.
	roundsRun, roundFails int
	// tasks / taskFails count client tasks dispatched and failed.
	tasks, taskFails int
	layers           map[string]float64
	samples          []cpuSample
	checks           []string
}

// checkf records a failed output check.
func (p *passResult) checkf(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// profiler collects a CPU profile in memory.
type profiler struct {
	buf bytes.Buffer
	on  bool
}

func (p *profiler) start() {
	if pprof.StartCPUProfile(&p.buf) == nil {
		p.on = true
	}
}

func (p *profiler) stop() ([]cpuSample, error) {
	if !p.on {
		return nil, nil
	}
	pprof.StopCPUProfile()
	p.on = false
	return parseCPUProfile(p.buf.Bytes())
}

// endToEnd lists the untraced metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"rounds_per_s", "1/s"},
	{"round_p50_s", "s"},
	{"round_tail_s", "s"},
	{"cpu_s_per_round", "s"},
	{"alloc_bytes_per_round", "bytes"},
	{"peak_rss_bytes", "bytes"},
	{"wire_bytes_per_round", "bytes"},
	{"final_val_loss", "loss"},
	{"setup_s", "s"},
}

// perLayer lists the traced metrics with their units.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"fl.executor.train_s.p50", "s"},
		{"fl.executor.train_s.slowest", "s"},
		{"fl.validate_s", "s"},
		{"fl.aggregate_s", "s"},
		{"fl.round.self_s", "s"},
		{"fl.client.decode_s", "s"},
		{"fl.client.encode_s", "s"},
		{"transport.write_s.p50", "s"},
		{"transport.msgs_per_round", "count"},
		{"transport.bytes_up_per_round", "bytes"},
		{"transport.bytes_down_per_round", "bytes"},
		{"durable.appends_per_round", "count"},
		{"durable.fsyncs_per_round", "count"},
		{"durable.log_bytes_per_round", "bytes"},
		{"hier.partials_per_round", "count"},
		{"hier.bytes_up_per_round", "bytes"},
		{"hier.resident_bytes", "bytes"},
		{"sim.virtual_round_p50_s", "s"},
		{"sim.late_applied_per_round", "count"},
		{"sim.stragglers_per_round", "count"},
		{"sim.reassigned_per_round", "count"},
		{"sim.failures_per_round", "count"},
		{"task_fail_ratio", "ratio"},
	}
	for _, m := range cpuModules {
		out = append(out, struct{ name, unit string }{"cpu_share." + m, "share"})
	}
	return append(out,
		struct{ name, unit string }{"trace.overhead", "ratio"},
		struct{ name, unit string }{"trace.coverage", "ratio"})
}()

// run drives the workload's passes and assembles the result. Traced runs
// alternate untraced and traced passes, so the tracing overhead is
// measured on the same run.
func run(w workload, o options, tmp string) (result, report, error) {
	rep := report{Workload: o.workload, Seed: o.seed, Trace: o.trace}
	// The pass count follows from --seconds and the workload's nominal
	// timed seconds per pass, not from the clock, so every run of one
	// configuration takes the same number of samples (and reports its tail
	// at the same percentile). At least two passes: the setup median needs
	// them, the determinism check compares them, and a traced run needs an
	// untraced pass for the overhead.
	n := max(2, int(math.Round(o.seconds/w.passSeconds)))
	start := time.Now()
	var passes []*passResult
	var passErr error
	for i := 0; i < n && (i < 2 || time.Since(start) < maxRunTime); i++ {
		env := passEnv{seed: o.seed, traced: o.trace && i%2 == 1, tmp: tmp}
		// Start every pass from a collected heap, so one pass's garbage
		// does not inflate the next one's memory or GC time.
		debug.FreeOSMemory()
		p, err := w.pass(env)
		if err != nil {
			passErr = fmt.Errorf("pass %d: %w", i, err)
			break
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return result{}, rep, passErr
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var checks []string
	if passErr != nil {
		checks = append(checks, passErr.Error())
		res.Failed++
	}
	// Per-pass rates feed medians, so a burst of load from outside the
	// benchmark that hits one pass does not move the run's figure.
	var setups, roundDur, p50s, tails, rps, cpu, alloc []float64
	var rounds int
	var wire int64
	for i, p := range passes {
		res.Attempted += p.roundsRun
		res.Failed += p.roundFails
		for _, c := range p.checks {
			checks = append(checks, fmt.Sprintf("pass %d: %s", i, c))
		}
		if len(p.checks) > p.roundFails {
			res.Failed += len(p.checks) - p.roundFails
		}
		if p.digest != passes[0].digest {
			checks = append(checks, fmt.Sprintf("pass %d: final digest %s differs from pass 0's %s", i, p.digest, passes[0].digest))
			res.Failed++
		}
		if math.Float64bits(p.valLoss) != math.Float64bits(passes[0].valLoss) {
			checks = append(checks, fmt.Sprintf("pass %d: final loss %v differs from pass 0's %v", i, p.valLoss, passes[0].valLoss))
			res.Failed++
		}
		setups = append(setups, p.setup.Seconds())
		passRate := float64(p.rounds) / p.timed.wall.Seconds()
		rep.PassRoundsPerS = append(rep.PassRoundsPerS, passRate)
		if o.trace && i%2 == 1 {
			continue // traced passes feed only the per-layer metrics
		}
		roundDur = append(roundDur, p.roundDur...)
		p50s = append(p50s, median(p.roundDur))
		tails = append(tails, passTail(p.roundDur))
		rps = append(rps, passRate)
		cpu = append(cpu, p.timed.cpu.Seconds()/float64(p.rounds))
		alloc = append(alloc, float64(p.timed.alloc)/float64(p.rounds))
		rounds += p.rounds
		wire += p.wire
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = len(checks) == 0
	rep.Passes = len(passes)
	rep.PassSetupS = setups
	rep.TimedRounds = rounds
	rep.RoundSamples = len(roundDur)
	rep.TailSamples = len(passes[0].roundDur)
	rep.TailPercentile = tailPercentile(rep.TailSamples)
	rep.FinalDigest = passes[0].digest
	rep.InitialLoss = passes[0].initLoss
	rep.Checks = checks

	if !o.trace {
		set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
		set("rounds_per_s", median(rps))
		set("round_p50_s", median(p50s))
		set("round_tail_s", median(tails))
		set("cpu_s_per_round", median(cpu))
		set("alloc_bytes_per_round", median(alloc))
		set("peak_rss_bytes", peakRSS())
		set("wire_bytes_per_round", float64(wire)/float64(max(rounds, 1)))
		set("final_val_loss", passes[0].valLoss)
		set("setup_s", median(setups))
		return res, rep, nil
	}

	// Per-layer metrics: mean over traced passes, CPU samples pooled.
	var traced, plain []*passResult
	for i, p := range passes {
		if i%2 == 1 {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	sums := map[string]float64{}
	var samples []cpuSample
	for _, p := range traced {
		for k, v := range p.layers {
			sums[k] += v
		}
		samples = append(samples, p.samples...)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: sums[m.name] / float64(max(len(traced), 1)), Unit: m.unit}
	}
	for mod, share := range cpuShares(samples) {
		res.Metrics["cpu_share."+mod] = metric{Value: share, Unit: "share"}
	}
	res.Metrics["task_fail_ratio"] = metric{Value: ratio(sumInt(passes, func(p *passResult) int { return p.taskFails }),
		sumInt(passes, func(p *passResult) int { return p.tasks })), Unit: "ratio"}
	res.Metrics["trace.overhead"] = metric{Value: roundsPerSec(plain)/roundsPerSec(traced) - 1, Unit: "ratio"}
	rep.TopLeaves = topLeaves(samples, 12)
	return res, rep, nil
}

// passTail is one pass's round-duration tail: the percentile
// tailPercentile picks for the pass's sample count. The run reports the
// median of its passes' tails (and of their medians), so a burst of load
// from outside the benchmark that slows one pass does not set the run's
// figure.
func passTail(dur []float64) float64 {
	p := tailPercentile(len(dur))
	if p == 50 {
		return median(dur) // too few samples for any tail percentile
	}
	return quantile(dur, p/100)
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

func roundsPerSec(ps []*passResult) float64 {
	var r int
	var d time.Duration
	for _, p := range ps {
		r += p.rounds
		d += p.timed.wall
	}
	return float64(r) / d.Seconds()
}

func sumInt(ps []*passResult, f func(*passResult) int) int {
	s := 0
	for _, p := range ps {
		s += f(p)
	}
	return s
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// workloads is the benchmark's registry.
var workloads = map[string]workload{
	"bert-finetune": {passSeconds: 7.5, pass: bertPass,
		why: "the paper's headline BERT fine-tune; GEMM, autograd and the optimizer do most of the round"},
	"lstm-tls-wal": {passSeconds: 7, pass: lstmPass,
		why: "the Fig. 3 deployment over mutual-TLS loopback with a group-commit WAL; codec, TLS, WAL and gather carry a large share"},
	"sim-async-2k": {passSeconds: 1.25, pass: simAsyncPass,
		why: "2,000 simulated clients, straggler-tolerant FedAsync with reconciliation; buffered flat FedAvg at ~1,000 updates a round"},
	"sim-tier-2k": {passSeconds: 1.6, pass: simTierPass,
		why: "the same population folded through a [32, 8] aggregation tier; streaming partial folds instead of buffering"},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
