package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"clinfl/internal/data"
	"clinfl/internal/ehr"
	"clinfl/internal/fl"
	"clinfl/internal/fl/durable"
	"clinfl/internal/model"
	"clinfl/internal/nn"
	"clinfl/internal/provision"
	"clinfl/internal/sim"
	"clinfl/internal/tensor"
	"clinfl/internal/token"
	"clinfl/internal/transport"
)

// Workload sizes. A pass is one warmup round plus the timed rounds.
const (
	bertSites, bertRecords, bertMaxLen, bertHoldout, bertTimedRounds = 4, 8, 24, 32, 3
	lstmRecords, lstmMaxLen, lstmHoldout, lstmTimedRounds            = 2, 12, 64, 100
)

// positiveRate is the cohort's treatment-failure rate.
const positiveRate = 1824.0 / 8638.0

// initSeed seeds every model's initial weights, so the workload seed
// varies only the data: a seed-drawn initialization swings the holdout
// loss of a few-round federation more than the federation moves it.
const initSeed = 1

// cohort generates an encoded ADR cohort from seed and splits it into
// sites shards of perSite records and a holdout of nHoldout records. The
// holdout is stratified to the cohort's positive rate, so the loss does not
// swing with how many positives a seed happens to draw. With
// stratifyShards the shards are too, their positives dealt round-robin
// across sites; otherwise they are the first records in generation order.
func cohort(seed int64, sites, perSite, nHoldout, maxLen int, stratifyShards bool) (shards []data.Dataset, holdout data.Dataset, vocabSize int, err error) {
	nTrain := sites * perSite
	cfg := ehr.DefaultConfig()
	cfg.Seed = seed
	cfg.Patients = 8 * (nTrain + nHoldout)
	cfg.CorpusSentences = 1
	patients, err := ehr.GenerateCohort(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	streams := make([][]string, len(patients))
	for i, p := range patients {
		streams[i] = p.Tokens
	}
	vocab, err := token.BuildVocab(streams, 1, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	tok, err := token.NewTokenizer(vocab, maxLen)
	if err != nil {
		return nil, nil, 0, err
	}
	all := make(data.Dataset, len(patients))
	for i, p := range patients {
		ids, padMask := tok.Encode(p.Tokens)
		all[i] = data.Example{IDs: ids, PadMask: padMask, Label: p.Outcome}
	}
	rest := all
	if !stratifyShards {
		if shards, err = data.PartitionBalanced(all[:nTrain], sites); err != nil {
			return nil, nil, 0, err
		}
		rest = all[nTrain:]
	}
	var pos, neg data.Dataset
	for _, ex := range rest {
		if ex.Label == 1 {
			pos = append(pos, ex)
		} else {
			neg = append(neg, ex)
		}
	}
	if stratifyShards {
		shards = make([]data.Dataset, sites)
		trainPos := int(math.Round(positiveRate * float64(nTrain)))
		for i := 0; i < trainPos && len(pos) > 0; i++ {
			shards[i%sites] = append(shards[i%sites], pos[0])
			pos = pos[1:]
		}
		for i := range shards {
			for len(shards[i]) < perSite && len(neg) > 0 {
				shards[i] = append(shards[i], neg[0])
				neg = neg[1:]
			}
		}
	}
	holdPos := int(math.Round(positiveRate * float64(nHoldout)))
	if len(pos) < holdPos || len(neg) < nHoldout-holdPos || len(shards[sites-1]) < perSite {
		return nil, nil, 0, errors.New("cohort too small to stratify")
	}
	holdout = append(append(holdout, pos[:holdPos]...), neg[:nHoldout-holdPos]...)
	return shards, holdout, vocab.Size(), nil
}

// holdoutLoss returns the mean binary cross-entropy of a model on a
// holdout set.
func holdoutLoss(m model.Classifier, holdout data.Dataset) func(map[string]*tensor.Matrix) (float64, error) {
	pp, ok := m.(interface {
		PredictProbs([]data.Example) ([]float64, error)
	})
	return func(w map[string]*tensor.Matrix) (float64, error) {
		if !ok {
			return 0, errors.New("model has no PredictProbs")
		}
		if err := nn.LoadWeights(m.Params(), w); err != nil {
			return 0, err
		}
		probs, err := pp.PredictProbs(holdout)
		if err != nil {
			return 0, err
		}
		var sum float64
		for i, p := range probs {
			if holdout[i].Label == 0 {
				p = 1 - p
			}
			sum -= math.Log(math.Max(p, 1e-12))
		}
		return sum / float64(len(probs)), nil
	}
}

// counters are cumulative program counters read at the setup and end
// boundaries of a pass.
type counters struct{ wire, appends, fsyncs, logBytes int64 }

// walEvent is one WAL append seen through durable.Options.OnAppend.
type walEvent struct {
	at    time.Duration
	typ   durable.RecordType
	round int
}

// roundWatch turns the Validate callback — called once per round, after
// aggregation — into round boundaries on the tracer's timeline. The end
// of round 0 closes setup; the end of the last round closes the timed
// window. Traced passes profile the CPU between the two.
type roundWatch struct {
	tr       *tracer
	total    int // warmup plus timed rounds
	traced   bool
	counters func() counters

	bounds       []time.Duration
	losses       []float64
	start, setup usage
	end          usage
	cSetup, cEnd counters
	prof         profiler
	samples      []cpuSample
	profErr      error
	lossFn       func(map[string]*tensor.Matrix) (float64, error)
	// finalOnly skips the holdout loss on every round but the last, for
	// workloads whose rounds validation would otherwise dominate.
	finalOnly bool
}

func newRoundWatch(total int, traced bool, read func() counters) *roundWatch {
	if read == nil {
		read = func() counters { return counters{} }
	}
	return &roundWatch{tr: newTracer(), total: total, traced: traced, counters: read, start: readUsage()}
}

// validate is the federation's Validate callback: the holdout loss,
// negated so a higher score is better.
func (rw *roundWatch) validate(w map[string]*tensor.Matrix) (float64, error) {
	s := rw.tr.now()
	var loss float64
	var err error
	if !rw.finalOnly || len(rw.bounds)+1 == rw.total {
		loss, err = rw.lossFn(w)
	}
	e := rw.tr.now()
	rw.tr.add(span{layer: spanValidate, iv: interval{s, e}})
	rw.bounds = append(rw.bounds, e)
	rw.losses = append(rw.losses, loss)
	switch len(rw.bounds) {
	case 1:
		rw.setup, rw.cSetup = readUsage(), rw.counters()
		if rw.traced {
			rw.prof.start()
		}
	case rw.total:
		rw.end, rw.cEnd = readUsage(), rw.counters()
		rw.samples, rw.profErr = rw.prof.stop()
	}
	return -loss, err
}

// finish fills the timing and checks common to both real-clock
// workloads from the federation's result.
func (rw *roundWatch) finish(res *fl.Result, sites []string) (*passResult, error) {
	if len(rw.bounds) != rw.total {
		return nil, fmt.Errorf("saw %d of %d rounds", len(rw.bounds), rw.total)
	}
	if rw.profErr != nil {
		return nil, rw.profErr
	}
	p := &passResult{
		setup:     rw.setup.wall.Sub(rw.start.wall),
		timed:     rw.end.since(rw.setup),
		rounds:    rw.total - 1,
		wire:      rw.cEnd.wire - rw.cSetup.wire,
		valLoss:   rw.losses[len(rw.losses)-1],
		roundsRun: len(res.History.Rounds),
		samples:   rw.samples,
	}
	if !rw.finalOnly {
		// Every round was scored: report the model the federation
		// selects (the best-scoring round, NVFlare's in-time model
		// selection), which is the one a site would deploy.
		p.valLoss = -res.History.BestScore
	}
	want := append([]string(nil), sites...)
	sort.Strings(want)
	for i, r := range res.History.Rounds {
		if i > 0 {
			p.roundDur = append(p.roundDur, r.Duration.Seconds())
		}
		p.tasks += len(r.Sampled)
		p.taskFails += len(r.Failures)
		got := append([]string(nil), r.Participants...)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(r.Failures) > 0 || r.Degraded ||
			len(r.LateApplied)+len(r.LateDropped) > 0 {
			p.roundFails++
			p.checkf("round %d: participants %v, failures %v", r.Round, got, r.Failures)
		}
	}
	if len(res.History.FinishFailures) > 0 {
		p.checkf("final broadcast failed for %v", res.History.FinishFailures)
	}
	for name, m := range res.FinalWeights {
		for _, v := range m.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				p.checkf("final weights: %s is not finite", name)
				break
			}
		}
	}
	if math.IsNaN(p.valLoss) || math.IsInf(p.valLoss, 0) {
		p.checkf("final holdout loss %v is not finite", p.valLoss)
	}
	digest, err := sim.CanonicalWeightsDigest(res.FinalWeights)
	if err != nil {
		return nil, err
	}
	p.digest = digest
	return p, nil
}

// layers computes the real-clock per-layer metrics of a traced pass.
// Round r's cycle runs from the end of round r-1's Validate to the end of
// its own; the program's round (RoundRecord.Duration) opens the cycle.
func (rw *roundWatch) layers(hist []fl.RoundRecord, wal []walEvent) map[string]float64 {
	spans := rw.tr.snapshot()
	byLayer := map[string][]float64{}
	var slowest, self, coverage []float64
	var msgs, up, down int64
	for r := 1; r < rw.total; r++ {
		cycle := interval{rw.bounds[r-1], rw.bounds[r]}
		round := interval{cycle.start, cycle.start + hist[r].Duration}
		var children, named []interval
		named = append(named, round)
		var slow float64
		for _, s := range spans {
			if s.iv.start < cycle.start || s.iv.start >= cycle.end {
				continue
			}
			d := (s.iv.end - s.iv.start).Seconds()
			byLayer[s.layer] = append(byLayer[s.layer], d)
			named = append(named, s.iv)
			switch s.layer {
			case spanValidate:
				continue
			case spanTrain:
				slow = math.Max(slow, d)
			case spanWrite:
				msgs++
				if s.up {
					up += s.bytes
				} else {
					down += s.bytes
				}
			}
			children = append(children, s.iv)
		}
		// The WAL commit follows the round: from its end to the last
		// model-commit append for this round.
		for _, ev := range wal {
			if ev.typ == durable.RecModelCommit && ev.round == r && ev.at > round.end && ev.at < cycle.end {
				named = append(named, interval{round.end, ev.at})
			}
		}
		slowest = append(slowest, slow)
		self = append(self, selfTime(round, children).Seconds())
		coverage = append(coverage, float64(unionLength(named, cycle.start, cycle.end))/float64(cycle.end-cycle.start))
	}
	n := float64(rw.total - 1)
	minCov := coverage[0]
	for _, c := range coverage {
		minCov = math.Min(minCov, c)
	}
	return map[string]float64{
		"fl.executor.train_s.p50":        median(byLayer[spanTrain]),
		"fl.executor.train_s.slowest":    median(slowest),
		"fl.validate_s":                  median(byLayer[spanValidate]),
		"fl.aggregate_s":                 median(byLayer[spanAggregate]),
		"fl.round.self_s":                median(self),
		"fl.client.decode_s":             median(byLayer[spanDecode]),
		"fl.client.encode_s":             median(byLayer[spanEncode]),
		"transport.write_s.p50":          median(byLayer[spanWrite]),
		"transport.msgs_per_round":       float64(msgs) / n,
		"transport.bytes_up_per_round":   float64(up) / n,
		"transport.bytes_down_per_round": float64(down) / n,
		"durable.appends_per_round":      float64(rw.cEnd.appends-rw.cSetup.appends) / n,
		"durable.fsyncs_per_round":       float64(rw.cEnd.fsyncs-rw.cSetup.fsyncs) / n,
		"durable.log_bytes_per_round":    float64(rw.cEnd.logBytes-rw.cSetup.logBytes) / n,
		"trace.coverage":                 minCov,
	}
}

// bertPass runs one in-process BERT fine-tuning federation.
func bertPass(env passEnv) (*passResult, error) {
	const total = 1 + bertTimedRounds
	rw := newRoundWatch(total, env.traced, nil)
	shards, holdout, vocab, err := cohort(env.seed, bertSites, bertRecords, bertHoldout, bertMaxLen, false)
	if err != nil {
		return nil, err
	}
	newBERT := func() (model.Classifier, error) {
		return model.New(model.SpecBERT, vocab, bertMaxLen, 2, initSeed)
	}
	valModel, err := newBERT()
	if err != nil {
		return nil, err
	}
	rw.lossFn = holdoutLoss(valModel, holdout)
	execs := make([]fl.Executor, bertSites)
	sites := make([]string, bertSites)
	for i, shard := range shards {
		m, err := newBERT()
		if err != nil {
			return nil, err
		}
		sites[i] = fmt.Sprintf("site-%d", i+1)
		ex, err := fl.NewClassifierExecutor(sites[i], m, shard, nil,
			fl.LocalConfig{Epochs: 1, LR: 1e-4, BatchSize: bertRecords, Seed: env.seed*31 + int64(i)})
		if err != nil {
			return nil, err
		}
		execs[i] = ex
		if env.traced {
			execs[i] = &tracedExec{Executor: ex, t: rw.tr}
		}
	}
	var agg fl.Aggregator = fl.FedAvg{}
	if env.traced {
		agg = tracedAgg{Aggregator: agg, t: rw.tr}
	}
	initial := nn.SnapshotWeights(valModel.Params())
	blob, err := fl.RawCodec{}.Encode(initial)
	if err != nil {
		return nil, err
	}
	ctrl, err := fl.NewController(fl.ControllerConfig{
		Rounds: total, Seed: env.seed, Aggregator: agg, Validate: rw.validate,
	}, execs)
	if err != nil {
		return nil, err
	}
	res, err := ctrl.Run(context.Background(), initial)
	if err != nil {
		return nil, err
	}
	p, err := rw.finish(res, sites)
	if err != nil {
		return nil, err
	}
	// In-process sites exchange no bytes; charge each timed round what the
	// raw codec would move, one model down and one up per site.
	p.wire = int64(p.rounds) * int64(bertSites) * 2 * int64(len(blob))
	if env.traced {
		p.layers = rw.layers(res.History.Rounds, nil)
	}
	return p, nil
}

// lstmPass runs one networked LSTM federation: a server and two clients
// over mutual-TLS loopback, with a group-commit WAL.
func lstmPass(env passEnv) (*passResult, error) {
	const total = 1 + lstmTimedRounds
	sites := []string{"site-1", "site-2"}
	uplinks := []string{"f32", "int8"}
	proj, err := provision.Provision(provision.Config{
		ProjectName: "fedbench", ServerName: "localhost", ClientNames: sites,
	})
	if err != nil {
		return nil, err
	}
	var (
		mu     sync.Mutex
		conns  []transport.MessageConn
		events []walEvent
		wal    *durable.WAL
	)
	walPath := filepath.Join(env.tmp, fmt.Sprintf("pass-%d.wal", time.Now().UnixNano()))
	defer os.Remove(walPath)
	rw := newRoundWatch(total, env.traced, func() counters {
		mu.Lock()
		defer mu.Unlock()
		var c counters
		for _, cn := range conns {
			c.wire += cn.BytesRead() + cn.BytesWritten()
		}
		c.appends, c.fsyncs = wal.Appends(), wal.Fsyncs()
		if fi, err := os.Stat(walPath); err == nil {
			c.logBytes = fi.Size()
		}
		return c
	})
	walOpts := durable.Options{}
	if env.traced {
		walOpts.OnAppend = func(_ int64, rec *durable.Record) {
			at := rw.tr.now()
			mu.Lock()
			events = append(events, walEvent{at: at, typ: rec.Type, round: rec.Round})
			mu.Unlock()
		}
	}
	wal, err = durable.Open(walPath, walOpts)
	if err != nil {
		return nil, err
	}
	defer wal.Close()

	shards, holdout, vocab, err := cohort(env.seed, len(sites), lstmRecords, lstmHoldout, lstmMaxLen, true)
	if err != nil {
		return nil, err
	}
	valModel, err := model.New(model.SpecLSTM, vocab, lstmMaxLen, 2, initSeed)
	if err != nil {
		return nil, err
	}
	rw.lossFn = holdoutLoss(valModel, holdout)
	rw.finalOnly = true

	serverTLS, err := proj.ServerKit.ServerTLS()
	if err != nil {
		return nil, err
	}
	ln, err := transport.ListenMessages("127.0.0.1:0", serverTLS)
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if env.traced {
		ln = tracedListener{MessageListener: ln, t: rw.tr}
	}
	var agg fl.Aggregator = fl.FedAvg{}
	if env.traced {
		agg = tracedAgg{Aggregator: agg, t: rw.tr}
	}
	nop := func(string, ...any) {}
	srv, err := fl.NewServer(fl.ServerConfig{
		ExpectedClients: len(sites),
		Rounds:          total,
		Seed:            env.seed,
		Codec:           "f32",
		Aggregator:      agg,
		Validate:        rw.validate,
		VerifyToken:     proj.VerifyToken,
		Logf:            nop,
		Listener:        ln,
		WAL:             wal,
	}, proj.ServerKit)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	defer srv.Close()

	clientErr := make(chan error, len(sites))
	for i, name := range sites {
		kit := proj.ClientKits[name]
		clientTLS, err := kit.ClientTLS()
		if err != nil {
			return nil, err
		}
		m, err := model.New(model.SpecLSTM, vocab, lstmMaxLen, 2, initSeed)
		if err != nil {
			return nil, err
		}
		ex, err := fl.NewClassifierExecutor(name, m, shards[i], nil,
			fl.LocalConfig{Epochs: 1, LR: 1e-4, BatchSize: lstmRecords, Seed: env.seed*31 + int64(i)})
		if err != nil {
			return nil, err
		}
		var exec fl.Executor = ex
		var st *siteState
		if env.traced {
			st = &siteState{}
			exec = &tracedExec{Executor: ex, t: rw.tr, st: st}
		}
		cl, err := fl.NewClient(fl.ClientConfig{
			Codec: uplinks[i],
			Logf:  nop,
			Dialer: func() (transport.MessageConn, error) {
				c, err := transport.Dial(addr, clientTLS, 10*time.Second)
				if err != nil {
					return nil, err
				}
				mu.Lock()
				conns = append(conns, c)
				mu.Unlock()
				if st != nil {
					return &tracedConn{MessageConn: c, t: rw.tr, st: st}, nil
				}
				return c, nil
			},
		}, kit, exec)
		if err != nil {
			return nil, err
		}
		go func() {
			_, err := cl.Run()
			clientErr <- err
		}()
	}
	res, runErr := srv.Run(nn.SnapshotWeights(valModel.Params()))
	if runErr != nil {
		_ = srv.Close() // unblock the clients
	}
	for range sites {
		if err := <-clientErr; err != nil && runErr == nil {
			runErr = fmt.Errorf("client: %w", err)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	p, err := rw.finish(res, sites)
	if err != nil {
		return nil, err
	}
	if env.traced {
		mu.Lock()
		ev := append([]walEvent(nil), events...)
		mu.Unlock()
		p.layers = rw.layers(res.History.Rounds, ev)
	}
	return p, nil
}
