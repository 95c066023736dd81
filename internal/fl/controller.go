package fl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/fl/reconcile"
	"clinfl/internal/metrics"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ControllerConfig parameterizes the server-side scatter-and-gather
// workflow. The zero value (plus Rounds) reproduces the paper's fully
// synchronous federation; SampleFraction, MinUpdates and RoundDeadline
// progressively relax it toward a production asynchronous one.
type ControllerConfig struct {
	// Rounds is E, the number of communication rounds (Fig. 1).
	Rounds int
	// MinClients is the quorum required per round; fewer successful
	// updates fail the round. 0 means all sampled clients must respond
	// (or, when MinUpdates is set, that many).
	MinClients int
	// SampleFraction selects a random subset of clients each round
	// (production FL's partial participation). Values in (0, 1) sample
	// ceil(fraction * N) of the idle clients; 0 or >= 1 uses them all.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every sampled client — the fast path
	// of NVFlare's wait_time_after_min_received. 0 waits for all sampled.
	MinUpdates int
	// RoundDeadline bounds one round's gather: when it fires, whatever
	// has arrived (subject to MinClients) is aggregated and the
	// stragglers' eventual updates are handled by the staleness policy
	// below. 0 means no deadline.
	RoundDeadline time.Duration
	// AsyncAggregator, when non-nil, folds late updates (stragglers from
	// round r arriving during round r' > r) into the global model with
	// staleness weighting (FedAsync). Nil drops late updates.
	AsyncAggregator AsyncAggregator
	// Seed drives the per-round client sampling stream.
	Seed int64
	// Aggregator combines updates (default FedAvg).
	Aggregator Aggregator
	// Filters run over every client update before aggregation (NVFlare's
	// privacy-filter chain); nil means no filtering.
	Filters []Filter
	// Validate, if non-nil, scores each round's aggregated model; the
	// controller keeps the best-scoring weights as the selected model
	// (NVFlare's IntimeModelSelector).
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// Patience, when > 0 and Validate is set, stops the run early after
	// this many consecutive rounds without a new best validation score.
	Patience int
	// Clock supplies round timestamps, gather deadlines, and the
	// goroutines carrying client work. Nil means the real wall clock;
	// internal/sim injects a deterministic virtual clock here so scenarios
	// with hours of simulated straggling replay identically in
	// milliseconds of real time.
	Clock Clock
	// WAL, when non-nil, makes the run durable: every round lifecycle
	// event (round open, task assignment, update receipt, model commit)
	// is appended and fsync'd before the run proceeds, and Run resumes
	// from the WAL's recovered state — the last committed model, plus any
	// open round's already-received updates — instead of initialWeights.
	// A crashed run restarted over the same WAL (with the same executors
	// and config) converges to the same final model as an uninterrupted
	// one, because updates are stored at full precision and aggregation
	// order is canonical.
	WAL *durable.WAL
	// Metrics, when non-nil, receives round/byte/failure/straggler
	// counters and the round-duration histogram. Nil disables metrics at
	// zero cost.
	Metrics *metrics.Registry
	// Reconcile, when non-nil, turns on the reconciliation control
	// plane: failed task assignments are requeued with backoff and
	// re-dispatched (same client or a substitute) within the round
	// deadline, repeated failures demote clients out of the sample pool
	// until a recovery probe succeeds, and a round starved below quorum
	// degrades (FedAsync partial finalize) or parks awaiting probes
	// instead of failing. Nil preserves the legacy single-shot behavior.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, routes rounds through hierarchical streaming
	// aggregation (see TierConfig): updates fold into O(model) partials
	// at edge shards as they arrive instead of buffering per-client
	// weight maps at the root. Nil keeps the legacy flat path
	// bit-for-bit unchanged.
	Tier *TierConfig
}

// withDefaults fills zero fields.
func (c ControllerConfig) withDefaults(numClients int) ControllerConfig {
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.MinClients <= 0 || c.MinClients > numClients {
		c.MinClients = numClients
		if c.MinUpdates > 0 && c.MinUpdates < numClients {
			// Partial aggregation on: the quorum floor follows the early
			// trigger, not the full roster.
			c.MinClients = c.MinUpdates
		}
	}
	if c.Aggregator == nil {
		c.Aggregator = FedAvg{}
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	return c
}

// RoundRecord captures one communication round for the run history.
type RoundRecord struct {
	Round int
	// MeanTrainLoss averages the participating clients' local losses,
	// weighted by sample count.
	MeanTrainLoss float64
	// ValScore is the post-aggregation validation score (NaN if no
	// validator configured).
	ValScore float64
	// Sampled lists the clients tasked this round (all clients when
	// sampling is off).
	Sampled []string
	// Participants lists clients whose updates were aggregated in-round.
	Participants []string
	// LateApplied lists stale updates from earlier rounds folded into the
	// global model this round via the AsyncAggregator.
	LateApplied []string
	// LateDropped lists stale updates discarded this round (no
	// AsyncAggregator configured).
	LateDropped []string
	// Failures records per-client send/receive/training errors as
	// "client: error" strings; a failed client is never silently absent.
	Failures []string
	// Reassigned records every reconciliation re-dispatch this round as
	// "origin>target" — origin is the client originally sampled for the
	// slot ("probe" for a parked round re-tasking a revived client),
	// target the client that received the retry. A retry to the same
	// client reads "a>a".
	Reassigned []string
	// Degraded marks a round finalized below MinUpdates under mass
	// failure (FedAsync partial finalize, at or above quorum — or below
	// it when parking could not revive enough clients).
	Degraded bool
	// BytesUp / BytesDown are the round's weight-payload bytes: encoded
	// update payloads received / task payloads sent. Populated by the
	// networked server from real payload sizes; in-process, BytesUp comes
	// from PayloadBytes (stamped by a CodecSimFilter or the executor) and
	// BytesDown from executors that stamp ClientUpdate.DownBytes (the
	// simulator's cost-accounting clients).
	BytesUp, BytesDown int64
	// Duration is the wall-clock round time.
	Duration time.Duration
	// TierPartials counts the partial aggregates that crossed tier hops
	// this round (hierarchical aggregation only; omitted when zero so
	// legacy histories stay byte-identical).
	TierPartials int `json:",omitempty"`
	// TierBytesUp is the encoded-partial bytes those hops carried.
	TierBytesUp int64 `json:",omitempty"`
	// TierResidentBytes is the root's resident aggregation state at
	// finalize — the O(model) quantity, independent of client count.
	TierResidentBytes int64 `json:",omitempty"`
}

// History is the full federated run record.
type History struct {
	Rounds []RoundRecord
	// BestRound holds the round index whose validation score was highest
	// (-1 when no validation was configured).
	BestRound int
	// BestScore is the corresponding score.
	BestScore float64
	// FinishFailures records clients the final-model broadcast could not
	// reach (networked server only).
	FinishFailures []string
	// WireBytesRead / WireBytesWritten are the run's total framed bytes
	// on the wire across all client connections — headers, metadata and
	// gob overhead included, unlike the per-round payload counters
	// (networked server only).
	WireBytesRead, WireBytesWritten int64
}

// Result is the controller's output: the final and selected models plus
// the run history.
type Result struct {
	// FinalWeights is the last round's aggregated model.
	FinalWeights map[string]*tensor.Matrix
	// BestWeights is the highest-validation-score model (== FinalWeights
	// when no validator is configured).
	BestWeights map[string]*tensor.Matrix
	History     History
	// Health snapshots every tracked client's final reconciliation state
	// (nil when no ReconcilePolicy was configured).
	Health map[string]string
}

// Controller drives the federated run over a set of executors in-process
// (NVFlare simulator mode: every client is a goroutine rather than a
// remote site). It is the in-process fleet of the round engine; the
// networked Server in server.go is the other.
type Controller struct {
	eng       *roundEngine
	executors []Executor
	byName    map[string]Executor
	// inbox is the run-long outcome channel: buffered so a straggler
	// finishing rounds later never blocks, even after Run returns.
	inbox chan delivery
	// inFlight marks executors still working on a previous round's task;
	// they are excluded from sampling until their outcome arrives.
	inFlight map[string]bool
	// global is the current round's task: the model executors start from.
	global map[string]*tensor.Matrix
}

// NewController builds a controller over executors.
func NewController(cfg ControllerConfig, executors []Executor) (*Controller, error) {
	if len(executors) == 0 {
		return nil, errors.New("fl: controller needs at least one executor")
	}
	if err := validateTier(cfg.Tier, cfg.Aggregator, cfg.AsyncAggregator,
		cfg.Filters, cfg.WAL, cfg.Reconcile); err != nil {
		return nil, err
	}
	byName := make(map[string]Executor, len(executors))
	for _, e := range executors {
		if _, dup := byName[e.Name()]; dup {
			return nil, fmt.Errorf("fl: duplicate executor name %q", e.Name())
		}
		byName[e.Name()] = e
	}
	cfg = cfg.withDefaults(len(executors))
	c := &Controller{
		executors: executors,
		byName:    byName,
		// Each executor has at most one task outcome and one probe
		// outcome outstanding (it is never re-tasked until its previous
		// outcome drains, and an in-flight probe never re-fires), so two
		// slots per executor guarantee senders never block, even for
		// stragglers finishing after Run returns.
		inbox:    make(chan delivery, 2*len(executors)),
		inFlight: make(map[string]bool, len(executors)),
	}
	c.eng = &roundEngine{
		fleet: c, inbox: c.inbox, clock: cfg.Clock,
		rounds: cfg.Rounds, deadline: cfg.RoundDeadline, fraction: cfg.SampleFraction,
		// withDefaults turned MinClients 0 into the whole roster (or
		// MinUpdates); clamped to the clients tasked each round, that
		// reads "all sampled".
		minClients: cfg.MinClients, minUpdates: cfg.MinUpdates,
		agg: cfg.Aggregator, async: cfg.AsyncAggregator, filters: cfg.Filters,
		validate: cfg.Validate, patience: cfg.Patience, wal: cfg.WAL, tier: cfg.Tier,
		met: newFLMetrics(cfg.Metrics), rng: tensor.NewRNG(cfg.Seed + 7919),
		logf: func(string, ...any) {},
	}
	c.eng.setPolicy(cfg.Reconcile)
	return c, nil
}

// Run executes the scatter-and-gather workflow for E rounds starting from
// initialWeights, honoring ctx cancellation between rounds and in gathers.
func (c *Controller) Run(ctx context.Context, initialWeights map[string]*tensor.Matrix) (*Result, error) {
	return c.eng.run(ctx, initialWeights)
}

// begin implements fleet: executors train from the round's global model.
func (c *Controller) begin(global map[string]*tensor.Matrix) error {
	c.global = global
	return nil
}

// idle implements fleet: executors not busy with an earlier task, in
// roster order.
func (c *Controller) idle() []string {
	out := make([]string, 0, len(c.executors))
	for _, ex := range c.executors {
		if !c.inFlight[ex.Name()] {
			out = append(out, ex.Name())
		}
	}
	return out
}

// size implements fleet: sampling fractions apply to the whole roster.
func (c *Controller) size() int { return len(c.executors) }

// lost implements fleet.
func (c *Controller) lost(name string) string {
	if _, ok := c.byName[name]; !ok {
		return "tasked before crash, absent after restart"
	}
	return ""
}

// dispatch implements fleet: start one executor on the round's task.
// Starting a goroutine cannot fail, and the downlink is not metered.
func (c *Controller) dispatch(name string, round int) (int64, error) {
	ex, global := c.byName[name], c.global
	c.inFlight[name] = true
	c.eng.clock.Go(func() {
		u, err := ex.ExecuteRound(round, global)
		c.inbox <- delivery{name: name, round: round, update: u, err: err}
	})
	return 0, nil
}

// probe implements fleet: a recovery probe of a demoted executor.
// Executors implementing Prober are actually probed; the rest trivially
// succeed — for an in-process executor there is nothing to check beyond
// waiting out the probe backoff.
func (c *Controller) probe(_ int, name string) bool {
	ex := c.byName[name]
	c.eng.clock.Go(func() {
		var err error
		if p, ok := ex.(Prober); ok {
			err = p.Probe()
		}
		c.inbox <- delivery{name: name, err: err, probe: true}
	})
	return true
}

// resolve implements fleet.
func (c *Controller) resolve(d delivery, _ int) fleetEvent {
	if d.probe {
		return fleetEvent{kind: evProbe, name: d.name, err: d.err}
	}
	delete(c.inFlight, d.name)
	return fleetEvent{kind: evOutcome, name: d.name, round: d.round, update: d.update, err: d.err, cause: "exec"}
}

// fleet is the client population the round engine drives: in-process
// executors (Controller) or network connections with reader goroutines
// (Server). Every method runs on the engine's goroutine; the fleet's
// own goroutines only send deliveries into the engine's inbox.
type fleet interface {
	// begin readies the round's task payload from the global model.
	begin(global map[string]*tensor.Matrix) error
	// idle lists the clients free to take a task — live and not still
	// working on an earlier one — in the fleet's canonical order: roster
	// order in process, name order on the network. Sampling and
	// substitution walk it in this order.
	idle() []string
	// size is the population a SampleFraction applies to.
	size() int
	// lost explains why a client tasked before a crash cannot be
	// re-tasked on resume ("" when it can).
	lost(name string) string
	// dispatch sends the current round's task to name, returning the
	// downlink bytes it cost.
	dispatch(name string, round int) (int64, error)
	// probe starts a recovery probe of a demoted client, reporting false
	// when it failed at once.
	probe(round int, name string) bool
	// resolve turns one inbox delivery into an engine event, applying the
	// fleet's own bookkeeping (busy marks, dead connections, re-attach).
	resolve(d delivery, round int) fleetEvent
}

// delivery is one raw message on a fleet's inbox: an executor's task or
// probe outcome in process; a reader goroutine's message or terminal
// connection error, or a vetted reconnect, on the network.
type delivery struct {
	name string
	// round is the round an in-process outcome's task was for.
	round  int
	update *ClientUpdate
	err    error
	// probe marks an in-process recovery-probe result (err nil = the
	// demoted client answered) rather than a round execution.
	probe bool
	// gen is the connection generation a network reader was started
	// under, so deliveries from a superseded connection are stale.
	gen int
	msg *transport.Message
	// resume, when non-nil, is a vetted mid-run reconnect.
	resume *resumeConn
}

type eventKind int

const (
	evSkip     eventKind = iota // nothing to do (a superseded connection's delivery)
	evOutcome                   // a task's update or failure
	evProbe                     // a recovery probe's answer
	evReattach                  // a reconnecting client swapped in its new connection
)

// fleetEvent is a delivery resolved by its fleet.
type fleetEvent struct {
	kind eventKind
	name string
	// round is the round an outcome's task was for (-1 when the client
	// was not tasked).
	round  int
	update *ClientUpdate
	// err is the task's failure, the probe's failure, or the re-attach's
	// failure to acknowledge; cause labels a task failure in
	// fl_failures_total.
	err   error
	cause string
	// slotHeld marks a re-attach by a client holding this round's task.
	slotHeld bool
}

// roundEngine is the one scatter-and-gather loop (Fig. 1) behind both
// Controller.Run and Server.Run: drain stragglers, sample, open the
// round in the WAL, scatter, gather, finalize, commit and validate. The
// differences between deployment shapes live in the fleet; the
// differences between policies are values derived from config (a nil
// mon turns off requeue, probes and parking; tier picks the sink).
type roundEngine struct {
	fleet fleet
	inbox chan delivery
	clock Clock

	rounds, patience       int
	deadline               time.Duration
	fraction               float64
	minClients, minUpdates int
	// quorumFloor and quorumOverSampled are the network's quorum rules:
	// MinClients 0 still requires one update, and clients whose task
	// could not be sent count against the quorum instead of shrinking it.
	quorumFloor       int
	quorumOverSampled bool

	agg      Aggregator
	async    AsyncAggregator
	filters  []Filter
	validate func(weights map[string]*tensor.Matrix) (float64, error)
	wal      *durable.WAL
	met      flMetrics
	rng      *tensor.RNG
	logf     func(format string, args ...any)
	// mon / pol are the reconciliation state machine and its resolved
	// policy; nil mon is the single-shot round: no requeue, probes or
	// parking, and a deadline below quorum fails the round.
	mon *reconcile.Monitor
	pol ReconcilePolicy
	// tier routes in-process rounds through the fold-on-arrival tier
	// sink; fold gives a tier-enabled Server (root or edge) its
	// fold-on-arrival sink. partials recycles either sink's partials
	// across rounds (Reset keeps each one's O(model) slabs warm).
	tier     *TierConfig
	fold     bool
	partials []*hier.Partial

	r roundState
}

// roundState is one round's gather bookkeeping, reset before the
// between-rounds drain. Until the scatter sets need, every event handler
// branch that re-tasks or counts toward the round stays inert.
type roundState struct {
	round int
	rec   *RoundRecord
	sink  roundSink
	late  []*ClientUpdate
	// count is the updates the sink accepted; pending the tasks in flight.
	count, pending int
	quorum, need   int
	participated   map[string]bool
	inSampled      map[string]bool
	deadlineAt     time.Time
	fired          bool
	// rq and assignment exist only under a ReconcilePolicy: the retry
	// queue, and each in-flight client's slot (attempt count, origin).
	rq         *reconcile.Queue
	assignment map[string]reconcile.Task
}

// roundSink receives a round's in-time updates as they arrive and
// finalizes them into the next global model.
type roundSink interface {
	add(name string, u *ClientUpdate) error
	finalize(e *roundEngine, global map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error)
}

// setPolicy installs a ReconcilePolicy (nil keeps the single-shot round).
func (e *roundEngine) setPolicy(p *ReconcilePolicy) {
	if p != nil {
		e.pol = p.withDefaults()
		e.mon = e.pol.monitor()
	}
}

// run drives E rounds from initialWeights (or from the WAL's recovered
// state) and returns the result.
func (e *roundEngine) run(ctx context.Context, initialWeights map[string]*tensor.Matrix) (*Result, error) {
	global := cloneWeights(initialWeights)
	res := &Result{History: History{BestRound: -1}}
	sinceBest := 0

	// A durable run picks up where the WAL left off: the last committed
	// model replaces initialWeights, and a round that was open at the
	// crash is resumed — its recorded updates re-seeded, only the pending
	// clients re-tasked.
	startRound := 0
	var resume *durable.OpenRound
	if e.wal != nil {
		st := e.wal.Recovered()
		if st.Records > 0 {
			e.met.reg.Counter("fl_recoveries_total", "runs resumed from a non-empty WAL").Inc()
		}
		if st.Weights != nil {
			global = cloneWeights(st.Weights)
		}
		startRound = st.LastRound + 1
		if st.Open != nil {
			startRound = st.Open.Round
			resume = st.Open
			e.logf("resuming open round %d from WAL (%d tasked, %d updates recovered)",
				resume.Round, len(resume.Tasked), len(resume.Updates))
		} else if st.Records > 0 {
			e.logf("resuming from WAL at round %d (last committed %d)", startRound, st.LastRound)
		}
		// Replayed quarantine decisions take effect before any sampling:
		// a crash must not resurrect a quarantined client into the pool.
		if e.mon != nil {
			for name, state := range st.Health {
				if state == reconcile.Quarantined.String() {
					e.mon.SetQuarantined(name)
				}
			}
			e.met.syncHealthGauges(e.mon)
		}
	}

	for round := startRound; round < e.rounds; round++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("fl: cancelled before round %d: %w", round, ctx.Err())
		default:
		}
		start := e.clock.Now()
		rec := RoundRecord{Round: round}
		err := e.step(ctx, round, global, &rec, resume)
		resume = nil
		if err != nil {
			return nil, err
		}
		if global, err = e.r.sink.finalize(e, global); err != nil {
			return nil, err
		}
		rec.Duration = e.clock.Since(start)
		if e.wal != nil {
			// The commit point: once RecModelCommit is durable (group
			// committed by the syncer, settled by Close) a restart starts
			// at round+1 and never re-runs this round. An unsynced commit
			// lost to a crash just re-runs the round from its durable
			// updates to the byte-identical model.
			if err := e.wal.AppendRoundFinal(round, rec.Participants); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
			if err := e.wal.AppendModelCommit(round, global); err != nil {
				return nil, fmt.Errorf("fl: round %d: %w", round, err)
			}
		}
		e.met.roundDone(&rec)
		if e.validate != nil {
			score, err := e.validate(global)
			if err != nil {
				return nil, fmt.Errorf("fl: round %d validate: %w", round, err)
			}
			rec.ValScore = score
			if res.History.BestRound < 0 || score > res.History.BestScore {
				res.History.BestRound = round
				res.History.BestScore = score
				res.BestWeights = cloneWeights(global)
				sinceBest = 0
			} else {
				sinceBest++
			}
		}
		res.History.Rounds = append(res.History.Rounds, rec)
		e.logf("round %d/%d done in %v (mean loss %.4f, %d/%d participants, %d up / %d down bytes)",
			round+1, e.rounds, rec.Duration.Round(time.Millisecond), rec.MeanTrainLoss,
			len(rec.Participants), len(rec.Sampled), rec.BytesUp, rec.BytesDown)
		if e.patience > 0 && e.validate != nil && sinceBest >= e.patience {
			break // early stop: no validation improvement for Patience rounds
		}
	}
	res.FinalWeights = global
	if res.BestWeights == nil {
		res.BestWeights = cloneWeights(global)
	}
	if e.mon != nil {
		res.Health = e.mon.Snapshot()
	}
	return res, nil
}

// step runs one round up to its sink: drain, sample (or resume), WAL
// open and assign, scatter, gather. The caller ends it from e.r.sink:
// run finalizes the next global model, an Edge seals its partial. When
// resume is non-nil (WAL recovery), the round's recorded updates are
// re-seeded instead of re-trained and only the tasked-but-unheard
// clients are re-tasked; clients are pure functions of (round, global),
// so the resumed round aggregates exactly what the uninterrupted one
// would have.
func (e *roundEngine) step(ctx context.Context, round int, global map[string]*tensor.Matrix, rec *RoundRecord, resume *durable.OpenRound) error {
	if err := e.fleet.begin(global); err != nil {
		return err
	}
	e.r = roundState{round: round, rec: rec, participated: map[string]bool{}, inSampled: map[string]bool{}}
	if e.mon != nil {
		e.r.rq = reconcile.NewQueue()
		e.r.assignment = map[string]reconcile.Task{}
	}
	r := &e.r
	// Drain stragglers that finished between rounds first, so they become
	// idle (sample-able) again and their updates enter this round's
	// staleness handling instead of rotting in the inbox.
drain:
	for {
		select {
		case d := <-e.inbox:
			if err := e.absorb(d); err != nil {
				return err
			}
		default:
			break drain
		}
	}

	var targets []string
	var preSeeded []*ClientUpdate
	if resume != nil {
		for _, u := range resume.Updates {
			preSeeded = append(preSeeded, &ClientUpdate{
				ClientName: u.Client, Round: round, Weights: u.Weights,
				NumSamples: u.NumSamples, TrainLoss: u.TrainLoss,
				PayloadBytes: u.PayloadBytes,
			})
			r.participated[u.Client] = true
		}
		for _, name := range resume.Tasked {
			rec.Sampled = append(rec.Sampled, name)
			if resume.HasUpdate(name) {
				continue
			}
			if why := e.fleet.lost(name); why != "" {
				e.fail(name, errors.New(why), "conn")
				continue
			}
			if e.mon != nil && !e.mon.Eligible(name) {
				// Quarantined by a replayed health record: the pre-crash
				// task assignment does not override the quarantine.
				e.fail(name, errors.New("quarantined, not re-tasked on resume"), "exec")
				continue
			}
			targets = append(targets, name)
		}
	} else {
		var err error
		if targets, err = e.sample(ctx); err != nil {
			return err
		}
		rec.Sampled = append(rec.Sampled, targets...)
		if e.wal != nil {
			// Task assignments from a resumed round are already on disk.
			if err := e.wal.AppendRoundOpen(round); err != nil {
				return fmt.Errorf("fl: round %d: %w", round, err)
			}
			for _, name := range targets {
				if err := e.wal.AppendTaskAssigned(round, name); err != nil {
					return fmt.Errorf("fl: round %d: %w", round, err)
				}
			}
		}
	}
	for _, name := range rec.Sampled {
		r.inSampled[name] = true
	}
	switch {
	case e.tier != nil:
		r.sink = e.newTierSink(rec.Sampled)
	case e.fold:
		r.sink = e.newFoldSink()
	default:
		r.sink = &flatSink{updates: preSeeded}
	}
	r.count = len(preSeeded)

	// No fsync barrier before the scatter: file order gives the WAL a
	// durable prefix (an fsync covering this round's open covers the
	// previous commit too), and a lost suffix re-executes the round
	// deterministically. The background syncer flushes the scatter while
	// the clients train.
	var failedSends []string
	for _, name := range targets {
		n, err := e.fleet.dispatch(name, round)
		if err != nil {
			e.fail(name, fmt.Errorf("send task: %v", err), "send")
			if e.mon != nil {
				if err := e.healthEdge(e.mon.Observe(name, false, e.clock.Now())); err != nil {
					return err
				}
				failedSends = append(failedSends, name)
			}
			continue
		}
		rec.BytesDown += n
		r.pending++
		if e.mon != nil {
			r.assignment[name] = reconcile.Task{Client: name, Round: round, Attempt: 1, Origin: name}
		}
	}

	avail := r.pending + len(preSeeded)
	base := avail
	if e.quorumOverSampled {
		base = len(rec.Sampled)
	}
	r.quorum = e.minClients
	if r.quorum > base {
		r.quorum = base
	}
	if r.quorum < e.quorumFloor {
		r.quorum = e.quorumFloor
	}
	r.need = e.minUpdates
	if r.need <= 0 || r.need > avail {
		r.need = avail
	}
	if r.need < r.quorum {
		// An early aggregate below the quorum would always fail it; wait
		// for the quorum before cutting the round short.
		r.need = r.quorum
	}
	return e.gather(ctx, failedSends)
}

// sample picks this round's participants among idle clients the health
// monitor admits. A pool emptied by demotions (mass failure) parks the
// round until a recovery probe readmits someone.
func (e *roundEngine) sample(ctx context.Context) ([]string, error) {
	pool := e.eligibleIdle()
	if len(pool) == 0 && e.mon != nil {
		if err := e.parkUntilEligible(ctx); err != nil {
			return nil, err
		}
		pool = e.eligibleIdle()
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("fl: round %d: no idle clients to task (every client is a straggler or dead)", e.r.round)
	}
	if e.fraction <= 0 || e.fraction >= 1 {
		return pool, nil
	}
	k := int(math.Ceil(float64(e.fleet.size()) * e.fraction))
	if k < 1 {
		k = 1
	}
	if k > len(pool) {
		k = len(pool)
	}
	e.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:k], nil
}

// eligibleIdle filters the fleet's idle clients through the health
// monitor.
func (e *roundEngine) eligibleIdle() []string {
	pool := e.fleet.idle()
	if e.mon == nil {
		return pool
	}
	out := pool[:0]
	for _, n := range pool {
		if e.mon.Eligible(n) {
			out = append(out, n)
		}
	}
	return out
}

// gather collects the round's updates until the trigger (need) is met,
// or the deadline fires at or above quorum. Without a ReconcilePolicy
// the deadline ends the gather outright and stragglers stay in flight,
// surfacing as late updates in a future round (NVFlare's
// wait_time_after_min_received semantics). With one, failed assignments
// are requeued with backoff and re-dispatched (to the same client, or —
// with Substitute — an idle eligible one) until the deadline; demoted
// clients are probed and may be re-tasked on recovery; and a round that
// can no longer reach its trigger degrades (FedAsync partial finalize)
// or parks awaiting probes, bounded by MaxPark, instead of deadlocking.
func (e *roundEngine) gather(ctx context.Context, failedSends []string) error {
	r := &e.r
	deadlineAt, deadlineCh := gatherDeadline(e.clock, e.deadline)
	r.deadlineAt = deadlineAt
	for _, name := range failedSends {
		e.requeue(reconcile.Task{Client: name, Round: r.round, Attempt: 1, Origin: name})
	}
	parked := false
	var parkDeadline time.Time
	for {
		now := e.clock.Now()
		if !r.fired && !deadlineAt.IsZero() && !now.Before(deadlineAt) {
			r.fired = true
			e.met.stragglers.Add(int64(r.pending))
			if r.rq != nil {
				// Queued retries die with the deadline; the failures that
				// queued them are already in rec.Failures, so nothing is
				// silently lost.
				r.rq.Drain()
			}
		}
		if r.count >= r.need || (r.fired && (r.count >= r.quorum || e.mon == nil)) {
			break
		}
		if parked && !now.Before(parkDeadline) {
			// Parking budget exhausted: degrade if the async path can
			// finalize a partial round, else fail the quorum below.
			break
		}
		if e.mon != nil {
			if !r.fired {
				for _, t := range r.rq.Due(now) {
					if err := e.redispatch(t); err != nil {
						return err
					}
				}
			}
			if err := e.fireProbes(now); err != nil {
				return err
			}
		}
		if r.pending == 0 && (r.rq == nil || r.rq.Len() == 0) {
			// Starved: nothing in flight, nothing queued, below the
			// trigger. Recoverable only if probes are running or
			// scheduled; otherwise give up now.
			if e.mon == nil || (!e.mon.Probing() && e.mon.NextProbeAt().IsZero()) {
				break
			}
			if !parked {
				parked = true
				parkDeadline = now.Add(e.pol.MaxPark)
				e.met.parked.Inc()
			}
		}
		var wake time.Time
		earliest := func(t time.Time) {
			if !t.IsZero() && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		if !r.fired {
			earliest(deadlineAt)
		}
		if e.mon != nil {
			if !r.fired {
				earliest(r.rq.NextAt())
			}
			earliest(e.mon.NextProbeAt())
			if parked {
				earliest(parkDeadline)
			}
		}
		// The round deadline keeps one timer for the whole gather; only a
		// wake-up that moves (a retry, a probe, the park budget) needs a
		// fresh one.
		at, ch := deadlineAt, deadlineCh
		if r.fired || !wake.Equal(deadlineAt) {
			at, ch = wakeChan(e.clock, wake)
		}
		d, status := waitRecv(e.clock, e.inbox, ctx.Done(), at, ch)
		switch status {
		case waitDeadline:
			continue
		case waitCancelled:
			return fmt.Errorf("fl: round %d cancelled: %w", r.round, ctx.Err())
		}
		if err := e.absorb(d); err != nil {
			return err
		}
	}
	if r.count < r.quorum {
		// Mass failure left a reconciled round short. The async path
		// finalizes what it has as a degraded partial round — FedAsync
		// already tolerates weight drift from missing participants —
		// provided at least one update arrived; the synchronous path
		// must fail.
		if e.mon != nil && e.async != nil && r.count > 0 {
			r.rec.Degraded = true
			e.met.degraded.Inc()
			return nil
		}
		how := ""
		if e.mon != nil {
			how = " after reconciliation"
		}
		return fmt.Errorf("fl: round %d quorum not met%s: %d/%d updates (failures: %v)",
			r.round, how, r.count, r.quorum, r.rec.Failures)
	}
	if e.mon != nil && r.count < r.need {
		// At or above quorum but short of the trigger: the deadline or
		// the parking budget cut a mass-failure round short.
		r.rec.Degraded = true
		e.met.degraded.Inc()
	}
	if e.mon == nil && (len(r.rec.Failures) > 0 || r.count < len(r.rec.Sampled)) {
		e.logf("round %d proceeded with %d/%d clients (failures: %v)",
			r.round, r.count, len(r.rec.Sampled), r.rec.Failures)
	}
	return nil
}

// absorb handles one inbox delivery, wherever it lands: the
// between-rounds drain, the parked-round wait, or the gather. Outside the
// gather no task of the current round is in flight and need is zero, so
// only the straggler and health bookkeeping applies.
func (e *roundEngine) absorb(d delivery) error {
	r := &e.r
	ev := e.fleet.resolve(d, r.round)
	switch ev.kind {
	case evProbe:
		// A late answer to a probe already resolved (or never sent) is
		// ignored.
		if !e.mon.IsProbing(ev.name) {
			return nil
		}
		res := "ok"
		if ev.err != nil {
			res = "fail"
		}
		e.met.probe(res)
		if err := e.healthEdge(e.mon.ProbeResult(ev.name, ev.err == nil, e.clock.Now())); err != nil {
			return err
		}
		// Revived mid-round: if the round still cannot reach its trigger
		// with what is in flight and queued, task the recovered client
		// (the parked-round resume path).
		need := r.need
		if r.fired {
			need = r.quorum
		}
		if ev.err == nil && r.count+r.pending+r.rq.Len() < need && !r.participated[ev.name] {
			return e.redispatch(reconcile.Task{Client: ev.name, Round: r.round, Attempt: 1, Origin: "probe"})
		}
	case evReattach:
		if ev.err != nil {
			e.fail(ev.name, ev.err, "conn")
		}
		if ev.slotHeld {
			r.pending--
			if e.mon != nil {
				// The re-attach implies the old connection is gone, and
				// with it the in-flight assignment; requeue it rather
				// than racing a blind re-send against the retry machinery.
				t, assigned := r.assignment[ev.name]
				delete(r.assignment, ev.name)
				e.fail(ev.name, errors.New("connection replaced mid-task"), "conn")
				if err := e.healthEdge(e.mon.Observe(ev.name, false, e.clock.Now())); err != nil {
					return err
				}
				if assigned {
					e.requeue(t)
				}
			}
		}
		if e.mon == nil && ev.err == nil && r.inSampled[ev.name] && !r.participated[ev.name] {
			// Tasked this round and not yet heard from: re-send the task so
			// the round can still complete.
			n, err := e.fleet.dispatch(ev.name, r.round)
			if err != nil {
				e.fail(ev.name, fmt.Errorf("resend task: %v", err), "send")
				return nil
			}
			r.rec.BytesDown += n
			r.pending++
		}
	case evOutcome:
		return e.outcome(ev)
	}
	return nil
}

// outcome handles a task's update or failure. Failures of this round's
// tasks release their slot (and, under a policy, requeue it); a payload
// rejected for a task from another round says nothing about the
// client's health. Updates for this round feed the sink; earlier rounds'
// stragglers become late updates or drops.
func (e *roundEngine) outcome(ev fleetEvent) error {
	r := &e.r
	current := ev.round == r.round
	t, assigned := r.assignment[ev.name]
	delete(r.assignment, ev.name)
	if ev.err != nil {
		e.fail(ev.name, ev.err, ev.cause)
		if e.mon != nil {
			if ev.cause == "conn" && e.mon.IsProbing(ev.name) {
				// The connection died between the ping and its pong.
				e.met.probe("fail")
				return e.healthEdge(e.mon.ProbeResult(ev.name, false, e.clock.Now()))
			}
			if ev.cause != "reject" || current {
				if err := e.healthEdge(e.mon.Observe(ev.name, false, e.clock.Now())); err != nil {
					return err
				}
			}
		}
		if current {
			r.pending--
			if assigned {
				e.requeue(t)
			}
		}
		return nil
	}
	if e.mon != nil {
		if err := e.healthEdge(e.mon.Observe(ev.name, true, e.clock.Now())); err != nil {
			return err
		}
	}
	u := ev.update
	switch {
	case current:
		r.pending--
		if e.wal != nil {
			// Lazy append, group-committed by the WAL's syncer. A crash
			// that loses it re-tasks the client on resume — either way the
			// round's participant set is consistent on disk and in memory.
			if err := e.wal.AppendUpdate(r.round, ev.name, u.NumSamples,
				u.TrainLoss, u.PayloadBytes, u.Weights); err != nil {
				return fmt.Errorf("fl: round %d: %w", r.round, err)
			}
		}
		if err := r.sink.add(ev.name, u); err != nil {
			// A malformed update is a per-client failure, not a
			// federation abort: the round proceeds with everyone else.
			e.fail(ev.name, err, "reject")
			return nil
		}
		r.count++
		r.participated[ev.name] = true
	case e.async != nil:
		r.late = append(r.late, u)
	default:
		r.rec.LateDropped = append(r.rec.LateDropped, ev.name)
	}
	return nil
}

// fail records one client failure in the round record and metrics.
func (e *roundEngine) fail(name string, err error, cause string) {
	e.r.rec.Failures = append(e.r.rec.Failures, fmt.Sprintf("%s: %v", name, err))
	e.met.failure(cause)
}

// requeue schedules retry attempt t.Attempt+1 of a failed slot, unless
// the slot is out of attempts or the retry could not run before the
// round deadline. The triggering failure is already recorded, so a task
// that dies here is abandoned, never silently lost.
func (e *roundEngine) requeue(t reconcile.Task) {
	r := &e.r
	if r.fired || t.Attempt >= e.pol.MaxAssignAttempts {
		return
	}
	readyAt := e.clock.Now().Add(e.pol.RequeueBackoff.Delay(t.Attempt - 1))
	if !r.deadlineAt.IsZero() && !readyAt.Before(r.deadlineAt) {
		return
	}
	r.rq.Add(reconcile.Task{Client: t.Client, Round: r.round, Attempt: t.Attempt + 1, Origin: t.Origin}, readyAt)
	e.met.requeues.Inc()
}

// redispatch hands a ready task to its client — or, when that client is
// busy, dead, demoted, or already counted, to the first idle eligible
// substitute in the fleet's canonical order (deterministic). A task with
// no viable target is abandoned; its triggering failure is already
// recorded.
func (e *roundEngine) redispatch(t reconcile.Task) error {
	r := &e.r
	target := ""
	for _, n := range e.fleet.idle() {
		if r.participated[n] || !e.mon.Eligible(n) {
			continue
		}
		if n == t.Client {
			target = n
			break
		}
		if target == "" && e.pol.Substitute {
			target = n
		}
	}
	if target == "" {
		return nil
	}
	n, err := e.fleet.dispatch(target, r.round)
	if err != nil {
		e.fail(target, fmt.Errorf("send task: %v", err), "send")
		if err := e.healthEdge(e.mon.Observe(target, false, e.clock.Now())); err != nil {
			return err
		}
		e.requeue(t)
		return nil
	}
	r.assignment[target] = reconcile.Task{Client: target, Round: r.round, Attempt: t.Attempt, Origin: t.Origin}
	r.rec.Reassigned = append(r.rec.Reassigned, t.Origin+">"+target)
	if !r.inSampled[target] {
		r.inSampled[target] = true
		r.rec.Sampled = append(r.rec.Sampled, target)
	}
	if e.wal != nil {
		if err := e.wal.AppendTaskAssigned(r.round, target); err != nil {
			return fmt.Errorf("fl: round %d: %w", r.round, err)
		}
	}
	r.rec.BytesDown += n
	r.pending++
	return nil
}

// fireProbes starts the recovery probes that are due; a probe that fails
// at once backs off the next one.
func (e *roundEngine) fireProbes(now time.Time) error {
	for _, name := range e.mon.DueProbes(now) {
		if !e.fleet.probe(e.r.round, name) {
			e.met.probe("fail")
			if err := e.healthEdge(e.mon.ProbeResult(name, false, e.clock.Now())); err != nil {
				return err
			}
		}
	}
	return nil
}

// healthEdge records a health transition in metrics and — for the
// durable pool-membership edges, quarantine entry and the rejoin
// clearing it — in the WAL.
func (e *roundEngine) healthEdge(tr reconcile.Transition) error {
	if !tr.Changed() {
		return nil
	}
	e.met.healthTransition(e.mon, tr)
	if e.wal != nil && (tr.To == reconcile.Quarantined || tr.From == reconcile.Quarantined) {
		if err := e.wal.AppendHealth(e.r.round, tr.Client, tr.To.String()); err != nil {
			return fmt.Errorf("fl: round %d: %w", e.r.round, err)
		}
	}
	return nil
}

// parkUntilEligible blocks a round whose sample pool is empty (every
// client demoted or dead — mass failure) until a recovery probe readmits
// someone, bounded by MaxPark. Deliveries arriving meanwhile — above all
// the reconnects that make recovery possible — are absorbed like the
// between-rounds drain.
func (e *roundEngine) parkUntilEligible(ctx context.Context) error {
	e.met.parked.Inc()
	parkDeadline := e.clock.Now().Add(e.pol.MaxPark)
	for {
		now := e.clock.Now()
		if len(e.eligibleIdle()) > 0 {
			return nil
		}
		if !now.Before(parkDeadline) {
			return fmt.Errorf("fl: round %d: no eligible clients after parking %v (every client demoted or dead; failures so far: %v)",
				e.r.round, e.pol.MaxPark, e.r.rec.Failures)
		}
		if err := e.fireProbes(now); err != nil {
			return err
		}
		wake := parkDeadline
		if at := e.mon.NextProbeAt(); !at.IsZero() && at.Before(wake) {
			wake = at
		}
		at, ch := wakeChan(e.clock, wake)
		d, status := waitRecv(e.clock, e.inbox, ctx.Done(), at, ch)
		switch status {
		case waitCancelled:
			return fmt.Errorf("fl: round %d cancelled: %w", e.r.round, ctx.Err())
		case waitDeadline:
			continue
		}
		if err := e.absorb(d); err != nil {
			return err
		}
	}
}

// flatSink buffers the round's updates for finalizeRound: the flat root.
type flatSink struct {
	updates []*ClientUpdate
}

func (s *flatSink) add(_ string, u *ClientUpdate) error {
	s.updates = append(s.updates, u)
	return nil
}

func (s *flatSink) finalize(e *roundEngine, global map[string]*tensor.Matrix) (map[string]*tensor.Matrix, error) {
	rec := e.r.rec
	next, err := finalizeRound(e.filters, e.agg, e.async, s.updates, e.r.late, e.r.round, global, rec)
	if err != nil {
		return nil, err
	}
	recordUpdates(rec, s.updates)
	return next, nil
}

// recordUpdates fills the round record's per-update scalars from the
// in-round updates, in the order given: participants, payload bytes, and
// the sample-weighted mean training loss.
func recordUpdates(rec *RoundRecord, updates []*ClientUpdate) {
	var lossSum, weightSum float64
	for _, u := range updates {
		rec.Participants = append(rec.Participants, u.ClientName)
		rec.BytesUp += int64(u.PayloadBytes)
		rec.BytesDown += int64(u.DownBytes)
		lossSum += u.TrainLoss * float64(u.NumSamples)
		weightSum += float64(u.NumSamples)
	}
	if weightSum > 0 {
		rec.MeanTrainLoss = lossSum / weightSum
	}
}

// finalizeRound runs the flat end-of-round aggregation: the filter chain
// over the in-round updates, the batch aggregate, then the filter chain
// and the staleness-weighted merge for each late update. Late updates
// pass through the same filters before they can reach the global model —
// privacy filters (clipping, DP noise) must see every merged update,
// stale or not — against this round's starting weights, the closest
// surviving reference. A late update that fails filtering,
// shape-checking, or merging lands in rec.Failures and is skipped: one
// straggler's bad payload must not abort the federation.
//
// Both update batches are sorted into a canonical order (in-round by client
// name, late by round then name) before any floating-point accumulation, so
// the aggregated model is a pure function of the participating set: the
// order updates happened to arrive — a race under the real clock — can
// never change the global weights, and fixed-seed simulator runs reproduce
// bit-identically at any GOMAXPROCS.
func finalizeRound(filters []Filter, agg Aggregator, async AsyncAggregator,
	updates, late []*ClientUpdate, round int, global map[string]*tensor.Matrix, rec *RoundRecord) (map[string]*tensor.Matrix, error) {
	sort.Slice(updates, func(i, j int) bool { return updates[i].ClientName < updates[j].ClientName })
	sort.Slice(late, func(i, j int) bool {
		if late[i].Round != late[j].Round {
			return late[i].Round < late[j].Round
		}
		return late[i].ClientName < late[j].ClientName
	})
	if err := applyFilters(filters, updates, global); err != nil {
		return nil, fmt.Errorf("fl: round %d: %w", round, err)
	}
	var merged []*ClientUpdate
	for _, lu := range late {
		if err := applyFilters(filters, []*ClientUpdate{lu}, global); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late update: %v", lu.ClientName, err))
			continue
		}
		merged = append(merged, lu)
	}
	next, err := agg.Aggregate(updates)
	if err != nil {
		return nil, fmt.Errorf("fl: round %d aggregate: %w", round, err)
	}
	// Stragglers' updates merge after the in-round aggregate so the fresh
	// average is never clobbered. The shape pre-check keeps a mismatched
	// update from partially mutating the model inside Apply; LateApplied
	// records a merge only once it actually reached the global model.
	for _, lu := range merged {
		if err := checkShapes(next, lu); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late update: %v", lu.ClientName, err))
			continue
		}
		if err := async.Apply(next, lu, round-lu.Round); err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s: late merge: %v", lu.ClientName, err))
			continue
		}
		rec.LateApplied = append(rec.LateApplied, lu.ClientName)
		rec.BytesUp += int64(lu.PayloadBytes)
		rec.BytesDown += int64(lu.DownBytes)
	}
	return next, nil
}

// checkShapes verifies an update covers every global parameter with
// matching dimensions.
func checkShapes(global map[string]*tensor.Matrix, u *ClientUpdate) error {
	for name, g := range global {
		w, ok := u.Weights[name]
		if !ok {
			return fmt.Errorf("missing param %q", name)
		}
		if w.Rows() != g.Rows() || w.Cols() != g.Cols() {
			return fmt.Errorf("param %q shape %dx%d, want %dx%d",
				name, w.Rows(), w.Cols(), g.Rows(), g.Cols())
		}
	}
	return nil
}

// cloneWeights deep-copies a weight map.
func cloneWeights(w map[string]*tensor.Matrix) map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix, len(w))
	for name, m := range w {
		out[name] = m.Clone()
	}
	return out
}
