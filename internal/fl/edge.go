package fl

import (
	"context"
	"errors"
	"fmt"
	"time"

	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// EdgeConfig configures an edge aggregator: a tier node that fronts a
// shard of clients over the ordinary FL wire protocol and forwards one
// merged partial per round to its parent (the root server or another
// edge). Leaves talk to an edge exactly as they would to the root — the
// standard Client needs no changes — and the parent sees the edge as
// one client whose MsgUpdate payload is an encoded hier.Partial.
type EdgeConfig struct {
	// Name identifies the edge to its parent.
	Name string
	// Token is the admission token presented to the parent.
	Token string
	// DialParent opens the upstream connection (and each reconnect).
	DialParent func() (transport.MessageConn, error)
	// Listener accepts the downstream shard's connections.
	Listener transport.MessageListener
	// ExpectedClients is the shard size; registration blocks until all
	// have joined.
	ExpectedClients int
	// RegisterTimeout bounds the whole registration phase (default 30s,
	// as for a Server).
	RegisterTimeout time.Duration
	// VerifyToken admits downstream clients.
	VerifyToken func(name, token string) bool
	// RoundDeadline cuts the downstream gather; stragglers stay in
	// flight, and their late replies are dropped and recorded in a later
	// round (0 = wait for all).
	RoundDeadline time.Duration
	// MinUpdates is the quorum below which the edge reports the round as
	// failed to its parent instead of sending a thin partial (0 = 1).
	MinUpdates int
	// Logf, when set, receives progress logging.
	Logf func(string, ...any)
}

// Edge is a running edge aggregator, assembled from the two ends of the
// wire protocol: toward its shard it is a tier-enabled Server — the
// round engine's network fleet, with its admission, sessions, top-k
// gate, clock and quorum — and toward its parent it is a Client whose
// executor runs one engine round per parent task. Its per-round
// aggregation state is the Server's one fold-on-arrival hier.Partial:
// O(model), independent of the shard size.
type Edge struct {
	cfg  EdgeConfig
	srv  *Server
	up   *Client
	hist History
}

// shard is an edge's downstream fleet: the Server's, except that a
// round's task is the parent's payload as it arrived, so leaves get the
// root's bytes (and downlink codec) unchanged.
type shard struct {
	*Server
	up *Client
}

func (f shard) begin(map[string]*tensor.Matrix) error {
	f.blob = f.up.payload
	return nil
}

// NewEdge validates the configuration.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	switch {
	case cfg.Name == "":
		return nil, errors.New("fl: edge needs a Name")
	case cfg.DialParent == nil:
		return nil, errors.New("fl: edge needs DialParent")
	case cfg.Listener == nil:
		return nil, errors.New("fl: edge needs a Listener")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	srv, err := NewServer(ServerConfig{
		ExpectedClients: cfg.ExpectedClients,
		RegisterTimeout: cfg.RegisterTimeout,
		RoundDeadline:   cfg.RoundDeadline,
		MinClients:      cfg.MinUpdates,
		VerifyToken:     cfg.VerifyToken,
		Logf:            logf,
		Listener:        cfg.Listener,
		Tier:            &TierConfig{},
	}, &provision.StartupKit{Role: provision.RoleServer, Name: cfg.Name})
	if err != nil {
		return nil, fmt.Errorf("fl: edge %s: %w", cfg.Name, err)
	}
	e := &Edge{cfg: cfg, srv: srv, hist: History{BestRound: -1}}
	e.up, err = NewClient(ClientConfig{Dialer: cfg.DialParent, Logf: logf, Reconnect: true},
		&provision.StartupKit{Role: provision.RoleClient, Name: cfg.Name, Token: cfg.Token}, edgeRounds{e})
	if err != nil {
		return nil, err
	}
	srv.eng.fleet = shard{srv, e.up}
	return e, nil
}

// Run registers the shard, joins the parent, and runs one round per
// parent task until the parent finishes, then releases the shard with
// the parent's final-model payload. The result holds the final model and
// the edge's own round records.
func (e *Edge) Run() (*Result, error) {
	defer e.srv.Close()
	if err := e.srv.open(); err != nil {
		return nil, fmt.Errorf("fl: edge %s: %w", e.cfg.Name, err)
	}
	final, err := e.up.Run()
	if err != nil {
		return nil, fmt.Errorf("fl: edge %s: %w", e.cfg.Name, err)
	}
	e.srv.finish(e.up.payload, &e.hist)
	return &Result{FinalWeights: final, BestWeights: final, History: e.hist}, nil
}

// edgeRounds is an edge's executor on its parent link, kept off Edge's
// own method set so an Edge cannot be handed to a Controller.
type edgeRounds struct{ *Edge }

func (e edgeRounds) Name() string { return e.cfg.Name }

// NumSamples implements Executor: an edge's weight is its round
// partial's, carried in each update.
func (e edgeRounds) NumSamples() int { return 0 }

// ExecuteRound implements Executor: one engine round over the shard. The
// update carries the round's partial, which the Client uplinks in the
// partial wire format; a round that fails (below quorum) is reported to
// the parent as a failed task.
func (e edgeRounds) ExecuteRound(round int, _ map[string]*tensor.Matrix) (*ClientUpdate, error) {
	eng := e.srv.eng
	start := eng.clock.Now()
	rec := RoundRecord{Round: round}
	err := eng.step(context.Background(), round, nil, &rec, nil)
	var u *ClientUpdate
	if err == nil {
		p := eng.r.sink.(*foldSink).seal(&rec)
		u = &ClientUpdate{
			ClientName: e.cfg.Name, Round: round,
			NumSamples: clampSamples(p.Weight()), TrainLoss: p.MeanLoss(),
			hierPartial: p,
		}
	}
	rec.Duration = eng.clock.Since(start)
	e.hist.Rounds = append(e.hist.Rounds, rec)
	return u, err
}
