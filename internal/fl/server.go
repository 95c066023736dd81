package fl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clinfl/internal/fl/durable"
	"clinfl/internal/fl/hier"
	"clinfl/internal/metrics"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// ServerConfig parameterizes the networked FL server. As with
// ControllerConfig, the zero value (plus Rounds/ExpectedClients) is the
// paper's synchronous scatter-gather; SampleFraction, MinUpdates and
// RoundDeadline make rounds straggler-tolerant, and Codec compresses the
// downlink weight payloads.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. ":8443" or "127.0.0.1:0").
	Addr string
	// ExpectedClients is how many registrations to wait for before
	// starting round 0.
	ExpectedClients int
	// RegisterTimeout bounds the registration phase.
	RegisterTimeout time.Duration
	// Rounds is E, the communication-round count.
	Rounds int
	// RoundDeadline bounds one round's gather; on expiry the round
	// aggregates whatever arrived and stragglers are handled by the
	// staleness policy. 0 means no deadline.
	RoundDeadline time.Duration
	// SampleFraction tasks a random subset of idle clients each round;
	// 0 or >= 1 tasks them all.
	SampleFraction float64
	// MinUpdates, when > 0, aggregates as soon as this many updates have
	// arrived instead of waiting for every tasked client.
	MinUpdates int
	// MinClients is the per-round quorum: a round that gathers fewer
	// successful updates fails the run. 0 keeps the legacy floor of one
	// update, so deadline rounds aggregate whatever arrived.
	MinClients int
	// Seed drives the client-sampling stream.
	Seed int64
	// Codec names the downlink weight codec for task/finish payloads
	// ("raw", "f32", "topk[:fraction]"); default raw. Each client's
	// uplink codec is its own choice, negotiated at registration.
	Codec string
	// AllowTopKUplink permits clients to negotiate the top-k sparsifying
	// uplink codec. Top-k transmits full weight maps, not deltas, so
	// ~(1-fraction) of every parameter decodes as zero and averages into
	// the global model; off by default, registration falls back to raw.
	AllowTopKUplink bool
	// Aggregator combines updates (default FedAvg).
	Aggregator Aggregator
	// AsyncAggregator, when non-nil, folds stragglers' late updates into
	// the global model with staleness weighting; nil drops them.
	AsyncAggregator AsyncAggregator
	// Filters run over every client update before aggregation.
	Filters []Filter
	// Validate, if non-nil, scores each aggregated model for selection.
	Validate func(weights map[string]*tensor.Matrix) (float64, error)
	// VerifyToken authenticates a client's admission token (required).
	// Use (*provision.Project).VerifyToken in-process or
	// provision.TokenVerifier over a tokens file for disk-based kits.
	VerifyToken func(name, token string) bool
	// Logf receives progress lines (default log.Printf).
	Logf func(format string, args ...any)
	// Listener, when non-nil, overrides Addr and the startup kit's TLS
	// stack with a caller-supplied transport — the simulator and the
	// fltest conformance kit pass a transport.MemNetwork here so the same
	// server logic runs over in-memory links with scripted faults.
	Listener transport.MessageListener
	// Clock supplies round timestamps and gather deadlines (default: real
	// wall clock).
	Clock Clock
	// WAL, when non-nil, makes the run durable: round lifecycle events are
	// appended and fsync'd before the run proceeds, client sessions are
	// recorded so reconnects can re-attach after a server restart, and Run
	// resumes from the WAL's recovered state — the last committed model
	// plus any open round's already-received updates.
	WAL *durable.WAL
	// Metrics, when non-nil, receives round/byte/failure/straggler/resume
	// counters, the round-duration histogram, and the connected-clients
	// gauge. Nil disables metrics at zero cost.
	Metrics *metrics.Registry
	// Reconcile, when non-nil, turns on the reconciliation control plane:
	// per-client health tracking with MsgPing/MsgPong recovery probes,
	// requeue-with-backoff of failed task assignments (send errors,
	// execution errors, dropped connections), and degradation modes for
	// mass failure. Nil keeps the legacy single-shot round behavior.
	Reconcile *ReconcilePolicy
	// Tier, when non-nil, accepts partial-aggregate uplinks from fl.Edge
	// nodes and folds every arriving update, and merges every arriving
	// partial, into one hier.Partial: each registered "client" may be an
	// edge fronting a shard of real clients, so the root holds O(model)
	// aggregation state however many edges and leaves feed it, and
	// Participants in the round record are the edge names. A mixed fleet
	// (edges plus plain clients) is supported. Nil keeps the legacy flat
	// path bit-for-bit unchanged and rejects partial payloads.
	Tier *TierConfig
}

// serverClient is one registered client's connection state. Reads happen
// on a dedicated reader goroutine feeding the server inbox; writes happen
// only from the Run goroutine, so the Conn's one-reader/one-writer
// contract holds.
type serverClient struct {
	name string
	conn transport.MessageConn
	// token is the session token issued at registration; a reconnecting
	// client presents it to re-attach (transport.MetaSession).
	token string
	// gen counts connection generations. Each re-attach bumps it, and
	// inbox messages carry the generation their reader was started with,
	// so messages from a superseded connection are recognized as stale.
	gen int
	// taskedRound is the round the client is currently working on
	// (-1 when idle). A straggler stays tasked — and excluded from
	// sampling — until its reply or its connection error drains in.
	taskedRound int
	// dead marks a failed connection; dead clients are skipped.
	dead bool
}

// resumeConn is a reconnecting client that passed admission and session
// checks in the accept loop; the Run goroutine completes the re-attach.
type resumeConn struct {
	name  string
	token string
	codec string
	conn  transport.MessageConn
}

// Server is the networked federation server: it terminates mutual-TLS
// connections from provisioned clients, verifies admission tokens, and
// drives the same round engine as the in-process Controller over the
// wire: it is the engine's network fleet.
type Server struct {
	cfg       ServerConfig
	kit       *provision.StartupKit
	ln        transport.MessageListener
	downCodec WeightCodec
	tokenRNG  *tensor.RNG
	inbox     chan delivery
	met       flMetrics
	eng       *roundEngine
	// blob is the current round's encoded task payload.
	blob []byte

	mu      sync.Mutex
	clients map[string]*serverClient
	// sessions maps client name to issued session token; recovered from
	// the WAL on restart so pre-crash clients can re-attach.
	sessions map[string]string
}

// NewServer builds a server from its startup kit.
func NewServer(cfg ServerConfig, kit *provision.StartupKit) (*Server, error) {
	if cfg.ExpectedClients <= 0 {
		return nil, errors.New("fl: server needs ExpectedClients > 0")
	}
	if cfg.VerifyToken == nil {
		return nil, errors.New("fl: server needs a VerifyToken function")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if err := validateTier(cfg.Tier, cfg.Aggregator, cfg.AsyncAggregator,
		cfg.Filters, cfg.WAL, cfg.Reconcile); err != nil {
		return nil, err
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = FedAvg{}
	}
	if cfg.RegisterTimeout <= 0 {
		cfg.RegisterTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	downCodec, err := CodecByName(cfg.Codec)
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		tlsCfg, err := kit.ServerTLS()
		if err != nil {
			return nil, err
		}
		ln, err = transport.ListenMessages(cfg.Addr, tlsCfg)
		if err != nil {
			return nil, err
		}
	}
	sessions := make(map[string]string)
	if cfg.WAL != nil {
		for name, token := range cfg.WAL.Recovered().Sessions {
			sessions[name] = token
		}
	}
	s := &Server{
		cfg:       cfg,
		kit:       kit,
		ln:        ln,
		downCodec: downCodec,
		// The token stream is independent of the sampling stream so adding
		// session tokens never perturbs which clients a seeded run samples.
		tokenRNG: tensor.NewRNG(cfg.Seed + 2654435761),
		met:      newFLMetrics(cfg.Metrics),
		// Buffered so reader goroutines never block on a drained server:
		// a cooperative client has at most one reply outstanding (it is
		// not re-tasked until that reply drains) plus one terminal error,
		// with headroom for reconnect deliveries.
		inbox:    make(chan delivery, 4*cfg.ExpectedClients),
		clients:  make(map[string]*serverClient),
		sessions: sessions,
	}
	s.eng = &roundEngine{
		fleet: s, inbox: s.inbox, clock: cfg.Clock,
		rounds: cfg.Rounds, deadline: cfg.RoundDeadline, fraction: cfg.SampleFraction,
		// MinClients 0 keeps the floor of one update, so deadline rounds
		// aggregate whatever arrived; and the quorum clamps to the sampled
		// count, not to the clients whose task send succeeded: send
		// failures count against an explicitly configured floor, never
		// silently lower it.
		minClients: cfg.MinClients, minUpdates: cfg.MinUpdates,
		quorumFloor: 1, quorumOverSampled: true,
		agg: cfg.Aggregator, async: cfg.AsyncAggregator, filters: cfg.Filters,
		// A tier node merges edge partials and folds plain updates on
		// arrival; the binned sum makes the result identical to flat FedAvg
		// over every leaf.
		validate: cfg.Validate, wal: cfg.WAL, fold: cfg.Tier != nil,
		met: s.met, rng: tensor.NewRNG(cfg.Seed + 7919),
		logf: func(format string, args ...any) { cfg.Logf("fl server: "+format, args...) },
	}
	s.eng.setPolicy(cfg.Reconcile)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener and all client connections.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		_ = c.conn.Close()
	}
	return err
}

// acceptClients runs the registration phase until ExpectedClients have
// presented valid tokens.
func (s *Server) acceptClients() error {
	// Registration is pure socket I/O, so its timeout is wall time even
	// when a simulated Clock drives the rounds: a virtual clock only
	// advances inside round gathers, and a registration deadline measured
	// against it would never fire.
	deadline := time.Now().Add(s.cfg.RegisterTimeout)
	for {
		s.mu.Lock()
		n := len(s.clients)
		s.mu.Unlock()
		if n >= s.cfg.ExpectedClients {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fl: registration timed out with %d/%d clients", n, s.cfg.ExpectedClients)
		}
		// The per-accept deadline is wall time: it bounds socket waits so
		// the registration loop can re-check its own (clock-driven)
		// timeout, not a simulated quantity.
		_ = s.ln.SetDeadline(time.Now().Add(time.Second))
		conn, err := s.ln.AcceptConn()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return fmt.Errorf("fl: accept: %w", err)
		}
		if err := s.register(conn); err != nil {
			s.cfg.Logf("fl server: rejected registration from %s: %v", conn.RemoteAddr(), err)
			_ = conn.Close()
		}
	}
}

// negotiateCodec resolves a registration's requested uplink codec: the
// client's choice is accepted if known (and, for top-k, explicitly
// allowed), with a fallback to raw.
func (s *Server) negotiateCodec(msg *transport.Message) string {
	codecName := msg.Meta[transport.MetaCodec]
	if _, err := CodecByName(codecName); err != nil {
		s.cfg.Logf("fl server: client %q requested unknown codec %q, falling back to raw", msg.Sender, codecName)
		codecName = "raw"
	} else if codecName == "" {
		codecName = "raw"
	}
	if strings.HasPrefix(codecName, "topk") && !s.cfg.AllowTopKUplink {
		s.cfg.Logf("fl server: client %q requested top-k uplink codec %q: rejected (top-k zeroes most of a full weight map; set AllowTopKUplink to accept), falling back to raw", msg.Sender, codecName)
		codecName = "raw"
	}
	return codecName
}

// register handles one client's MsgRegister handshake: admission-token
// verification, uplink codec negotiation, and session issuance. A new
// client is issued a session token (durably recorded before the ack when
// a WAL is configured); a returning client presenting its token — after a
// server restart, or redialing during the registration window — re-attaches
// to its session instead of being rejected as a duplicate.
func (s *Server) register(conn transport.MessageConn) error {
	msg, err := s.admit(conn)
	if err != nil {
		return err
	}
	codecName := s.negotiateCodec(msg)
	sess := msg.Meta[transport.MetaSession]
	resumed := sess != ""
	s.mu.Lock()
	if resumed && sess != s.sessions[msg.Sender] {
		s.mu.Unlock()
		s.rejectAck(conn, "unknown session")
		return fmt.Errorf("fl: unknown session from %q", msg.Sender)
	}
	if !resumed {
		sess = fmt.Sprintf("%016x", s.tokenRNG.Rand().Int63())
		s.sessions[msg.Sender] = sess
	}
	c, exists := s.clients[msg.Sender]
	if exists && !resumed {
		s.mu.Unlock()
		return fmt.Errorf("fl: duplicate client %q", msg.Sender)
	}
	if exists {
		if c.conn != nil {
			_ = c.conn.Close()
		}
		c.conn = conn
		c.gen++
		c.dead = false
	} else {
		s.clients[msg.Sender] = &serverClient{name: msg.Sender, conn: conn, token: sess, taskedRound: -1}
	}
	s.mu.Unlock()
	if !resumed && s.cfg.WAL != nil {
		if err := s.cfg.WAL.AppendSession(msg.Sender, sess); err != nil {
			return err
		}
	}
	if resumed {
		s.met.resumes.Inc()
		s.cfg.Logf("fl server: client %q session resumed (uplink codec %s)", msg.Sender, codecName)
	} else {
		s.cfg.Logf("fl server: client %q registered (token ok, uplink codec %s)", msg.Sender, codecName)
	}
	return s.acceptAck(conn, codecName, sess)
}

// admit reads one registration off a new connection, within the
// handshake deadline, and checks its admission token; a bad token is
// refused on the wire. It is the one admission step for every
// registration: the initial window, mid-run reconnects, and an edge's
// shard.
func (s *Server) admit(conn transport.MessageConn) (*transport.Message, error) {
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	msg, err := conn.Read()
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	if msg.Type != transport.MsgRegister {
		return nil, fmt.Errorf("fl: expected register, got %s", msg.Type)
	}
	if !s.cfg.VerifyToken(msg.Sender, msg.Token) {
		s.rejectAck(conn, "bad token")
		return nil, fmt.Errorf("fl: bad token from %q", msg.Sender)
	}
	return msg, nil
}

// rejectAck refuses a registration.
func (s *Server) rejectAck(conn transport.MessageConn, reason string) {
	_ = conn.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{"accepted": "false", "reason": reason},
	})
}

// acceptAck admits a registration under its uplink codec and session.
func (s *Server) acceptAck(conn transport.MessageConn, codec, sess string) error {
	return conn.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: s.kit.Name,
		Meta: map[string]string{
			"accepted": "true", transport.MetaCodec: codec, transport.MetaSession: sess,
		},
	})
}

// readLoop forwards conn's inbound messages (and finally its terminal
// read error) into the server inbox, tagged with the connection generation
// the reader was started under, so the Run goroutine can discard
// deliveries from a superseded connection after a session re-attach. conn
// is a parameter, never read from the shared client entry: the entry's
// conn is swapped on resume, and this reader must keep draining the
// connection it was born with.
func (s *Server) readLoop(name string, conn transport.MessageConn, gen int) {
	for {
		msg, err := conn.Read()
		if err != nil {
			s.inbox <- delivery{name: name, gen: gen, err: err}
			return
		}
		s.inbox <- delivery{name: name, gen: gen, msg: msg}
	}
}

// open runs the registration phase, then starts one reader goroutine
// per registered client — so a straggler's late reply is never stranded
// in a socket buffer and a dead connection is reported, not silently
// absent — and the accept loop that re-attaches reconnecting clients.
func (s *Server) open() error {
	if err := s.acceptClients(); err != nil {
		return err
	}
	s.mu.Lock()
	for _, c := range s.clients {
		go s.readLoop(c.name, c.conn, c.gen)
	}
	s.met.connected.Set(float64(len(s.clients)))
	s.mu.Unlock()
	go s.acceptLoop()
	return nil
}

// acceptLoop keeps accepting connections after the registration window so
// clients that lost their connection mid-run can re-attach. Admission and
// session validation happen here, off the round loop; the actual
// re-attach — swapping the connection, restarting the reader, re-sending
// an in-flight task — is posted to the inbox and performed by the Run
// goroutine, which owns all connection writes. The loop ends when the
// listener closes.
func (s *Server) acceptLoop() {
	_ = s.ln.SetDeadline(time.Time{})
	for {
		conn, err := s.ln.AcceptConn()
		if err != nil {
			return
		}
		go func(conn transport.MessageConn) {
			r, err := s.vetReconnect(conn)
			if err != nil {
				s.cfg.Logf("fl server: rejected reconnect from %s: %v", conn.RemoteAddr(), err)
				_ = conn.Close()
				return
			}
			s.inbox <- delivery{name: r.name, resume: r}
		}(conn)
	}
}

// vetReconnect reads and validates a mid-run registration: the admission
// token must verify and the presented session token must match the one
// issued (or recovered from the WAL). New clients cannot join mid-run.
func (s *Server) vetReconnect(conn transport.MessageConn) (*resumeConn, error) {
	msg, err := s.admit(conn)
	if err != nil {
		return nil, err
	}
	sess := msg.Meta[transport.MetaSession]
	s.mu.Lock()
	known := s.sessions[msg.Sender]
	s.mu.Unlock()
	if sess == "" || sess != known {
		s.rejectAck(conn, "unknown session")
		return nil, fmt.Errorf("fl: reconnect from %q without a valid session", msg.Sender)
	}
	return &resumeConn{name: msg.Sender, token: sess, codec: s.negotiateCodec(msg), conn: conn}, nil
}

// reattach completes a vetted reconnect on the Run goroutine: the
// client's connection is replaced, its reader restarted under a bumped
// generation (messages from the dead connection become stale), and the
// registration ack written. It reports whether the client's task slot for
// round was held before the swap, and why the re-attach failed.
func (s *Server) reattach(r *resumeConn, round int) (slotHeld bool, err error) {
	s.mu.Lock()
	c, known := s.clients[r.name]
	if !known {
		c = &serverClient{name: r.name, token: r.token, taskedRound: -1}
		s.clients[r.name] = c
	}
	old := c.conn
	wasDead := c.dead
	slotHeld = c.taskedRound == round
	c.conn = r.conn
	c.gen++
	gen := c.gen
	c.dead = false
	c.taskedRound = -1
	s.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	if err := s.acceptAck(r.conn, r.codec, r.token); err != nil {
		s.markDead(r.name)
		return slotHeld, fmt.Errorf("resume ack: %v", err)
	}
	go s.readLoop(r.name, r.conn, gen)
	s.met.resumes.Inc()
	if wasDead {
		s.met.connected.Add(1)
	}
	s.cfg.Logf("fl server: client %q session resumed mid-run", r.name)
	return slotHeld, nil
}

// clientGen returns a client's current connection generation (-1 when
// unknown).
func (s *Server) clientGen(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[name]; ok {
		return c.gen
	}
	return -1
}

// Run performs registration then E federated rounds, returning the result.
// Meta round parameters (epochs etc.) are the clients' concern: each client
// was provisioned with its own local config.
func (s *Server) Run(initialWeights map[string]*tensor.Matrix) (*Result, error) {
	if err := s.open(); err != nil {
		return nil, err
	}
	res, err := s.eng.run(context.Background(), initialWeights)
	if err != nil {
		return nil, err
	}
	// Distribute the final model and release the clients.
	blob, err := s.downCodec.Encode(res.FinalWeights)
	if err != nil {
		return nil, err
	}
	s.finish(blob, &res.History)
	return res, nil
}

// finish broadcasts the final model payload, releasing the clients, and
// records the clients it could not reach and the run's framed wire
// totals (headers, metadata and gob overhead included, complementing the
// per-round payload counters).
func (s *Server) finish(blob []byte, h *History) {
	h.FinishFailures = s.broadcast(&transport.Message{
		Type: transport.MsgFinish, Sender: s.kit.Name, Payload: blob,
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clients {
		h.WireBytesRead += c.conn.BytesRead()
		h.WireBytesWritten += c.conn.BytesWritten()
	}
}

// begin implements fleet: the round's task payload is the global model
// under the downlink codec, encoded once for every client.
func (s *Server) begin(global map[string]*tensor.Matrix) error {
	blob, err := s.downCodec.Encode(global)
	s.blob = blob
	return err
}

// idle implements fleet: live clients not still chewing on an earlier
// round's task, in name order.
func (s *Server) idle() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.clients))
	for name, c := range s.clients {
		if !c.dead && c.taskedRound < 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// size implements fleet: sampling fractions apply to the live clients.
func (s *Server) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.clients {
		if !c.dead {
			n++
		}
	}
	return n
}

// lost implements fleet.
func (s *Server) lost(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[name]; !ok || c.dead {
		return "tasked before crash, not reconnected"
	}
	return ""
}

// dispatch implements fleet: write the round's task to the client's
// connection. A failed write marks the connection dead.
func (s *Server) dispatch(name string, round int) (int64, error) {
	s.mu.Lock()
	conn := s.clients[name].conn
	s.mu.Unlock()
	task := &transport.Message{
		Type: transport.MsgTask, Sender: s.kit.Name, Round: round, Payload: s.blob,
		Meta: map[string]string{"round": strconv.Itoa(round)},
	}
	if err := conn.Write(task); err != nil {
		s.markDead(name)
		return 0, err
	}
	s.setTasked(name, round)
	return int64(len(s.blob)), nil
}

// probe implements fleet: a MsgPing whose MsgPong answer resolves the
// probe. A dead or unwritable connection fails it at once, backing off
// the next one — the client rejoins by reconnecting and answering a
// later ping.
func (s *Server) probe(round int, name string) bool {
	s.mu.Lock()
	c, ok := s.clients[name]
	var conn transport.MessageConn
	dead := true
	if ok {
		conn, dead = c.conn, c.dead
	}
	s.mu.Unlock()
	if ok && !dead && conn != nil {
		ping := &transport.Message{Type: transport.MsgPing, Sender: s.kit.Name, Round: round}
		if err := conn.Write(ping); err == nil {
			return true // in flight; the pong (or the conn error) resolves it
		}
		s.markDead(name)
	}
	return false
}

// errUnsolicited rejects an update from a client that holds no task.
var errUnsolicited = errors.New("unsolicited update (not tasked)")

// resolve implements fleet. Outcomes are classified by the server-side
// task record, never the client-supplied msg.Round: a tasked client
// sending a malformed round must still release its pending slot, an
// untasked one must not be able to claim participation, and a late
// update's staleness is measured from the round it was tasked for.
func (s *Server) resolve(d delivery, round int) fleetEvent {
	if d.resume != nil {
		slotHeld, err := s.reattach(d.resume, round)
		return fleetEvent{kind: evReattach, name: d.name, slotHeld: slotHeld, err: err}
	}
	if s.clientGen(d.name) != d.gen {
		return fleetEvent{kind: evSkip} // stale delivery from a superseded connection
	}
	if d.msg != nil && d.msg.Type == transport.MsgPong && s.cfg.Reconcile != nil {
		// Before the tasked-slot bookkeeping: a pong must never release a
		// pending task.
		return fleetEvent{kind: evProbe, name: d.name}
	}
	ev := fleetEvent{kind: evOutcome, name: d.name, round: s.setTasked(d.name, -1)}
	if d.err != nil {
		s.markDead(d.name)
		ev.err, ev.cause = d.err, "conn"
		return ev
	}
	u, err := s.handleReply(d.name, d.msg)
	switch {
	case err != nil:
		ev.err, ev.cause = err, "reject"
	case ev.round < 0:
		ev.err, ev.cause = errUnsolicited, "reject"
	default:
		u.Round = ev.round
		ev.update = u
	}
	return ev
}

// handleReply turns one inbound message into a ClientUpdate.
func (s *Server) handleReply(name string, msg *transport.Message) (*ClientUpdate, error) {
	if msg.Type != transport.MsgUpdate {
		return nil, fmt.Errorf("expected update, got %s: %s", msg.Type, msg.Meta["error"])
	}
	// Enforce the top-k gate on the payload itself, not just at
	// negotiation: DecodeWeights sniffs any magic, so a client ignoring
	// the registration ack could otherwise push sparsified weights (most
	// of every parameter zeroed) straight into the average.
	if !s.cfg.AllowTopKUplink && bytes.HasPrefix(msg.Payload, []byte(topKMagic)) {
		return nil, errors.New("top-k update payload rejected (not negotiated; set AllowTopKUplink)")
	}
	if hier.IsPartial(msg.Payload) {
		// A partial-aggregate uplink from an edge node. The same payload
		// gate applies as for top-k: a flat server must reject it rather
		// than let an unexpected codec reach the average.
		if s.cfg.Tier == nil {
			return nil, errors.New("partial-aggregate payload rejected (server is not tier-enabled; set Tier)")
		}
		p, err := hier.DecodePartial(msg.Payload)
		if err != nil {
			return nil, err
		}
		// Weight and mean loss come from the partial itself — the exact
		// fold accounting — not from what the message header claims.
		return &ClientUpdate{
			ClientName: name, Round: msg.Round,
			NumSamples: clampSamples(p.Weight()), TrainLoss: p.MeanLoss(),
			PayloadBytes: len(msg.Payload),
			hierPartial:  p,
		}, nil
	}
	weights, err := DecodeWeights(msg.Payload)
	if err != nil {
		return nil, err
	}
	loss, _ := strconv.ParseFloat(msg.Meta["train_loss"], 64)
	return &ClientUpdate{
		ClientName: name, Round: msg.Round, Weights: weights,
		NumSamples: msg.NumSamples, TrainLoss: loss,
		PayloadBytes: len(msg.Payload),
	}, nil
}

// setTasked updates a client's tasked round, returning the previous value.
func (s *Server) setTasked(name string, round int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.clients[name]
	if !ok {
		return -1
	}
	prev := c.taskedRound
	c.taskedRound = round
	return prev
}

// markDead flags a client's connection as failed.
func (s *Server) markDead(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[name]; ok && !c.dead {
		c.dead = true
		s.met.connected.Add(-1)
	}
}

// broadcast best-effort sends msg to every live client, returning
// "client: error" strings for the ones it could not reach so the caller
// can record them in the Result.
func (s *Server) broadcast(msg *transport.Message) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var failures []string
	for name, c := range s.clients {
		if c.dead {
			failures = append(failures, fmt.Sprintf("%s: connection already failed", name))
			continue
		}
		if err := c.conn.Write(msg); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			s.cfg.Logf("fl server: broadcast to %q: %v", name, err)
		}
	}
	return failures
}
