package fl

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clinfl/internal/fl/hier"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

func leafWeights(scale float64) map[string]*tensor.Matrix {
	m := tensor.New(1, 2)
	m.Data()[0], m.Data()[1] = 1.5*scale, -0.25*scale
	return map[string]*tensor.Matrix{"w": m}
}

// runLeaf drives one hand-rolled downstream client through register /
// task / update / finish against the edge, requesting codec and handing
// every task to reply. It returns the registration ack's codec and the
// finish payload.
func runLeaf(t *testing.T, net *transport.MemNetwork, name, codec string, reply func(task *transport.Message) *transport.Message) (ackCodec string, final []byte) {
	t.Helper()
	conn, err := net.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
	if err != nil {
		t.Errorf("%s: dial: %v", name, err)
		return "", nil
	}
	defer conn.Close()
	if err := conn.Write(&transport.Message{
		Type: transport.MsgRegister, Sender: name, Token: "tok-" + name,
		Meta: map[string]string{transport.MetaCodec: codec},
	}); err != nil {
		t.Errorf("%s: register: %v", name, err)
		return "", nil
	}
	ack, err := conn.Read()
	if err != nil || ack.Meta["accepted"] != "true" {
		t.Errorf("%s: ack = %v, %v", name, ack, err)
		return "", nil
	}
	for {
		msg, err := conn.Read()
		if err != nil {
			return ack.Meta[transport.MetaCodec], nil
		}
		switch msg.Type {
		case transport.MsgTask:
			if err := conn.Write(reply(msg)); err != nil {
				t.Errorf("%s: reply: %v", name, err)
				return "", nil
			}
		case transport.MsgFinish:
			return ack.Meta[transport.MetaCodec], msg.Payload
		}
	}
}

// weightsReply answers a task with w under the raw codec.
func weightsReply(t *testing.T, name string, w map[string]*tensor.Matrix, samples int) func(*transport.Message) *transport.Message {
	return func(task *transport.Message) *transport.Message {
		blob, err := EncodeWeights(w)
		if err != nil {
			t.Errorf("%s: encode: %v", name, err)
		}
		return &transport.Message{
			Type: transport.MsgUpdate, Sender: name, Round: task.Round,
			Payload: blob, NumSamples: samples,
			Meta: map[string]string{"train_loss": "0.5"},
		}
	}
}

// edgeRun is an Edge's Run outcome.
type edgeRun struct {
	res *Result
	err error
}

// startEdge builds a shard edge named edge-0 over its own network, with
// its parent reachable on parentNet, and runs it.
func startEdge(t *testing.T, parentNet, shardNet *transport.MemNetwork, clients, minUpdates int) <-chan edgeRun {
	t.Helper()
	edge, err := NewEdge(EdgeConfig{
		Name:  "edge-0",
		Token: "tok-edge-0",
		DialParent: func() (transport.MessageConn, error) {
			return parentNet.Dial("edge-0", transport.LinkProfile{}, transport.LinkProfile{})
		},
		Listener:        shardNet,
		ExpectedClients: clients,
		RegisterTimeout: 5 * time.Second,
		VerifyToken:     func(name, token string) bool { return token == "tok-"+name },
		RoundDeadline:   5 * time.Second,
		MinUpdates:      minUpdates,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan edgeRun, 1)
	go func() {
		res, err := edge.Run()
		done <- edgeRun{res, err}
	}()
	return done
}

// playParent accepts the edge on net and acknowledges its registration:
// the test plays the root.
func playParent(t *testing.T, net *transport.MemNetwork) transport.MessageConn {
	t.Helper()
	parent, err := net.AcceptConn()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := parent.Read()
	if err != nil || reg.Type != transport.MsgRegister || reg.Sender != "edge-0" || reg.Token != "tok-edge-0" {
		t.Fatalf("parent registration = %v, %v", reg, err)
	}
	if err := parent.Write(&transport.Message{
		Type: transport.MsgRegisterAck, Sender: "root",
		Meta: map[string]string{"accepted": "true", transport.MetaCodec: "raw"},
	}); err != nil {
		t.Fatal(err)
	}
	return parent
}

// roundPartial sends the edge one task and decodes the partial it
// uplinks.
func roundPartial(t *testing.T, parent transport.MessageConn, task []byte) (*transport.Message, *hier.Partial) {
	t.Helper()
	if err := parent.Write(&transport.Message{Type: transport.MsgTask, Sender: "root", Round: 0, Payload: task}); err != nil {
		t.Fatal(err)
	}
	up, err := parent.Read()
	if err != nil {
		t.Fatal(err)
	}
	if up.Type != transport.MsgUpdate || !hier.IsPartial(up.Payload) {
		t.Fatalf("parent got %v %v (partial=%v), want partial MsgUpdate", up.Type, up.Meta, hier.IsPartial(up.Payload))
	}
	got, err := hier.DecodePartial(up.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return up, got
}

// finishEdge sends the final model and waits for the edge to return.
func finishEdge(t *testing.T, parent transport.MessageConn, final []byte, done <-chan edgeRun) *Result {
	t.Helper()
	if err := parent.Write(&transport.Message{Type: transport.MsgFinish, Sender: "root", Payload: final}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("edge run: %v", r.err)
		}
		return r.res
	case <-time.After(10 * time.Second):
		t.Fatal("edge did not finish")
	}
	return nil
}

func assertSameBits(t *testing.T, want, got map[string]*tensor.Matrix, what string) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: param %q missing", what, name)
		}
		for i, v := range w.Data() {
			if math.Float64bits(v) != math.Float64bits(g.Data()[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, g.Data()[i], v)
			}
		}
	}
}

// TestEdgeAggregatesShard wires a full edge hop over in-memory links:
// two weight-sending leaves, one child that uplinks an already-merged
// partial (a stacked lower edge), and one failing leaf. The parent must
// receive exactly one partial carrying the merged model, the combined
// accounting, and the recorded failure; the leaves must see the
// parent's task and final payloads byte for byte.
func TestEdgeAggregatesShard(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	done := startEdge(t, rootNet, edgeNet, 4, 0)

	// The task travels under f32, which the edge's own (raw) downlink
	// codec would not reproduce: leaves must still get these bytes.
	taskBlob, err := Float32Codec{}.Encode(leafWeights(10))
	if err != nil {
		t.Fatal(err)
	}
	finalBlob, err := Float32Codec{}.Encode(leafWeights(99))
	if err != nil {
		t.Fatal(err)
	}
	var leaves sync.WaitGroup
	leaf := func(name string, reply func(*transport.Message) *transport.Message) {
		leaves.Add(1)
		go func() {
			defer leaves.Done()
			_, final := runLeaf(t, edgeNet, name, "raw", func(task *transport.Message) *transport.Message {
				if string(task.Payload) != string(taskBlob) {
					t.Errorf("%s: task payload differs from the parent's", name)
				}
				return reply(task)
			})
			if string(final) != string(finalBlob) {
				t.Errorf("%s: finish payload differs from the parent's", name)
			}
		}()
	}
	for i, scale := range []float64{1, 2} {
		name := "leaf-" + strconv.Itoa(i)
		leaf(name, weightsReply(t, name, leafWeights(scale), 4*(i+1)))
	}
	// A stacked child edge: its uplink is already a partial.
	childPartial := hier.NewPartial()
	for i, scale := range []float64{3, 4} {
		err := childPartial.Fold(hier.Update{
			ClientName: "deep-" + strconv.Itoa(i),
			Weights:    leafWeights(scale),
			NumSamples: 8,
			TrainLoss:  0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	childBlob, err := hier.EncodePartial(childPartial)
	if err != nil {
		t.Fatal(err)
	}
	leaf("sub-edge", func(task *transport.Message) *transport.Message {
		return &transport.Message{
			Type: transport.MsgUpdate, Sender: "sub-edge", Round: task.Round,
			Payload: childBlob, NumSamples: int(childPartial.Weight()),
		}
	})
	// A leaf whose local training fails.
	leaf("leaf-bad", func(task *transport.Message) *transport.Message {
		return &transport.Message{
			Type: transport.MsgError, Sender: "leaf-bad", Round: task.Round,
			Meta: map[string]string{"error": "exec: out of memory"},
		}
	})

	parent := playParent(t, rootNet)
	defer parent.Close()
	up, got := roundPartial(t, parent, taskBlob)
	if got.Updates() != 4 || got.Weight() != 4+8+16 {
		t.Fatalf("partial updates/weight = %d/%d, want 4/28", got.Updates(), got.Weight())
	}
	parts := got.Participants()
	if len(parts) != 4 || parts[0] != "deep-0" || parts[3] != "leaf-1" {
		t.Fatalf("participants = %v", parts)
	}
	fails := got.Failures()
	if len(fails) != 1 || fails[0] != "leaf-bad: expected update, got error: exec: out of memory" {
		t.Fatalf("failures = %v", fails)
	}
	if got.TierBytes() != int64(len(childBlob)) {
		t.Fatalf("tier bytes = %d, want %d (the stacked child's encoded partial)", got.TierBytes(), len(childBlob))
	}
	if up.NumSamples != 28 {
		t.Fatalf("uplink NumSamples = %d, want 28", up.NumSamples)
	}

	// The merged model must match folding the same updates flat.
	want := hier.NewPartial()
	for i, scale := range []float64{1, 2} {
		if err := want.Fold(hier.Update{ClientName: "leaf-" + strconv.Itoa(i), Weights: leafWeights(scale), NumSamples: 4 * (i + 1), TrainLoss: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for i, scale := range []float64{3, 4} {
		if err := want.Fold(hier.Update{ClientName: "deep-" + strconv.Itoa(i), Weights: leafWeights(scale), NumSamples: 8, TrainLoss: 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	wantW, err := want.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := got.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, wantW, gotW, "edge shard")

	res := finishEdge(t, parent, finalBlob, done)
	leaves.Wait()
	if len(res.History.Rounds) != 1 {
		t.Fatalf("edge ran %d rounds, want 1", len(res.History.Rounds))
	}
	if rec := res.History.Rounds[0]; rec.TierPartials != 1 || rec.TierBytesUp != int64(len(childBlob)) {
		t.Fatalf("edge round tier accounting = %d partials / %d bytes, want 1 / %d",
			rec.TierPartials, rec.TierBytesUp, len(childBlob))
	}
	if got := res.FinalWeights["w"].Data()[0]; got != float64(float32(1.5*99)) {
		t.Fatalf("edge final weights = %v", res.FinalWeights["w"].Data())
	}
}

// TestEdgeQuorumFailure: an edge whose whole shard errors must report
// the round to its parent as a failure, not send an empty partial, and
// keep serving.
func TestEdgeQuorumFailure(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	done := startEdge(t, rootNet, edgeNet, 1, 0)
	go runLeaf(t, edgeNet, "leaf-0", "raw", func(task *transport.Message) *transport.Message {
		return &transport.Message{Type: transport.MsgError, Sender: "leaf-0", Round: task.Round,
			Meta: map[string]string{"error": "boom"}}
	})
	parent := playParent(t, rootNet)
	defer parent.Close()
	blob, err := EncodeWeights(leafWeights(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(&transport.Message{Type: transport.MsgTask, Round: 0, Payload: blob}); err != nil {
		t.Fatal(err)
	}
	up, err := parent.Read()
	if err != nil {
		t.Fatal(err)
	}
	if up.Type != transport.MsgError || !strings.Contains(up.Meta["error"], "quorum not met") {
		t.Fatalf("parent got %v %v, want MsgError with the quorum reason", up.Type, up.Meta)
	}
	res := finishEdge(t, parent, blob, done)
	if n := len(res.History.Rounds); n != 1 || !strings.Contains(strings.Join(res.History.Rounds[0].Failures, ";"), "boom") {
		t.Fatalf("edge history = %+v, want the failed round with the leaf's error", res.History.Rounds)
	}
}

// TestEdgeRefusesTopKUplink: an edge enforces the root's top-k gate. A
// leaf asking for the top-k uplink codec is acked raw, and a top-k
// payload it sends anyway is refused — most of every parameter would
// decode as zero — instead of being folded into the partial.
func TestEdgeRefusesTopKUplink(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	done := startEdge(t, rootNet, edgeNet, 2, 0)
	go runLeaf(t, edgeNet, "leaf-0", "raw", weightsReply(t, "leaf-0", leafWeights(1), 4))
	topkAck := make(chan string, 1)
	go func() {
		codec, _ := runLeaf(t, edgeNet, "leaf-topk", "topk:0.5", func(task *transport.Message) *transport.Message {
			blob, err := TopKCodec{Fraction: 0.5}.Encode(leafWeights(1))
			if err != nil {
				t.Errorf("topk encode: %v", err)
			}
			return &transport.Message{
				Type: transport.MsgUpdate, Sender: "leaf-topk", Round: task.Round,
				Payload: blob, NumSamples: 4, Meta: map[string]string{"train_loss": "0.5"},
			}
		})
		topkAck <- codec
	}()
	parent := playParent(t, rootNet)
	defer parent.Close()
	task, err := EncodeWeights(leafWeights(10))
	if err != nil {
		t.Fatal(err)
	}
	_, got := roundPartial(t, parent, task)
	if parts := got.Participants(); len(parts) != 1 || parts[0] != "leaf-0" {
		t.Fatalf("participants = %v, want only leaf-0 (the top-k update refused)", parts)
	}
	if fails := got.Failures(); len(fails) != 1 || !strings.Contains(fails[0], "leaf-topk: top-k update payload rejected") {
		t.Fatalf("failures = %v, want the top-k refusal", fails)
	}
	gotW, err := got.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, leafWeights(1), gotW, "edge partial")
	finishEdge(t, parent, task, done)
	if codec := <-topkAck; codec != "raw" {
		t.Fatalf("top-k leaf was acked with codec %q, want the raw fallback", codec)
	}
}

// hookExecutor runs hook before each round of the executor it wraps.
type hookExecutor struct {
	Executor
	hook func(round int)
}

func (h hookExecutor) ExecuteRound(round int, global map[string]*tensor.Matrix) (*ClientUpdate, error) {
	h.hook(round)
	return h.Executor.ExecuteRound(round, global)
}

// TestEdgeLeafReattachesWithSession deploys root ← edge ← two leaves,
// all on the stock Server and Client. The flaky leaf's first round-0
// task arrives corrupted, so it drops its link, redials the edge and
// presents the session token the edge issued; the edge re-attaches it,
// re-sends the in-flight task, and the round completes with both leaves.
// The steady leaf answers round 0 only after flaky has run it, so the
// edge's gather is still open when flaky returns.
func TestEdgeLeafReattachesWithSession(t *testing.T) {
	rootNet := transport.NewMemNetwork()
	edgeNet := transport.NewMemNetwork()
	defer rootNet.Close()
	defer edgeNet.Close()
	root, err := NewServer(ServerConfig{
		ExpectedClients: 1,
		Rounds:          2,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     func(name, token string) bool { return token == "tok-"+name },
		Logf:            quietLogf,
		Listener:        rootNet,
		Tier:            &TierConfig{},
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "root"})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	done := startEdge(t, rootNet, edgeNet, 2, 2)

	flakyRan := make(chan struct{})
	var once sync.Once
	var flakyDials atomic.Int32
	leaves := map[string]Executor{
		"flaky": hookExecutor{&fakeExecutor{name: "flaky", samples: 10, value: 1}, func(int) {
			once.Do(func() { close(flakyRan) })
		}},
		"steady": hookExecutor{&fakeExecutor{name: "steady", samples: 30, value: 2}, func(round int) {
			if round == 0 {
				select {
				case <-flakyRan:
				case <-time.After(10 * time.Second):
				}
			}
		}},
	}
	var wg sync.WaitGroup
	for name, exec := range leaves {
		cl, err := NewClient(ClientConfig{
			Logf: quietLogf,
			Dialer: func() (transport.MessageConn, error) {
				down := transport.LinkProfile{}
				if name == "flaky" && flakyDials.Add(1) == 1 {
					// Down message 0 is the register ack; message 1 is the
					// round-0 task, which arrives bit-flipped.
					down.Faults = transport.FaultSchedule{CorruptMsgs: []int{1}}
				}
				return edgeNet.Dial(name, transport.LinkProfile{}, down)
			},
			Reconnect:     true,
			MaxReconnects: 10,
			Backoff:       fastBackoff(),
		}, &provision.StartupKit{Role: provision.RoleClient, Name: name, Token: "tok-" + name}, exec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Run(); err != nil {
				t.Errorf("leaf %s: %v", name, err)
			}
		}()
	}
	res, err := root.Run(initialWeights())
	if err != nil {
		t.Fatalf("root run: %v", err)
	}
	wg.Wait()
	er := <-done
	if er.err != nil {
		t.Fatalf("edge run: %v", er.err)
	}
	if got := flakyDials.Load(); got < 2 {
		t.Fatalf("flaky dialed %d times, want a reconnect after the corrupt frame", got)
	}
	for _, rec := range er.res.History.Rounds {
		if strings.Join(rec.Participants, ",") != "flaky,steady" {
			t.Fatalf("edge round %d participants %v, want both leaves", rec.Round, rec.Participants)
		}
	}
	if want := 1.75; res.FinalWeights["layer.w"].At(0, 0) != want { // FedAvg of 1 (n=10) and 2 (n=30)
		t.Fatalf("root final weight %v, want %v", res.FinalWeights["layer.w"].At(0, 0), want)
	}
}
