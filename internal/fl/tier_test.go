package fl

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"clinfl/internal/fl/hier"
	"clinfl/internal/provision"
	"clinfl/internal/tensor"
	"clinfl/internal/transport"
)

// tierRootHeap runs one round of a tier root fed by the given number of
// hand-rolled edges, each uplinking the same encoded partial, and
// returns the live heap measured when the round's aggregation ends (in
// Validate).
func tierRootHeap(t *testing.T, edges int, partial []byte, initial map[string]*tensor.Matrix) uint64 {
	t.Helper()
	network := transport.NewMemNetwork()
	defer network.Close()
	var heap uint64
	srv, err := NewServer(ServerConfig{
		ExpectedClients: edges,
		Rounds:          1,
		RegisterTimeout: 10 * time.Second,
		VerifyToken:     func(string, string) bool { return true },
		Logf:            quietLogf,
		Listener:        network,
		Tier:            &TierConfig{},
		Validate: func(map[string]*tensor.Matrix) (float64, error) {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap = ms.HeapAlloc
			return 0, nil
		},
	}, &provision.StartupKit{Role: provision.RoleServer, Name: "root"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < edges; i++ {
		name := fmt.Sprintf("edge-%02d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := network.Dial(name, transport.LinkProfile{}, transport.LinkProfile{})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			defer conn.Close()
			if err := conn.Write(&transport.Message{Type: transport.MsgRegister, Sender: name}); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			for {
				msg, err := conn.Read()
				if err != nil || msg.Type == transport.MsgFinish {
					return
				}
				if msg.Type == transport.MsgTask {
					_ = conn.Write(&transport.Message{
						Type: transport.MsgUpdate, Sender: name, Round: msg.Round,
						Payload: partial, NumSamples: 1,
					})
				}
			}
		}()
	}
	if _, err := srv.Run(initial); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return heap
}

// TestTierRootStateIndependentOfEdges pins the networked tier root's
// O(model) aggregation state: each edge's partial is merged as it
// arrives and dropped, so at the end of a round the root holds one
// partial however many edges fed it — not one decoded partial per edge.
func TestTierRootStateIndependentOfEdges(t *testing.T) {
	const elems = 1 << 15
	p := hier.NewPartial()
	w := tensor.New(1, elems)
	for i := range w.Data() {
		w.Data()[i] = float64(i%7) - 3.25
	}
	if err := p.Fold(hier.Update{ClientName: "leaf", Weights: map[string]*tensor.Matrix{"w": w}, NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	blob, err := hier.EncodePartial(p)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[string]*tensor.Matrix{"w": tensor.New(1, elems)}
	few := tierRootHeap(t, 2, blob, initial)
	many := tierRootHeap(t, 16, blob, initial)
	t.Logf("root heap: %d B with 2 edges, %d B with 16; one partial is %d B", few, many, len(blob))
	// One partial's bins are ~len(blob) bytes; 14 more edges buffered would
	// add ~14 of them. Connections and goroutines cost far less than one.
	if bound := 3 * uint64(len(blob)); many > few+bound {
		t.Fatalf("root heap %d B with 16 edges vs %d B with 2: grew %d B, more than %d B (3 partials); the root is buffering per-edge state",
			many, few, many-few, bound)
	}
}
