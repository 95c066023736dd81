package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// stack builds a leaf-first stack from "name@file" or bare names.
func stack(frames ...string) []frame {
	out := make([]frame, len(frames))
	for i, f := range frames {
		name, file, _ := strings.Cut(f, "@")
		out[i] = frame{name: name, file: file}
	}
	return out
}

func TestAttributeMapsSamplesToModules(t *testing.T) {
	const (
		aggregate = "clinfl/internal/fl.FedAvg.Aggregate@/src/internal/fl/aggregate.go"
		codec     = "clinfl/internal/fl.Float32Codec.Encode@/src/internal/fl/codec.go"
		server    = "clinfl/internal/fl.(*Server).Run@/src/internal/fl/server.go"
	)
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"nn kernel", stack("clinfl/internal/tensor.matmulRowAssign", "clinfl/internal/autograd.(*Tape).run"), "tensor.gemm_nn"},
		{"transB dot", stack("clinfl/internal/tensor.dot", "clinfl/internal/tensor.matmulTransBRange"), "tensor.gemm_transb"},
		{"transA kernel", stack("clinfl/internal/tensor.matmulTransARange"), "tensor.gemm_transa"},
		{"blocked kernel", stack("clinfl/internal/tensor.blockMatMulRange"), "tensor.gemm_nn"},
		{"optimizer", stack("clinfl/internal/opt.(*Adam).Step"), "opt"},
		{"model code", stack("clinfl/internal/model.(*BERT).evalLogits"), "nn"},
		{"fsync under the WAL", stack("internal/runtime/syscall.Syscall6", "syscall.Fsync", "os.(*File).Sync",
			"clinfl/internal/fl/durable.(*WAL).fsync"), "durable"},
		{"socket write under TLS", stack("internal/runtime/syscall.Syscall6", "syscall.write", "crypto/tls.(*Conn).Write"), "crypto"},
		{"gob under transport", stack("encoding/gob.(*Encoder).Encode", "clinfl/internal/transport.encodeMessage"), "transport"},
		{"memmove in the codec", stack("runtime.memmove", codec), "fl.codec"},
		{"map iteration in reconcile", stack("internal/runtime/maps.(*Iter).Next", "runtime.mapiternext",
			"clinfl/internal/fl/reconcile.(*Monitor).DueProbes"), "fl.reconcile"},
		{"tensor helper under FedAvg", stack("clinfl/internal/tensor.(*Matrix).AddScaledInPlace", aggregate, server), "fl.aggregate"},
		{"tensor helper under autograd", stack("clinfl/internal/tensor.(*Matrix).AddScaledInPlace",
			"clinfl/internal/autograd.(*Tape).Backward", aggregate), "tensor.other"},
		{"other fl code", stack(server), "fl.other"},
		{"allocation", stack("runtime.mallocgc", "clinfl/internal/tensor.New"), "runtime.other"},
		{"clearing fresh memory", stack("runtime.memclrNoHeapPointers", "runtime.mallocgc", "clinfl/internal/tensor.New"), "runtime.other"},
		{"gc worker", stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{"gc assist", stack("runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", codec), "runtime.gc"},
		{"scheduler", stack("runtime.futex", "runtime.notewakeup"), "runtime.other"},
		{"hier fold", stack("clinfl/internal/fl/hier.twoSum", "clinfl/internal/fl/hier.(*Partial).Fold"), "hier"},
		{"simulator", stack("clinfl/internal/sim.(*LinearShard).Train"), "sim"},
		{"harness", stack("main.readUsage"), "other"},
		{"std only", stack("internal/poll.(*FD).Read"), "other"},
		{"empty", nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCPUSharesCoverEveryModuleAndSumToOne(t *testing.T) {
	samples := []cpuSample{
		{stack: stack("clinfl/internal/tensor.dot"), weight: 30},
		{stack: stack("runtime.futex"), weight: 10},
		{stack: stack("clinfl/internal/fl/hier.twoSum"), weight: 60},
	}
	shares := cpuShares(samples)
	if len(shares) != len(cpuModules) {
		t.Fatalf("%d shares for %d modules", len(shares), len(cpuModules))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if shares["tensor.gemm_transb"] != 0.3 || shares["hier"] != 0.6 || shares["runtime.other"] != 0.1 {
		t.Fatalf("shares %v", shares)
	}
	if got := cpuShares(nil)["hier"]; got != 0 {
		t.Fatalf("empty profile share %v", got)
	}
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

func TestParseCPUProfileReadsRuntimeProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples parsed")
	}
	var burnW, total int64
	for _, s := range samples {
		total += s.weight
		for _, f := range s.stack {
			if f.name == "clinfl/fedbench.burn" || f.name == "main.burn" {
				burnW += s.weight
				if !strings.HasSuffix(f.file, "profile_test.go") {
					t.Errorf("burn frame file %q", f.file)
				}
				break
			}
		}
	}
	if burnW*2 < total {
		t.Fatalf("burn holds %d of %d ns: stacks not decoded", burnW, total)
	}
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage parsed without error")
	}
}
