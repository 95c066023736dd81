package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// frame is one function on a sampled stack.
type frame struct{ name, file string }

// cpuSample is one profile sample: its stack, leaf first, and its weight
// (CPU nanoseconds).
type cpuSample struct {
	stack  []frame
	weight int64
}

// parseCPUProfile decodes the gzipped pprof protobuf that runtime/pprof
// writes, keeping just what module attribution needs: each sample's stack
// (inlined frames expanded, leaf first) and its CPU time.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type fn struct{ name, file int64 }
	var (
		strs      []string
		funcs     = map[uint64]fn{}
		locs      = map[uint64][]uint64{} // location id -> function ids, leaf first
		rawSample [][]byte
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fids
			return err
		case 5:
			var id uint64
			var f fn
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locIDs, values []uint64
		err := eachField(b, func(n int, v uint64, pb []byte) error {
			switch n {
			case 1:
				locIDs = appendPacked(locIDs, v, pb)
			case 2:
				values = appendPacked(values, v, pb)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			continue
		}
		s := cpuSample{weight: int64(values[len(values)-1])}
		for _, id := range locIDs {
			for _, fid := range locs[id] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{name: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either as one
// unpacked value (pb nil) or as a packed run.
func appendPacked(dst []uint64, v uint64, pb []byte) []uint64 {
	if pb == nil {
		return append(dst, v)
	}
	for len(pb) > 0 {
		x, n := uvarint(pb)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		pb = pb[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its length-delimited bytes.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuModules lists every module a CPU sample can be attributed to; the
// shares reported under cpu_share.<module> sum to one.
var cpuModules = []string{
	"tensor.gemm_nn", "tensor.gemm_transa", "tensor.gemm_transb", "tensor.other",
	"autograd", "nn", "opt", "sched",
	"fl.codec", "fl.aggregate", "fl.reconcile", "fl.other", "transport", "crypto", "durable",
	"hier", "sim", "runtime.gc", "runtime.other", "other",
}

// gcRoots mark a stack as garbage-collector work wherever its leaf is.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// attribute maps one sample's stack to a module. The leaf decides, with
// three refinements. Any stack under a GC root is runtime.gc. A leaf that
// merely does its caller's work — a standard-library helper (syscalls,
// gob, crc32) or a runtime language primitive (memmove, memclr, map and
// hash operations) — is charged to the nearest calling frame that belongs
// to a module, so a WAL fsync counts as durable and a socket write as
// transport; the walk stops at a runtime frame such as mallocgc, which is
// runtime.other. And a non-GEMM tensor helper called from a federation
// layer is charged to that layer.
func attribute(stack []frame) string {
	for _, f := range stack {
		for _, root := range gcRoots {
			if f.name == root {
				return "runtime.gc"
			}
		}
	}
	for i, f := range stack {
		m := moduleOf(f)
		switch m {
		case "":
			continue // helper or primitive: charge the caller
		case "tensor.other":
			// A non-GEMM tensor helper does its caller's work when a
			// federation layer (FedAvg's scaled adds, say) called it.
			for _, g := range stack[i+1:] {
				switch gm := moduleOf(g); {
				case federationLayers[gm]:
					return gm
				case gm != "" && gm != "tensor.other":
					return m
				}
			}
		}
		return m
	}
	return "other"
}

// federationLayers are the modules that charge tensor helpers to
// themselves.
var federationLayers = map[string]bool{
	"fl.codec": true, "fl.aggregate": true, "fl.reconcile": true, "fl.other": true,
	"transport": true, "durable": true, "hier": true, "sim": true,
}

// runtimePrimitives prefix the runtime functions that implement language
// operations or system calls on the caller's behalf.
var runtimePrimitives = []string{
	"runtime.mem", "runtime.map", "runtime.aeshash", "runtime.strhash",
	"runtime.nilinterhash", "runtime.interhash", "runtime.typehash",
	"runtime.f64hash", "runtime.f32hash", "runtime.strequal", "runtime.efaceeq",
	"runtime.ifaceeq", "runtime.cmpstring", "internal/runtime/maps.", "internal/bytealg.",
	"internal/runtime/syscall.",
}

// moduleOf maps one frame to its module, or "" for a standard-library
// helper or runtime primitive that should be charged to its caller.
func moduleOf(f frame) string {
	name := f.name
	pkg := funcPackage(name)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg":
		for _, p := range runtimePrimitives {
			if strings.HasPrefix(name, p) {
				return ""
			}
		}
		return "runtime.other"
	case strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto") ||
		strings.HasPrefix(pkg, "golang.org/x/crypto"):
		return "crypto"
	case pkg == "clinfl/internal/tensor":
		return tensorKind(name)
	case pkg == "clinfl/internal/autograd":
		return "autograd"
	case pkg == "clinfl/internal/nn", pkg == "clinfl/internal/model", pkg == "clinfl/internal/train":
		return "nn"
	case pkg == "clinfl/internal/opt":
		return "opt"
	case pkg == "clinfl/internal/sched":
		return "sched"
	case pkg == "clinfl/internal/fl/durable":
		return "durable"
	case pkg == "clinfl/internal/fl/hier":
		return "hier"
	case pkg == "clinfl/internal/fl/reconcile":
		return "fl.reconcile"
	case pkg == "clinfl/internal/transport":
		return "transport"
	case pkg == "clinfl/internal/sim" || strings.HasPrefix(pkg, "clinfl/internal/sim/"):
		return "sim"
	case pkg == "clinfl/internal/fl":
		switch {
		case strings.HasSuffix(f.file, "/codec.go"):
			return "fl.codec"
		case strings.HasSuffix(f.file, "/aggregate.go"), strings.HasSuffix(f.file, "/tier.go"):
			return "fl.aggregate"
		}
		return "fl.other"
	case strings.HasPrefix(pkg, "clinfl/"), pkg == "main":
		return "other"
	}
	return ""
}

// tensorKind splits the tensor package by GEMM kernel kind: the
// transposed-B kernels (and their dot product), the transposed-A kernels,
// the plain streaming and FMA kernels, and everything else.
func tensorKind(name string) string {
	fn := name[strings.LastIndex(name, ".")+1:]
	switch {
	case strings.Contains(fn, "TransB") || fn == "dot":
		return "tensor.gemm_transb"
	case strings.Contains(fn, "TransA"):
		return "tensor.gemm_transa"
	case strings.HasPrefix(strings.ToLower(fn), "matmul") || strings.HasPrefix(fn, "fmaRow") ||
		strings.HasPrefix(fn, "blockMatMul"):
		return "tensor.gemm_nn"
	}
	return "tensor.other"
}

// funcPackage extracts the import path from a Go symbol name such as
// "clinfl/internal/fl.(*Server).Run" or "crypto/aes.gcmAesEnc".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// cpuShares attributes samples to modules by CPU time. Every module in
// cpuModules appears in the result, so absent modules read 0.
func cpuShares(samples []cpuSample) map[string]float64 {
	byMod := make(map[string]int64, len(cpuModules))
	var total int64
	for _, s := range samples {
		byMod[attribute(s.stack)] += s.weight
		total += s.weight
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = float64(byMod[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// topLeaves lists the heaviest leaf functions, for the report.
func topLeaves(samples []cpuSample, n int) []string {
	w := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) > 0 {
			w[s.stack[0].name] += s.weight
		}
		total += s.weight
	}
	names := make([]string, 0, len(w))
	for k := range w {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return w[names[i]] > w[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, k := range names {
		out[i] = fmt.Sprintf("%.3f %s", float64(w[k])/float64(max(total, 1)), k)
	}
	return out
}
