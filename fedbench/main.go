// Command fedbench is the repository's end-to-end and per-layer benchmark.
// It drives four federation workloads through the program's public Go
// API, checks their outputs, and prints one JSON result line:
//
//	bash fedbench/run.sh --workload bert-finetune --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no wrappers installed. With --trace 1 it carries the per-layer metrics,
// taken from wrappers around the calls into each layer, the counters the
// program exports, and a CPU profile attributed to modules. README.md in
// this directory documents every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// maxRunTime stops a run from starting passes beyond its first two once
// this much time has gone, keeping a slowed-down run inside 180 s.
const maxRunTime = 100 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input-generation seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "timed-round seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "fedbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "fedbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// Scratch files (the WAL) stay inside the checkout.
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	res, rep, err := run(w, o, tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	rep.Provenance = provenance()
	line, err := json.Marshal(rep)
	if err == nil {
		fmt.Printf("fedbench report %s\n", line)
		line, err = json.Marshal(res)
	}
	if err != nil { // a NaN or Inf metric: no valid result to print
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the benchmark's contract with its
// callers.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before the result: provenance and the detail behind
// the metrics (sample counts, the tail percentile, digests, check errors).
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Trace          bool              `json:"trace"`
	Passes         int               `json:"passes"`
	TimedRounds    int               `json:"timed_rounds"`
	PassRoundsPerS []float64         `json:"pass_rounds_per_s"`
	PassSetupS     []float64         `json:"pass_setup_s"`
	RoundSamples   int               `json:"round_samples"`
	TailPercentile float64           `json:"tail_percentile"`
	TailSamples    int               `json:"tail_samples_per_pass"`
	FinalDigest    string            `json:"final_digest"`
	InitialLoss    float64           `json:"initial_val_loss,omitempty"`
	Checks         []string          `json:"check_failures,omitempty"`
	TopLeaves      []string          `json:"top_leaf_functions,omitempty"`
	Provenance     map[string]string `json:"provenance"`
}

// provenance stamps what produced the numbers.
func provenance() map[string]string {
	p := map[string]string{
		"commit":     "unknown",
		"go":         runtime.Version(),
		"goamd64":    "v1",
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			case "GOAMD64":
				p["goamd64"] = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes every Go source and module file under root, so runs
// from a checkout without version-control metadata still name the code
// they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
