// Command perfbench is prefdb's end-to-end benchmark. It runs one workload
// against the public surface at default settings (prefdb.Open, NewSession,
// Dial, prepared statements), checks the outputs, and prints one JSON
// result object as the last line of standard output.
//
//	perfbench --workload paper|scan|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run (see trace.go).
// BENCHMARK.json at the repository root names the workloads and metrics;
// run.sh builds this package from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	out      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: paper, scan or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for data and statement parameters")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded in the run record")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper|scan|serve, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	b := newBench(cfg, w)
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// The run record comes first; the result is the last line.
	for _, v := range []any{map[string]any{"record": b.rec}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runRecord describes the run beside its metrics: what ran, on what, and
// the distributions behind each reported median.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Scale      float64            `json:"datagen_scale"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	RowCounts  map[string]int     `json:"row_counts"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	CPU        string             `json:"cpu"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Started    string             `json:"started"`
	WallS      float64            `json:"wall_s"`
	Dists      map[string]summary `json:"distributions"`
	Paths      map[string]path    `json:"paths"`
	TailPct    map[string]float64 `json:"tail_percentile"`
	ErrorRatio float64            `json:"error_ratio"`
	// WriteShare is the share of completed statements that were writes.
	WriteShare float64  `json:"write_share"`
	Failures   []string `json:"failures,omitempty"`
	// FailureCounts counts every failure by the kind of its message.
	FailureCounts map[string]int `json:"failure_counts,omitempty"`
	SpanFile      string         `json:"span_file,omitempty"`
	// ScoreCacheSplit is the traced run's count of the engine's
	// unrepeatable score-cache split (see trace.go).
	ScoreCacheSplit *splitRecord `json:"score_cache_split,omitempty"`
}

func newRecord(cfg config) *runRecord {
	return &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Scale: datagenScale, Trace: cfg.trace, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: cfg.commit, Started: time.Now().UTC().Format(time.RFC3339),
		Dists: map[string]summary{}, Paths: map[string]path{}, TailPct: map[string]float64{},
		FailureCounts: map[string]int{},
	}
}

// cpuModel reads the processor name the kernel reports; it is recorded,
// never measured, so a missing /proc only blanks the field.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
