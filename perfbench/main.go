// Command perfbench is the serving benchmark: from a checkout's sources to a
// report in one command. It builds ibgen/ibtrain/ibserve/ibrouter (run.sh),
// prepares each corpus once per (size, seed), boots the workload's
// topology, replays a seeded request stream over HTTP and checks the
// answers against an exact in-process index. With -trace 1 it instead
// replays the same stream in-process through the layers' public functions
// under spans, for the per-layer numbers.
//
//	bash perfbench/run.sh --workload exact-100k --seed 1 --seconds 12 --trace 0
//
// The last stdout line is the JSON result; the lines before it (prefixed
// "# ") are the run's fingerprint and its per-layer detail. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// workload is one traffic set-up; see README.md for why each exists.
type workload struct {
	name      string
	companies int
	servers   int  // ibserve processes; more than one are shards behind ibrouter
	routed    bool // an ibrouter fronts the servers
	workers   int  // ibserve -workers; 0 = default (GOMAXPROCS)
	ann       bool // -ann -ann-nprobe annNProbe -ann-index <prepared>
	shadow    int  // -shadow-sample
	boots     int  // set-ups per run; setup_s is their median
	conns     int  // closed-loop client connections
	reloads   int  // reloads after the window; reload_s is their median
}

const annNProbe = 8

var workloads = []*workload{
	{name: "exact-100k", companies: 100_000, servers: 1, boots: 2, conns: 1, reloads: 4},
	{name: "ann-860k", companies: 860_000, servers: 1, ann: true, shadow: 100, boots: 1, conns: 2, reloads: 1},
	{name: "sharded-100k", companies: 100_000, servers: 2, routed: true, workers: 1, boots: 2, conns: 2, reloads: 4},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serverArgs returns the flags specific to server i of the workload.
func (w *workload) serverArgs(i int, p *prepared) []string {
	var args []string
	if w.servers > 1 {
		args = append(args, "-shard", fmt.Sprintf("%d/%d", i, w.servers))
	}
	if w.workers > 0 {
		args = append(args, "-workers", fmt.Sprint(w.workers))
	}
	if w.ann {
		args = append(args, "-ann", "-ann-nprobe", fmt.Sprint(annNProbe), "-ann-index", p.annPath())
	}
	if w.shadow > 0 {
		args = append(args, "-shadow-sample", fmt.Sprint(w.shadow))
	}
	return args
}

// runEnv holds the paths of one run.
type runEnv struct {
	binDir, dataDir, logDir string
	prep                    *prepared
}

func (e *runEnv) bin(name string) string { return filepath.Join(e.binDir, name) }

func (e *runEnv) commonServerArgs() []string {
	return []string{"-corpus", e.prep.corpusPath(), "-model", e.prep.modelPath(),
		"-seed", fmt.Sprint(serveSeed), "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-quiet"}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// logf writes a progress line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// note prints a "# key {json}" detail line to stdout.
func note(key string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("# %s %s\n", key, raw)
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the benchmark builds and runs in")
		name     = flag.String("workload", "", "workload: "+workloadNames())
		seed     = flag.Int64("seed", 1, "workload seed: the request stream")
		seconds  = flag.Int("seconds", 12, "measured window per run, in seconds")
		traceOn  = flag.Int("trace", 0, "0 = end-to-end run over HTTP; 1 = in-process traced run (per-layer metrics)")
		fatalErr error
	)
	flag.Parse()
	w := findWorkload(*name)
	switch {
	case w == nil:
		fatalErr = fmt.Errorf("unknown -workload %q (want one of %s)", *name, workloadNames())
	case *seconds < 1:
		fatalErr = fmt.Errorf("-seconds must be at least 1")
	case *traceOn != 0 && *traceOn != 1:
		fatalErr = fmt.Errorf("-trace must be 0 or 1")
	}
	if fatalErr != nil {
		logf("%v", fatalErr)
		os.Exit(2)
	}
	build := filepath.Join(*root, ".bench_build")
	env := &runEnv{binDir: filepath.Join(build, "bin"), dataDir: filepath.Join(build, "data"),
		logDir: filepath.Join(build, "logs", fmt.Sprintf("%s-s%d-t%d", w.name, *seed, *traceOn))}
	for _, d := range []string{env.dataDir, env.logDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
	}
	// Prepare every corpus any workload needs, this workload's first, so only
	// the first run in a checkout pays for preparation.
	sizes := []int{w.companies}
	for _, o := range workloads {
		if !slices.Contains(sizes, o.companies) {
			sizes = append(sizes, o.companies)
		}
	}
	for i, n := range sizes {
		p, err := prepare(env.dataDir, env.binDir, n)
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		if i == 0 {
			env.prep = p
		}
	}

	cfg := runConfig{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	note("fingerprint", fingerprint(*root, w, env, cfg, *traceOn))
	var res *result
	var err error
	if *traceOn == 1 {
		res, err = runTraced(env, cfg)
	} else {
		res, err = runEndToEnd(env, cfg)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// warmup is the unmeasured replay before each window: it fills the response
// cache and lets the servers' heaps settle.
const warmup = time.Second

// runConfig is what both run kinds share.
type runConfig struct {
	w      *workload
	seed   int64
	window time.Duration
}

// streamLen sizes the pre-generated stream to outlast warm-up plus window
// at a generous throughput (the loop wraps around, and says so, if not).
func (c runConfig) streamLen() int {
	return int(20000 * (c.window + warmup).Seconds())
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
