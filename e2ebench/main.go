// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator and serving stack through their
// public functions, checks the program's outputs against computations of its
// own, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"macc_s": {"value": 1.23, "unit": "Macc/s"}, ...}}
//
// Usage (from the repository root):
//
//	e2ebench --workload sim-qos --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds of a fixed amount of work (accesses or requests)
// until --seconds have been measured; each metric is the median over rounds.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// alternates untraced and traced rounds and prints the per-layer metrics plus
// the tracing overhead, and writes the recorded spans under .bench_out/.
// See README.md for the workloads, the metrics and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// outDir receives each run's result line and, for traced runs, its spans.
const outDir = ".bench_out"

// processStart approximates the process's start: package variables are
// initialized before main runs. setup_s is timed from here.
var processStart = time.Now()

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd lists the metrics printed with --trace 0, in print order. Every
// workload reports every one of them (README.md gives each workload's
// definition).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"macc_s", "Macc/s"},
	{"miss_ratio", "ratio"},
	{"aef", "ratio"},
	{"occ_err", "ratio"},
	{"ipc_sum", "IPC"},
	{"get_p50_us", "us"},
	{"set_p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_us_per_req", "us"},
}

// perLayer lists the metrics printed with --trace 1. A layer a workload
// does not run reads 0 there.
var perLayer = []metricDef{
	{"scenario.gen_ns_per_op", "ns"},
	{"sim.trace_build_s", "s"},
	{"sim.run_s.fs", "s"},
	{"sim.run_s.fullassoc", "s"},
	{"sim.self_s.fs", "s"},
	{"sim.self_s.fullassoc", "s"},
	{"core.hit_ns", "ns"},
	{"core.miss_ns", "ns"},
	{"core.hit_ns.fs", "ns"},
	{"core.miss_ns.fs", "ns"},
	{"core.hit_ns.fullassoc", "ns"},
	{"core.miss_ns.fullassoc", "ns"},
	{"core.misses", "count"},
	{"core.evictions", "count"},
	{"core.forced_evictions", "count"},
	{"shardcache.hit_ns", "ns"},
	{"shardcache.miss_ns", "ns"},
	{"shardcache.rebalances", "count"},
	{"shardcache.installs", "count"},
	{"shardcache.aef", "ratio"},
	{"shardcache.occ_err", "ratio"},
	{"alloc.observe_ns", "ns"},
	{"alloc.epochs", "count"},
	{"alloc.reallocations", "count"},
	{"alloc.est_miss_ratio", "ratio"},
	{"server.handle_us_p50", "us"},
	{"server.wire_us_p50", "us"},
	{"client.codec_ns", "ns"},
	{"server.store_entries", "count"},
	{"server.store_bytes", "bytes"},
	{"server.shed", "count"},
	{"server.stale", "count"},
	{"server.deadlined", "count"},
	{"proc.cpu_user_s", "s"},
	{"proc.cpu_sys_s", "s"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"gen.late_us_p99", "us"},
	{"traced.macc_s", "Macc/s"},
	{"untraced.macc_s", "Macc/s"},
	{"traced.get_p50_us", "us"},
	{"untraced.get_p50_us", "us"},
	{"traced.p99_us", "us"},
	{"untraced.p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// exactRepeat lists the end-to-end metrics that are pure functions of the
// generated inputs on single-threaded workloads: every round must report
// them bit-identically.
var exactRepeat = []string{"miss_ratio", "aef", "occ_err", "ipc_sum"}

// env is what a workload's set-up receives.
type env struct {
	seed uint64
	// root is the repository checkout; scenario specs resolve against it.
	root string
	// small shrinks every input for the package's own tests.
	small bool
}

// roundResult is one round's outcome.
type roundResult struct {
	// ops is the number of operations (accesses or requests) the round
	// attempted; failed counts those that failed.
	ops    int64
	failed int64
	// timedAt is when the round's timed phase began; for the first round
	// it ends the set-up.
	timedAt time.Time
	// e2e holds every end-to-end metric except setup_s and peak_rss_mb.
	e2e map[string]float64
	// layer holds per-layer metrics (filled in traced rounds).
	layer map[string]float64
	// wall and cpu, when set, split the timed phase into pieces of work
	// that are the same in every round: wall[j] and cpu[j] are the wall
	// and CPU seconds piece j took, over timedOps accesses in all. The run
	// then reports macc_s and cpu_us_per_req from each piece's median over
	// rounds (see pieceMedians) instead of the median round.
	wall, cpu []float64
	timedOps  int64
}

// runner is one workload after set-up. round performs one fixed amount of
// work from the same starting inputs and checks its outputs; tr is nil in
// untraced rounds. close releases servers and goroutines.
type runner interface {
	round(tr *tracer) (*roundResult, error)
	close() error
}

// benchWorkload is one named input set.
type benchWorkload struct {
	name string
	// deterministic workloads must repeat exactRepeat bit-identically.
	deterministic bool
	setup         func(e env, tr *tracer) (runner, error)
}

var workloads = []benchWorkload{
	{name: "sim-qos", deterministic: true, setup: setupSimQoS},
	{name: "core-thousand", deterministic: true, setup: setupCoreThousand},
	{name: "engine-drift", setup: setupEngineDrift},
	{name: "serve-mixed", setup: setupServeMixed},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result. It returns the
// process exit code: 0 for a run whose checks passed, 1 for a failed check,
// 2 for bad arguments or a run that could not start.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name: sim-qos, core-thousand, engine-drift or serve-mixed")
	seed := fl.Uint64("seed", 1, "workload seed; equal seeds generate equal inputs")
	seconds := fl.Float64("seconds", 20, "measure rounds until this many seconds have passed (at least one round)")
	traced := fl.Int("trace", 0, "1 prints the per-layer metrics from alternating untraced and traced rounds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, spans, err := measure(w, env{seed: *seed, root: "."}, *seconds, *traced == 1, stdout)
	if err != nil && res == nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: check failed: %v\n", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", jerr)
		return 2
	}
	if werr := writeOutputs(outDir, w.name, *seed, *traced == 1, line, spans); werr != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", werr)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// measure sets the workload up, runs rounds for the given time and
// aggregates them. A non-nil result with a non-nil error is a failed check;
// a nil result means the run could not start.
func measure(w benchWorkload, e env, seconds float64, traced bool, log io.Writer) (*result, *tracer, error) {
	var setupTr *tracer
	if traced {
		setupTr = newTracer()
	}
	rn, err := w.setup(e, setupTr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	var rounds []*roundResult
	var tracedRounds, plainRounds []*roundResult
	var runErr error
	var measured time.Time
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = newTracer()
		}
		rr, err := rn.round(tr)
		if err != nil {
			runErr = fmt.Errorf("round %d: %w", i, err)
			break
		}
		if i == 0 {
			measured = rr.timedAt
		}
		rounds = append(rounds, rr)
		if tr != nil {
			tracedRounds = append(tracedRounds, rr)
			setupTr.merge(tr)
		} else {
			plainRounds = append(plainRounds, rr)
		}
		fmt.Fprintf(log, "%s round %d: %s\n", w.name, i, summarize(rr.e2e))
		enough := time.Since(measured).Seconds() >= seconds
		if enough && (!traced || len(tracedRounds) > 0) {
			break
		}
	}
	if cerr := rn.close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	res := &result{Correct: runErr == nil, Metrics: map[string]metricValue{}}
	for _, rr := range rounds {
		res.Attempted += rr.ops
		res.Failed += rr.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	if runErr == nil && res.Failed > 0 {
		runErr = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		res.Correct = false
	}
	if runErr == nil && w.deterministic {
		runErr = checkExactRepeat(rounds)
		res.Correct = runErr == nil
	}
	if len(plainRounds) == 0 {
		return res, setupTr, runErr
	}
	if !traced {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "setup_s":
				v = rounds[0].timedAt.Sub(processStart).Seconds()
			case "peak_rss_mb":
				v = peakRSSMB()
			case "macc_s", "cpu_us_per_req":
				v = medianOf(plainRounds, func(r *roundResult) float64 { return r.e2e[m.name] })
				if secs := pieceMedians(plainRounds, m.name == "cpu_us_per_req"); secs > 0 {
					ops := float64(plainRounds[0].timedOps)
					if m.name == "macc_s" {
						v = ops / secs / 1e6
					} else {
						v = secs * 1e6 / ops
					}
				}
			default:
				v = medianOf(plainRounds, func(r *roundResult) float64 { return r.e2e[m.name] })
			}
			// Every end-to-end metric is positive; zero or a non-number
			// means the workload measured nothing.
			if (!(v > 0) || math.IsInf(v, 0)) && runErr == nil {
				runErr = fmt.Errorf("end-to-end metric %s reads %v", m.name, v)
				res.Correct = false
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		return res, setupTr, runErr
	}
	layer := map[string]float64{}
	for _, rr := range tracedRounds {
		for k := range rr.layer {
			layer[k] = medianOf(tracedRounds, func(r *roundResult) float64 { return r.layer[k] })
		}
	}
	for _, k := range []string{"macc_s", "get_p50_us", "p99_us"} {
		layer["traced."+k] = medianOf(tracedRounds, func(r *roundResult) float64 { return r.e2e[k] })
		layer["untraced."+k] = medianOf(plainRounds, func(r *roundResult) float64 { return r.e2e[k] })
	}
	if u := layer["untraced.macc_s"]; u > 0 {
		layer["trace.overhead_pct"] = 100 * (u - layer["traced.macc_s"]) / u
	}
	layer["trace.spans"] = float64(len(setupTr.spans))
	for k, v := range setupTr.layer {
		layer[k] = v
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: layer[m.name], Unit: m.unit}
	}
	return res, setupTr, runErr
}

// checkExactRepeat fails when a deterministic workload's simulated
// statistics differ between rounds of identical work.
func checkExactRepeat(rounds []*roundResult) error {
	for _, k := range exactRepeat {
		for i, rr := range rounds[1:] {
			if rr.e2e[k] != rounds[0].e2e[k] { //fslint:ignore floateq bit-identical repetition is the property checked
				return fmt.Errorf("round %d reports %s = %v, round 0 reported %v: identical inputs gave different simulated results",
					i+1, k, rr.e2e[k], rounds[0].e2e[k])
			}
		}
	}
	return nil
}

// pieceMedians returns the sum over pieces of each piece's median wall
// (or, with cpu, CPU) seconds over rounds, or 0 when the rounds are not
// split into the same pieces. Every round repeats the same work, so piece j
// is the same work in each round; a stall of the host that hits one piece
// in one round drops out of its median, while a cost the program pays in a
// piece every time stays in it.
func pieceMedians(rounds []*roundResult, cpu bool) float64 {
	get := func(r *roundResult) []float64 {
		if cpu {
			return r.cpu
		}
		return r.wall
	}
	n := len(get(rounds[0]))
	if n == 0 {
		return 0
	}
	for _, r := range rounds {
		if len(get(r)) != n || r.timedOps != rounds[0].timedOps {
			return 0
		}
	}
	sum := 0.0
	xs := make([]float64, len(rounds))
	for j := 0; j < n; j++ {
		for i, r := range rounds {
			xs[i] = get(r)[j]
		}
		sum += median(xs)
	}
	return sum
}

func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

func summarize(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g", k, m[k])
	}
	return b.String()
}

// writeOutputs stores the result line and, for traced runs, the spans.
func writeOutputs(dir, name string, seed uint64, traced bool, line []byte, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	mode := "e2e"
	if traced {
		mode = "layers"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, seed, mode))
	if err := os.WriteFile(base+".json", append(line, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	if !traced || tr == nil {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	werr := tr.writeJSONL(f)
	cerr := f.Close()
	return errors.Join(werr, cerr)
}
