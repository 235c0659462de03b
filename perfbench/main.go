// Command perfbench is the host-time benchmark of the roadrunner
// simulator. It runs one named workload closed loop for a fixed number
// of seconds in one process, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload saturation --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// Simulated time (what the modelled Roadrunner would take) and host time
// (what the simulator takes) are named apart throughout: simulated
// outputs repeat exactly for a seed and are folded into sim_digest; only
// host times are noisy. README.md in this directory lists the workloads,
// the metric → layer → end-to-end map and how a performance change names
// its claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric: its name and unit. The tables
// below are the BENCHMARK.json lists, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// heavyExperiments are the suite's five costliest experiments after
// facility-stream, which has its own metric.
var heavyExperiments = []string{"topo-compare", "surrogate-xval", "coll-scaling", "place-optimize", "coll-cu-exchange"}

var perLayer = func() []metricDef {
	ms := []metricDef{
		{"collectives.run_ms_max", "ms"},
		{"collectives.run_ms_sum", "ms"},
		{"cluster.pool_efficiency", "ratio"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.calendar_peak", "count"},
		{"transport.messages", "count"},
		{"transport.wire_mb", "MB"},
		{"transport.queued_flows", "count"},
		{"transport.wait_s", "sim_s"},
		{"transport.uplink_queued", "count"},
		{"transport.admission_share", "ratio"},
		{"placement.search_ms", "ms"},
		{"placement.des_evals", "count"},
		{"placement.surrogate_evals", "count"},
		{"placement.dedup_hits", "count"},
		{"placement.des_eval_ms", "ms"},
		{"placement.verify_ms", "ms"},
		{"placement.best_makespan_us", "sim_us"},
		{"trace.evaluate_ms", "ms"},
		{"surrogate.price_us", "us"},
		{"surrogate.share", "ratio"},
		{"surrogate.new_ms", "ms"},
		{"serve.submit_p50_ms", "ms"},
		{"serve.fetch_p50_ms", "ms"},
		{"serve.polls_per_job", "count"},
		{"serve.coalesced_frac", "ratio"},
		{"serve.warm_pools", "count"},
	}
	for _, k := range serveKinds {
		ms = append(ms, metricDef{"serve.queue_p50_ms." + k, "ms"}, metricDef{"serve.run_p50_ms." + k, "ms"})
	}
	for _, id := range heavyExperiments {
		ms = append(ms, metricDef{"orchestrator.experiment_ms." + id, "ms"})
	}
	ms = append(ms,
		metricDef{"orchestrator.experiment_ms_sum", "ms"},
		metricDef{"orchestrator.pool_efficiency", "ratio"},
		metricDef{"facility.stream_ms", "ms"},
	)
	for _, m := range endToEnd {
		ms = append(ms, metricDef{"trace_overhead." + m.name, m.unit})
	}
	return ms
}()

// env is what every workload is built from.
type env struct {
	seed    int64
	workers int // GOMAXPROCS: the bound on workers, clients and connections
}

// instance is one workload's prepared state: pass runs one fixed batch
// of operations, recording each through rec; close releases it.
type instance interface {
	pass(rec *recorder) error
	close()
}

// workload is one named workload; README.md and BENCHMARK.json give the
// reason for each.
type workload struct {
	name  string
	setup func(e env, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"saturation", setupSaturation},
	{"placement-search", setupPlacement},
	{"serve-mixed", setupServe},
	{"suite", setupSuite},
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 15, "host seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 records spans and a CPU profile and reports the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's spans and CPU profile")
	flag.Parse()

	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	var todo []workload
	var names []string
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
		names = append(names, w.name)
	}
	if len(todo) == 0 {
		fatalf("unknown workload %q (want all or one of %v)", *name, names)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	e := env{seed: *seed, workers: runtime.GOMAXPROCS(0)}
	cfg := runConfig{seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1, out: *out}

	var results []*runResult
	for _, w := range todo {
		res, err := runWorkload(w, e, cfg)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	final := results[0].summary()
	if len(results) > 1 {
		final = merge(results)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type runConfig struct {
	seconds time.Duration
	traced  bool
	out     string
}

// minSetups and setupBudget size the repeated set-up: at least
// minSetups, and more until setupBudget of host time has gone, so that
// a cheap set-up is timed over enough repetitions for a steady median.
const (
	minSetups   = 3
	maxSetups   = 2000
	setupBudget = time.Second
)

// runWorkload sets the workload up several times, then runs passes
// until the measuring time is over. In a traced run passes alternate
// untraced and traced (as do the set-ups), so the same process gives
// the per-layer numbers and the tracing overhead.
func runWorkload(w workload, e env, cfg runConfig) (*runResult, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	res := &runResult{workload: w.name, seed: e.seed, traced: cfg.traced, rec: newRecorder()}

	var inst instance
	setupStart := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(setupStart) < setupBudget); i++ {
		var str *tracer
		if i%2 == 1 {
			str = tr
		}
		t0 := time.Now()
		in, err := w.setup(e, str)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		if str != nil {
			res.setupTraced = append(res.setupTraced, d)
		} else {
			res.setup = append(res.setup, d)
		}
		if inst != nil {
			inst.close()
		}
		inst = in
	}
	defer inst.close()

	var prof *os.File
	if cfg.traced {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, fmt.Errorf("output directory: %w", err)
		}
		f, err := os.Create(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, e.seed)))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}

	var measured time.Duration
	for p := 0; measured < cfg.seconds || (cfg.traced && p < 2); p++ {
		var ptr *tracer
		if cfg.traced && p%2 == 1 {
			ptr = tr
		}
		// Start every pass from a collected heap, as go test does before
		// each benchmark, so garbage from the last pass neither adds to
		// this one's time nor shifts where its collections fall.
		runtime.GC()
		res.rec.beginPass(p, ptr)
		t0 := time.Now()
		if err := inst.pass(res.rec); err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		wall := time.Since(t0)
		res.rec.endPass(wall)
		measured += wall
	}
	res.measured = measured

	if cfg.traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.json", w.name, e.seed)), w.name, e.seed); err != nil {
			return nil, err
		}
		res.spanBytes = tr.bytes()
	}
	res.rssMB = maxRSSMB()
	return res, nil
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// runResult is one workload run's measurements.
type runResult struct {
	workload    string
	seed        int64
	traced      bool
	rec         *recorder
	setup       []float64 // untraced set-up times, s
	setupTraced []float64
	measured    time.Duration
	rssMB       float64
	spanBytes   int
}

func (r *runResult) correct() bool { return r.rec.attempted > 0 && r.rec.failed == 0 }

// endToEnd computes the end-to-end metrics over the passes whose traced
// flag matches.
func (r *runResult) endToEnd(traced bool) map[string]float64 {
	var walls, lat []float64
	var ops int
	var total float64
	for _, p := range r.rec.passes {
		if p.traced != traced {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		total += p.wall.Seconds()
		ops += len(p.lat)
		lat = append(lat, p.lat...)
	}
	setup := r.setup
	if traced {
		setup = r.setupTraced
	}
	m := map[string]float64{
		"setup_s":    median(setup),
		"wall_s":     median(walls),
		"job_p50_ms": quantile(lat, 0.50),
		"job_p95_ms": quantile(lat, 0.95),
		"max_rss_mb": r.rssMB,
	}
	if total > 0 {
		m["jobs_per_s"] = float64(ops) / total
	}
	return m
}

// metrics returns the reported metric set: end-to-end untraced, or
// per-layer plus tracing overhead in a traced run.
func (r *runResult) metrics() ([]metricDef, map[string]float64) {
	if !r.traced {
		return endToEnd, r.endToEnd(false)
	}
	m := make(map[string]float64)
	for name, vs := range r.rec.samples {
		m[name] = median(vs)
	}
	off, on := r.endToEnd(false), r.endToEnd(true)
	for _, d := range endToEnd {
		m["trace_overhead."+d.name] = on[d.name] - off[d.name]
	}
	// Peak RSS is one number per process; its overhead is the span
	// buffer the traced passes kept in memory.
	m["trace_overhead.max_rss_mb"] = float64(r.spanBytes) / 1e6
	return perLayer, m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) summary() summary {
	defs, vals := r.metrics()
	s := summary{Correct: r.correct(), Attempted: r.rec.attempted, Failed: r.rec.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{finite(vals[d.name]), d.unit}
	}
	return s
}

// merge folds an all-workload run into one summary whose metric names
// carry the workload as a prefix.
func merge(rs []*runResult) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range rs {
		one := r.summary()
		s.Correct = s.Correct && one.Correct
		s.Attempted += one.Attempted
		s.Failed += one.Failed
		for name, v := range one.Metrics {
			s.Metrics[r.workload+"."+name] = v
		}
	}
	return s
}

func (r *runResult) print(w io.Writer) {
	defs, vals := r.metrics()
	rec := r.rec
	mode := "end-to-end (untraced)"
	if r.traced {
		mode = "per-layer (traced passes) and tracing overhead"
	}
	fmt.Fprintf(w, "perfbench %s: seed %d, %s, GOMAXPROCS %d\n", r.workload, r.seed, mode, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  measured %.2fs host time: %d passes, %d operations attempted, %d failed (fail_frac %.4f)\n",
		r.measured.Seconds(), len(rec.passes), rec.attempted, rec.failed, rec.failFrac())
	fmt.Fprintf(w, "  set-up timed %d times untraced, %d traced\n", len(r.setup), len(r.setupTraced))
	var walls []float64
	for _, p := range rec.passes {
		walls = append(walls, p.wall.Seconds())
	}
	fmt.Fprintf(w, "  pass wall s: %.4g\n", walls)
	for _, n := range rec.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, reason := range rec.reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", reason)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(w, "sim_digest %s seed %d: %s\n", r.workload, r.seed, rec.simDigest())
}

// finite keeps a NaN or infinity (a ratio over an empty pass) out of
// the JSON result, which cannot encode them.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the nearest-rank quantile: the smallest value with at
// least a q share of the values at or below it. A pass repeats the
// same operations, so a run of k passes holds k copies of one
// distribution, and nearest rank reads the same quantile whatever k is.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
