package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roadrunner/internal/cml"
	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/scenario"
	"roadrunner/internal/serve"
	"roadrunner/internal/sweep3d"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

// serveKinds are the job kinds of the mix, as the server names them.
var serveKinds = []string{"replay", "collective", "optimize"}

const (
	// serveBatch is the number of jobs in one pass (a multiple of 40).
	serveBatch = 80
	// servePoll is the fixed interval between status polls of a job.
	servePoll = 2 * time.Millisecond
	// serveSampleEvery: every this many new replays, one is re-evaluated
	// directly on a trace.Evaluator and must match the served makespan.
	serveSampleEvery = 6
	// serveMaxJobs bounds the server's job registry. A finished job keeps
	// its decoded request (trace included) until evicted, so the default
	// bound of 8192 jobs would grow the process by gigabytes within one
	// run; 64 keeps every job of a pass registered, so repeats within a
	// pass still coalesce. Eviction removes the oldest finished jobs,
	// which are those of earlier passes, so jobs generates no payload
	// that an earlier pass sent: a submission coalesced with an old job
	// could see that job evicted before its result is fetched.
	serveMaxJobs = 64
)

// serveBench drives an in-process serve.Server on a loopback HTTP server
// with one client per worker. Each client submits a job, polls its status
// until it settles and fetches the result, then takes the next job.
type serveBench struct {
	workers int
	seed    int64
	srv     *serve.Server
	hs      *httptest.Server
	client  *http.Client
	traces  []serveTrace
	replay  trace.ReplayConfig // the replay jobs' configuration
	checker *jobChecker
}

// serveTrace is one inline trace the mix replays: the decoded trace and
// its JSON string encoding (the request field).
type serveTrace struct {
	tr    *trace.Trace
	field []byte
}

func setupServe(e env, tr *tracer) (instance, error) {
	op := tr.newOp()
	b := &serveBench{workers: e.workers, seed: e.seed, checker: newJobChecker()}
	grids := []struct {
		cfg    sweep3d.Config
		px, py int
	}{
		{scenario.TraceReplayGrid, scenario.TraceReplayPx, scenario.TraceReplayPy},       // 8x8
		{scenario.FacilityTraceGrid, scenario.FacilityTracePx, scenario.FacilityTracePy}, // 4x4
	}
	for _, g := range grids {
		sp := tr.begin(op, 0, "sweep3d.CaptureDES")
		_, t, err := sweep3d.CaptureDES(g.cfg, g.px, g.py, cml.CurrentSoftware())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(op, 0, "trace.Encode")
		var buf bytes.Buffer
		err = trace.Encode(&buf, t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		field, err := json.Marshal(buf.String())
		if err != nil {
			return nil, err
		}
		b.traces = append(b.traces, serveTrace{tr: t, field: field})
	}
	b.replay = trace.ReplayConfig{Fabric: fabric.New(), Profile: ib.OpenMPI(), Policy: transport.Congested()}
	sp := tr.begin(op, 0, "serve.New")
	b.srv = serve.New(serve.Options{Workers: e.workers, MaxJobs: serveMaxJobs})
	b.hs = httptest.NewServer(b.srv.Handler())
	tr.end(sp)
	b.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}}
	return b, nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.hs.Close()
	b.srv.Close()
}

// serveJob is one generated submission.
type serveJob struct {
	kind   string
	body   []byte
	key    [32]byte // identifies the payload: equal keys must get equal results
	trace  int      // index into traces for replays, else -1
	places []transport.Endpoint
	sample bool // re-evaluate directly and compare makespans
}

// serveMix is one pass's composition, in tenths of serveBatch per kind
// and trace: 60% replays (25% new placements split evenly over the two
// traces, 35% repeats of an earlier replay of the pass, mostly of the
// 8x8 trace), 30% small collectives and 10% small optimize jobs on the
// 4x4 trace. Every pass holds exactly this mix; the seed picks the order
// and the contents. The latency distribution steps from the answered-at-
// once jobs (collectives, repeats of finished jobs) to the computed ones;
// the split keeps that step clear of the median, where a step would make
// the median jump between runs.
var serveMix = []struct {
	kind   string
	trace  int // for replays: index into serveBench.traces
	repeat bool
	tenths float64
}{
	{"replay", 0, false, 1.25}, {"replay", 1, false, 1.25},
	{"replay", 0, true, 2.5}, {"replay", 1, true, 1},
	{"collective", -1, false, 3},
	{"optimize", -1, false, 1},
}

// jobs generates pass p's jobs from the seed. Only the repeats reuse a
// payload; collective sizes and search seeds carry p, so no other
// payload recurs in a later pass.
func (b *serveBench) jobs(p int) []serveJob {
	rng := rand.New(rand.NewSource(derive(b.seed, 1000+p)))
	var slots []int // index into serveMix
	for m, k := range serveMix {
		for i := 0; i < int(k.tenths*serveBatch/10); i++ {
			slots = append(slots, m)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// A repeat needs an earlier new replay of its trace: swap the first
	// new one forward.
	for m, k := range serveMix {
		if !k.repeat {
			continue
		}
		fresh := slices.IndexFunc(slots, func(s int) bool {
			return serveMix[s].kind == k.kind && serveMix[s].trace == k.trace && !serveMix[s].repeat
		})
		if r := slices.Index(slots, m); r < fresh {
			slots[r], slots[fresh] = slots[fresh], slots[r]
		}
	}
	var out []serveJob
	replays := make([][]int, len(b.traces)) // new replays so far, per trace
	fresh := 0
	for _, m := range slots {
		k := serveMix[m]
		j := serveJob{kind: k.kind, trace: k.trace}
		// The key hashes what varies in the payload rather than the
		// megabyte body, to keep the clients' own work small.
		var desc []byte
		switch {
		case k.repeat:
			prev := replays[k.trace]
			j = out[prev[rng.Intn(len(prev))]]
			j.sample = false
		case k.kind == "replay":
			t := &b.traces[k.trace]
			j.places = randomPlaces(rng, t.tr.Meta.Ranks)
			j.body = replayBody(t.field, j.places)
			j.sample = fresh%serveSampleEvery == 0
			fresh++
			replays[k.trace] = append(replays[k.trace], len(out))
			desc = fmt.Appendf(nil, "replay %d %v", k.trace, j.places)
		case k.kind == "collective":
			ops := collectives.Ops()
			j.body = fmt.Appendf(nil, `{"op":%q,"nodes":%d,"size_bytes":%d,"congestion":%q}`,
				ops[rng.Intn(len(ops))], 8<<rng.Intn(4), 1024<<(3*rng.Intn(3))+p, []string{"on", "off"}[rng.Intn(2)])
			desc = j.body
		default:
			seed := 1000*p + rng.Intn(1000)
			j.body = fmt.Appendf(nil, `{"trace":%s,"seed":%d,"greedy_rounds":2,"greedy_batch":6,"anneal_rounds":2,"anneal_batch":6}`,
				b.traces[len(b.traces)-1].field, seed)
			desc = fmt.Appendf(nil, "optimize %d", seed)
		}
		if !k.repeat {
			j.key = sha256.Sum256(desc)
		}
		out = append(out, j)
	}
	return out
}

// randomPlaces puts each rank on a distinct (node, core) of the machine.
func randomPlaces(rng *rand.Rand, ranks int) []transport.Endpoint {
	total := params.NumCUs * params.NodesPerCU * 4
	seen := map[int]bool{}
	out := make([]transport.Endpoint, 0, ranks)
	for len(out) < ranks {
		slot := rng.Intn(total)
		if seen[slot] {
			continue
		}
		seen[slot] = true
		node := slot / 4
		out = append(out, transport.Endpoint{
			Node: fabric.NodeID{CU: node / params.NodesPerCU, Node: node % params.NodesPerCU},
			Core: slot % 4,
		})
	}
	return out
}

func replayBody(field []byte, places []transport.Endpoint) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"trace":`)
	buf.Write(field)
	buf.WriteString(`,"placement":{"kind":"explicit","places":[`)
	for i, e := range places {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"cu":%d,"node":%d,"core":%d}`, e.Node.CU, e.Node.Node, e.Core)
	}
	buf.WriteString(`]}}`)
	return buf.Bytes()
}

// jobObs is what a client saw of one job.
type jobObs struct {
	kind     string
	key      [32]byte
	status   int // HTTP status of the submission
	state    string
	errMsg   string
	result   []byte
	direct   units.Time // direct evaluator makespan when sampled, else -1
	latency  time.Duration
	submit   time.Duration
	fetch    time.Duration
	polls    int
	created  bool
	queue    time.Duration // started - submitted (created jobs)
	run      time.Duration // finished - started
	transErr error
}

func (b *serveBench) pass(rec *recorder) error {
	rec.note("closed loop: %d clients, %d server workers, status polled every %v", b.workers, b.workers, servePoll)
	count := map[string]int{}
	for _, k := range serveMix {
		kind := k.kind
		if k.repeat {
			kind = "repeat"
		}
		count[kind] += int(k.tenths * serveBatch / 10)
	}
	rec.note("%d jobs per pass: %d new replays, %d repeats, %d collectives, %d optimize",
		serveBatch, count["replay"], count["repeat"], count["collective"], count["optimize"])
	rec.note("job_p95_ms rests on every job of the run; a run of at least 200 jobs leaves at least 10 beyond it")
	tr := rec.tr
	root := tr.begin(tr.newOp(), 0, "serve-mixed.pass")
	jobs := b.jobs(rec.pass)
	obs := make([]jobObs, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < b.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				obs[i] = b.do(tr, root, jobs[i])
				rec.op(obs[i].latency, b.checker.check(obs[i]))
			}
		}()
	}
	wg.Wait()
	tr.end(root)

	for _, o := range obs {
		rec.sim("%s %x %x", o.kind, o.key[:8], sha256.Sum256(o.result))
	}
	if rec.traced() {
		b.layers(rec, obs)
	}
	return nil
}

// do runs one job through the HTTP API: submit, poll, fetch. A sampled
// replay is then re-evaluated directly, outside the job's latency.
func (b *serveBench) do(tr *tracer, parent int64, j serveJob) jobObs {
	o := jobObs{kind: j.kind, key: j.key, direct: -1}
	op := tr.newOp()
	root := tr.begin(op, parent, "serve.job."+j.kind)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin(op, root, "POST /v1/"+j.kind)
	var sub struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	o.status, o.transErr = b.call("POST", "/v1/"+j.kind, j.body, &sub)
	tr.end(sp)
	o.submit = time.Since(t0)
	if o.transErr != nil {
		o.latency = time.Since(t0)
		return o
	}
	o.created = o.status == http.StatusAccepted
	var st struct {
		State     string `json:"state"`
		Error     string `json:"error"`
		Submitted string `json:"submitted_at"`
		Started   string `json:"started_at"`
		Finished  string `json:"finished_at"`
	}
	// A repeat of a finished job is answered done at submission; every
	// other job is polled until it settles.
	st.State = sub.State
	for st.State != "done" && st.State != "failed" {
		if o.polls > 0 {
			time.Sleep(servePoll)
		}
		sp = tr.begin(op, root, "GET /v1/jobs/{id}")
		_, err := b.call("GET", "/v1/jobs/"+sub.JobID, nil, &st)
		tr.end(sp)
		o.polls++
		if err != nil {
			o.transErr = err
			o.latency = time.Since(t0)
			return o
		}
	}
	o.state, o.errMsg = st.State, st.Error
	if o.state == "done" {
		t1 := time.Now()
		sp = tr.begin(op, root, "GET /v1/jobs/{id}/result")
		o.result, o.transErr = b.get("/v1/jobs/" + sub.JobID + "/result")
		tr.end(sp)
		o.fetch = time.Since(t1)
	}
	o.latency = time.Since(t0)
	if o.created {
		submitted, _ := time.Parse(time.RFC3339Nano, st.Submitted)
		started, _ := time.Parse(time.RFC3339Nano, st.Started)
		finished, _ := time.Parse(time.RFC3339Nano, st.Finished)
		o.queue, o.run = started.Sub(submitted), finished.Sub(started)
	}
	if j.sample && o.state == "done" && o.transErr == nil {
		sp = tr.begin(op, root, "trace.Evaluator.Evaluate")
		o.direct, o.transErr = b.evaluate(j)
		tr.end(sp)
	}
	return o
}

// evaluate replays a sampled job's placement on a fresh evaluator, so
// the check shares no state with the server's warm pools.
func (b *serveBench) evaluate(j serveJob) (units.Time, error) {
	ev, err := trace.NewEvaluator(b.traces[j.trace].tr, b.replay)
	if err != nil {
		return -1, fmt.Errorf("direct evaluation: %w", err)
	}
	defer ev.Close()
	r, err := ev.Evaluate(j.places)
	if err != nil {
		return -1, fmt.Errorf("direct evaluation: %w", err)
	}
	return r.Time, nil
}

// call sends a request and decodes a JSON answer, returning the status.
func (b *serveBench) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, b.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

func (b *serveBench) get(path string) ([]byte, error) {
	resp, err := b.client.Get(b.hs.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// jobChecker holds the run's payload → result index: every job must
// reach done with a result, equal payloads must get byte-identical
// results, and a sampled replay must match the direct evaluator.
type jobChecker struct {
	mu   sync.Mutex
	seen map[[32]byte][32]byte
}

func newJobChecker() *jobChecker { return &jobChecker{seen: map[[32]byte][32]byte{}} }

func (c *jobChecker) check(o jobObs) error {
	if o.transErr != nil {
		return fmt.Errorf("%s job: %w", o.kind, o.transErr)
	}
	if o.state != "done" {
		return fmt.Errorf("%s job ended %s: %s", o.kind, o.state, o.errMsg)
	}
	if !bytes.HasPrefix(o.result, []byte(`{"kind":"header"`)) {
		return fmt.Errorf("%s job: result does not start with its header line", o.kind)
	}
	sum := sha256.Sum256(o.result)
	c.mu.Lock()
	prev, dup := c.seen[o.key]
	if !dup {
		c.seen[o.key] = sum
	}
	c.mu.Unlock()
	if dup && prev != sum {
		return fmt.Errorf("%s job: duplicate payload %x got a different result", o.kind, o.key[:8])
	}
	if o.direct >= 0 {
		got, err := replayMakespan(o.result)
		if err != nil {
			return err
		}
		if got != o.direct {
			return fmt.Errorf("replay makespan %d ps, direct evaluator %d ps", got, o.direct)
		}
	}
	return nil
}

// replayMakespan reads the makespan from a replay result's replay line.
func replayMakespan(result []byte) (units.Time, error) {
	sc := bufio.NewScanner(bytes.NewReader(result))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Kind       string     `json:"kind"`
			MakespanPs units.Time `json:"makespan_ps"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err == nil && line.Kind == "replay" {
			return line.MakespanPs, nil
		}
	}
	return 0, fmt.Errorf("replay result has no replay line")
}

// layers records the per-layer samples of one traced pass.
func (b *serveBench) layers(rec *recorder, obs []jobObs) {
	var submit, fetch []float64
	queue, run := map[string][]float64{}, map[string][]float64{}
	polls, coalesced := 0, 0
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, o := range obs {
		submit = append(submit, ms(o.submit))
		polls += o.polls
		if o.state == "done" {
			fetch = append(fetch, ms(o.fetch))
		}
		if o.created {
			queue[o.kind] = append(queue[o.kind], ms(o.queue))
			run[o.kind] = append(run[o.kind], ms(o.run))
		} else {
			coalesced++
		}
	}
	rec.layer("serve.submit_p50_ms", median(submit))
	rec.layer("serve.fetch_p50_ms", median(fetch))
	rec.layer("serve.polls_per_job", float64(polls)/float64(len(obs)))
	rec.layer("serve.coalesced_frac", float64(coalesced)/float64(len(obs)))
	for _, k := range serveKinds {
		if len(queue[k]) > 0 {
			rec.layer("serve.queue_p50_ms."+k, median(queue[k]))
			rec.layer("serve.run_p50_ms."+k, median(run[k]))
		}
	}
	var stats struct {
		WarmPools int `json:"warm_pools"`
	}
	if _, err := b.call("GET", "/v1/stats", nil, &stats); err == nil {
		rec.layer("serve.warm_pools", float64(stats.WarmPools))
	}
}
