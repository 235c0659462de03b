package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"roadrunner/internal/collectives"
	"roadrunner/internal/fabric"
	"roadrunner/internal/ib"
	"roadrunner/internal/params"
	"roadrunner/internal/placement"
	"roadrunner/internal/trace"
	"roadrunner/internal/transport"
	"roadrunner/internal/units"
)

var errClosed = errors.New("serve: server is closed")

// apiError is a structured client-visible failure: the HTTP status, a
// stable machine-readable code and a human-readable message. docs/api.md
// lists every code.
type apiError struct {
	Status  int
	Code    string
	Message string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: 400, Code: "invalid_request", Message: fmt.Sprintf(format, args...)}
}

// endpointSpec is one rank's location in an explicit placement.
type endpointSpec struct {
	CU   int `json:"cu"`
	Node int `json:"node"`
	Core int `json:"core"`
}

// placementSpec selects a rank→node mapping: one of the named
// generators (block, strided, packed) or an explicit per-rank list.
// The zero value means block on core 1, the facade's default.
type placementSpec struct {
	Kind    string         `json:"kind,omitempty"`
	Stride  int            `json:"stride,omitempty"`
	PerNode int            `json:"per_node,omitempty"`
	Core    *int           `json:"core,omitempty"`
	Places  []endpointSpec `json:"places,omitempty"`
}

// endpoints resolves the spec for a ranks-wide trace on fab.
func (p *placementSpec) endpoints(fab *fabric.System, ranks int) ([]transport.Endpoint, *apiError) {
	core := 1
	if p.Core != nil {
		core = *p.Core
	}
	if core < 0 || core > 3 {
		return nil, badRequest("placement core %d outside 0..3", core)
	}
	kind := p.Kind
	if kind == "" {
		kind = "block"
	}
	switch kind {
	case "block":
		if ranks > fab.Nodes() {
			return nil, badRequest("block placement needs %d nodes, fabric has %d", ranks, fab.Nodes())
		}
		return toEndpoints(collectives.BlockPlacement(fab, ranks, core)), nil
	case "strided":
		stride := p.Stride
		if stride == 0 {
			stride = 180
		}
		if stride < 1 {
			return nil, badRequest("placement stride %d below 1", stride)
		}
		if ranks > fab.Nodes() {
			return nil, badRequest("strided placement needs %d nodes, fabric has %d", ranks, fab.Nodes())
		}
		return toEndpoints(collectives.StridedPlacement(fab, ranks, stride, core)), nil
	case "packed":
		perNode := p.PerNode
		if perNode == 0 {
			perNode = 4
		}
		if perNode < 1 || perNode > 4 {
			return nil, badRequest("placement per_node %d outside 1..4", perNode)
		}
		if nodes := (ranks + perNode - 1) / perNode; nodes > fab.Nodes() {
			return nil, badRequest("packed placement of %d ranks at %d/node needs %d nodes, fabric has %d",
				ranks, perNode, nodes, fab.Nodes())
		}
		return toEndpoints(collectives.PackedPlacement(fab, ranks, perNode)), nil
	case "explicit":
		if len(p.Places) != ranks {
			return nil, badRequest("explicit placement lists %d ranks, trace has %d", len(p.Places), ranks)
		}
		out := make([]transport.Endpoint, ranks)
		for i, e := range p.Places {
			// Bound the CU index directly rather than via GlobalID():
			// CU*NodesPerCU overflows int for absurd CU values and would
			// wrap negative past a fab.Nodes() comparison.
			if e.CU < 0 || e.CU >= fab.Nodes()/params.NodesPerCU ||
				e.Node < 0 || e.Node >= params.NodesPerCU {
				return nil, badRequest("rank %d placed at cu %d node %d outside the %d-node fabric",
					i, e.CU, e.Node, fab.Nodes())
			}
			if e.Core < 0 || e.Core > 3 {
				return nil, badRequest("rank %d on core %d (want 0..3)", i, e.Core)
			}
			out[i] = transport.Endpoint{Node: fabric.NodeID{CU: e.CU, Node: e.Node}, Core: e.Core}
		}
		return out, nil
	}
	return nil, badRequest("unknown placement kind %q (want block, strided, packed or explicit)", kind)
}

// toEndpoints converts collective placements to transport endpoints.
func toEndpoints(places []collectives.Placement) []transport.Endpoint {
	out := make([]transport.Endpoint, len(places))
	for i, p := range places {
		out[i] = transport.Endpoint{Node: p.Node, Core: p.Core}
	}
	return out
}

// policyFor maps the wire congestion field to a transport policy.
func policyFor(congestion string) (transport.Policy, *apiError) {
	switch congestion {
	case "", "on":
		return transport.Congested(), nil
	case "off":
		return transport.InfiniteCapacity(), nil
	}
	return transport.Policy{}, badRequest("congestion must be \"on\" or \"off\", got %q", congestion)
}

// decodeStrict unmarshals JSON rejecting unknown fields, so schema
// typos fail loudly instead of silently taking defaults.
func decodeStrict(data []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{Status: 400, Code: "invalid_json", Message: err.Error()}
	}
	// Trailing garbage after the object is a malformed request too.
	if dec.More() {
		return &apiError{Status: 400, Code: "invalid_json", Message: "trailing data after request object"}
	}
	return nil
}

// parseTrace resolves an inline JSONL trace to its decoded form and
// content digest. The digest is the sha256 of the text, and it is the
// trace store's key: only a digest the store does not hold runs
// trace.Decode, and only a trace that decodes and fully validates is
// stored. A hit therefore returns a trace decoded and validated earlier
// from byte-identical text. The trace is shared and read-only.
func (s *Server) parseTrace(text string) (*trace.Trace, string, *apiError) {
	if text == "" {
		return nil, "", badRequest("missing required field \"trace\" (inline JSONL)")
	}
	sum := sha256.Sum256([]byte(text))
	digest := hex.EncodeToString(sum[:])
	tr, err := s.traces.get(digest, func() (*trace.Trace, error) {
		return trace.Decode(strings.NewReader(text))
	})
	if errors.Is(err, errClosed) {
		return nil, "", errShuttingDown
	}
	if err != nil {
		return nil, "", &apiError{Status: 400, Code: "invalid_trace", Message: err.Error()}
	}
	return tr, digest, nil
}

// workOf adapts a parsed job to the submit path's work function.
func workOf[J interface{ run() ([]byte, error) }](j J, aerr *apiError) (func() ([]byte, error), *apiError) {
	if aerr != nil {
		return nil, aerr
	}
	return j.run, nil
}

// replayRequest is the POST /v1/replay body.
type replayRequest struct {
	Trace        string        `json:"trace"`
	Placement    placementSpec `json:"placement"`
	Congestion   string        `json:"congestion,omitempty"`
	SkipCompute  bool          `json:"skip_compute,omitempty"`
	ComputeScale float64       `json:"compute_scale,omitempty"`
	Observe      string        `json:"observe,omitempty"`
}

// replayJob is a validated replay submission: the request (its trace
// text dropped once resolved), the shared decoded trace and everything
// the work function fixes.
type replayJob struct {
	s       *Server
	req     replayRequest
	tr      *trace.Trace
	digest  string
	places  []transport.Endpoint
	cfg     trace.ReplayConfig
	poolKey string
}

// parseReplay validates a replay submission.
func (s *Server) parseReplay(body []byte) (*replayJob, *apiError) {
	j := &replayJob{s: s}
	req := &j.req
	if aerr := decodeStrict(body, req); aerr != nil {
		return nil, aerr
	}
	tr, digest, aerr := s.parseTrace(req.Trace)
	if aerr != nil {
		return nil, aerr
	}
	req.Trace = "" // the store holds the decoded trace; the text is dead weight
	if math.IsNaN(req.ComputeScale) || math.IsInf(req.ComputeScale, 0) || req.ComputeScale < 0 {
		return nil, badRequest("compute_scale %g is not a finite non-negative number", req.ComputeScale)
	}
	var observe trace.Observe
	switch req.Observe {
	case "", "none":
	case "sends":
		observe = trace.ObserveSends
	case "census":
		observe = trace.ObserveCensus
	case "all":
		observe = trace.ObserveAll
	default:
		return nil, badRequest("observe must be \"none\", \"sends\", \"census\" or \"all\", got %q", req.Observe)
	}
	policy, aerr := policyFor(req.Congestion)
	if aerr != nil {
		return nil, aerr
	}
	places, aerr := req.Placement.endpoints(s.fab, tr.Meta.Ranks)
	if aerr != nil {
		return nil, aerr
	}
	j.tr, j.digest, j.places = tr, digest, places
	j.cfg = trace.ReplayConfig{
		Fabric:       s.fab,
		Profile:      ib.OpenMPI(),
		Policy:       policy,
		ComputeScale: req.ComputeScale,
		SkipCompute:  req.SkipCompute,
		Observe:      observe,
	}
	// The pool key is everything the evaluator fixes for its lifetime:
	// the trace bytes and the config minus the placement.
	j.poolKey = fmt.Sprintf("%s|cong=%v,ch=%d|skip=%v|scale=%g|obs=%d",
		digest, policy.Enabled, policy.Channels, j.cfg.SkipCompute, j.cfg.ComputeScale, observe)
	return j, nil
}

// run checks a warm evaluator out of the (trace, config) pool,
// evaluates the placement and renders the JSONL artifact.
func (j *replayJob) run() ([]byte, error) {
	ev, pool, err := j.s.checkout(j.poolKey, func() (*trace.EvaluatorPool, error) {
		return trace.NewEvaluatorPool(j.tr, j.cfg, j.s.opts.PoolIdle)
	})
	if err != nil {
		return nil, err
	}
	defer pool.Put(ev)
	res, err := ev.Evaluate(j.places)
	if err != nil {
		return nil, err
	}
	return renderReplay(&j.req, j.tr, j.digest, res)
}

// optimizeRequest is the POST /v1/optimize body. Zero search knobs take
// the placement package's defaults; the result is a deterministic
// function of every field (the server's worker count never leaks in).
type optimizeRequest struct {
	Trace          string `json:"trace"`
	Congestion     string `json:"congestion,omitempty"`
	FullSchedule   bool   `json:"full_schedule,omitempty"`
	Seed           int64  `json:"seed,omitempty"`
	Stride         int    `json:"stride,omitempty"`
	PerNode        int    `json:"per_node,omitempty"`
	GreedyRounds   int    `json:"greedy_rounds,omitempty"`
	GreedyBatch    int    `json:"greedy_batch,omitempty"`
	GreedyPatience int    `json:"greedy_patience,omitempty"`
	AnnealRounds   int    `json:"anneal_rounds,omitempty"`
	AnnealBatch    int    `json:"anneal_batch,omitempty"`
}

// optimizeJob is a validated optimize submission: a full placement
// search seeded from the block/strided/packed baselines.
type optimizeJob struct {
	req    optimizeRequest
	tr     *trace.Trace
	digest string
	cfg    placement.Config
}

// parseOptimize validates an optimize submission.
func (s *Server) parseOptimize(body []byte) (*optimizeJob, *apiError) {
	j := &optimizeJob{}
	req := &j.req
	if aerr := decodeStrict(body, req); aerr != nil {
		return nil, aerr
	}
	tr, digest, aerr := s.parseTrace(req.Trace)
	if aerr != nil {
		return nil, aerr
	}
	req.Trace = "" // the store holds the decoded trace; the text is dead weight
	if req.GreedyRounds < 0 || req.GreedyBatch < 0 || req.GreedyPatience < 0 ||
		req.AnnealRounds < 0 || req.AnnealBatch < 0 {
		return nil, badRequest("search knobs must be non-negative")
	}
	stride := req.Stride
	if stride == 0 {
		stride = 180
	}
	if stride < 1 {
		return nil, badRequest("stride %d below 1", stride)
	}
	perNode := req.PerNode
	if perNode == 0 {
		perNode = 4
	}
	if perNode < 1 || perNode > 4 {
		return nil, badRequest("per_node %d outside 1..4", perNode)
	}
	policy, aerr := policyFor(req.Congestion)
	if aerr != nil {
		return nil, aerr
	}
	if tr.Meta.Ranks > s.fab.Nodes() {
		return nil, badRequest("trace spans %d ranks, fabric has %d nodes", tr.Meta.Ranks, s.fab.Nodes())
	}
	j.tr, j.digest = tr, digest
	j.cfg = placement.Config{
		Trace: tr,
		Replay: trace.ReplayConfig{
			Fabric:      s.fab,
			Profile:     ib.OpenMPI(),
			Policy:      policy,
			SkipCompute: !req.FullSchedule,
		},
		Starts: []placement.Start{
			{Name: "block", Places: toEndpoints(collectives.BlockPlacement(s.fab, tr.Meta.Ranks, 1))},
			{Name: "strided", Places: toEndpoints(collectives.StridedPlacement(s.fab, tr.Meta.Ranks, stride, 1))},
			{Name: "packed", Places: toEndpoints(collectives.PackedPlacement(s.fab, tr.Meta.Ranks, perNode))},
		},
		Seed:           req.Seed,
		Workers:        s.opts.OptimizeWorkers,
		GreedyRounds:   req.GreedyRounds,
		GreedyBatch:    req.GreedyBatch,
		GreedyPatience: req.GreedyPatience,
		AnnealRounds:   req.AnnealRounds,
		AnnealBatch:    req.AnnealBatch,
	}
	return j, nil
}

// run searches and renders the JSONL artifact.
func (j *optimizeJob) run() ([]byte, error) {
	res, err := placement.Optimize(j.cfg)
	if err != nil {
		return nil, err
	}
	return renderOptimize(&j.req, j.tr, j.digest, res)
}

// collectiveRequest is the POST /v1/collective body.
type collectiveRequest struct {
	Op         string `json:"op"`
	Nodes      int    `json:"nodes"`
	SizeBytes  int64  `json:"size_bytes"`
	Congestion string `json:"congestion,omitempty"`
}

// collectiveJob is a validated collective submission: one collective
// run over the smallest fabric that holds it.
type collectiveJob struct {
	req collectiveRequest
	op  collectives.Op
	mk  func(int) (collectives.Config, error)
}

// parseCollective validates a collective submission.
func (s *Server) parseCollective(body []byte) (*collectiveJob, *apiError) {
	j := &collectiveJob{}
	req := &j.req
	if aerr := decodeStrict(body, req); aerr != nil {
		return nil, aerr
	}
	j.op = collectives.Op(req.Op)
	if !slices.Contains(collectives.Ops(), j.op) {
		return nil, badRequest("unknown op %q (have %v)", req.Op, collectives.Ops())
	}
	if req.SizeBytes < 0 {
		return nil, badRequest("size_bytes %d is negative", req.SizeBytes)
	}
	switch req.Congestion {
	case "", "on":
		j.mk = collectives.CongestedConfig
	case "off":
		j.mk = collectives.DefaultConfig
	default:
		return nil, badRequest("congestion must be \"on\" or \"off\", got %q", req.Congestion)
	}
	// Validate the communicator now so a bad node count is a 400 at
	// submission, not a failed job.
	if _, err := j.mk(req.Nodes); err != nil {
		return nil, badRequest("%v", err)
	}
	return j, nil
}

// run runs the collective and renders the JSONL artifact.
func (j *collectiveJob) run() ([]byte, error) {
	cfg, err := j.mk(j.req.Nodes)
	if err != nil {
		return nil, err
	}
	res, err := collectives.Run(cfg, j.op, units.Size(j.req.SizeBytes))
	if err != nil {
		return nil, err
	}
	return renderCollective(&j.req, res)
}
