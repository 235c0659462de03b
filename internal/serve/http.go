package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"roadrunner/internal/params"
)

// errorBody is the wire form of every failure: a stable machine-
// readable code plus a human-readable message, under one "error" key.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes a structured error response.
func writeErr(w http.ResponseWriter, aerr *apiError) {
	var body errorBody
	body.Error.Code = aerr.Code
	body.Error.Message = aerr.Message
	if aerr.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, aerr.Status, body)
}

// readBody reads the request body under the configured bound. An
// oversized body is a structured 413, not a torn read.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &apiError{http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds the " + formatBytes(s.opts.MaxBodyBytes) + " bound"}
		}
		return nil, &apiError{http.StatusBadRequest, "invalid_request", "reading body: " + err.Error()}
	}
	return body, nil
}

// formatBytes renders a byte bound for error messages.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return itoa(n>>20) + " MB"
	case n >= 1<<10 && n%(1<<10) == 0:
		return itoa(n>>10) + " KB"
	}
	return itoa(n) + " B"
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// submitResponse is the body of a successful submission.
type submitResponse struct {
	JobID string   `json:"job_id"`
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// Cached reports the job's artifact was loaded from the persistent
	// artifact cache instead of computed.
	Cached bool `json:"cached"`
	// StatusURL and ResultURL are the job's polling endpoints.
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// handleSubmit is the shared submission path: bound the body, dedupe or
// enqueue, answer 202 for a new job and 200 for a known one.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, kind string) {
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	job, created, aerr := s.submit(kind, body, func() (func() ([]byte, error), *apiError) {
		switch kind {
		case "replay":
			return workOf(s.parseReplay(body))
		case "optimize":
			return workOf(s.parseOptimize(body))
		default:
			return workOf(s.parseCollective(body))
		}
	})
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	state, _, cached, _, _, _ := job.snapshot()
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, submitResponse{
		JobID: job.ID, Kind: job.Kind, State: state, Cached: cached,
		StatusURL: "/v1/jobs/" + job.ID,
		ResultURL: "/v1/jobs/" + job.ID + "/result",
	})
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, "replay")
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, "optimize")
}

func (s *Server) handleCollective(w http.ResponseWriter, r *http.Request) {
	s.handleSubmit(w, r, "collective")
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	JobID      string   `json:"job_id"`
	Kind       string   `json:"kind"`
	State      JobState `json:"state"`
	Error      string   `json:"error,omitempty"`
	Cached     bool     `json:"cached"`
	Submitted  string   `json:"submitted_at"`
	Started    string   `json:"started_at,omitempty"`
	Finished   string   `json:"finished_at,omitempty"`
	ResultURL  string   `json:"result_url,omitempty"`
	ResultSize int      `json:"result_bytes,omitempty"`
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{http.StatusNotFound, "unknown_job", "no job " + r.PathValue("id")})
		return
	}
	state, errMsg, cached, submitted, started, finished := job.snapshot()
	st := jobStatus{
		JobID: job.ID, Kind: job.Kind, State: state, Error: errMsg, Cached: cached,
		Submitted: submitted.UTC().Format(time.RFC3339Nano),
	}
	if !started.IsZero() {
		st.Started = started.UTC().Format(time.RFC3339Nano)
	}
	if !finished.IsZero() {
		st.Finished = finished.UTC().Format(time.RFC3339Nano)
	}
	if state == StateDone {
		st.ResultURL = "/v1/jobs/" + job.ID + "/result"
		data, _, _ := job.resultBytes()
		st.ResultSize = len(data)
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, &apiError{http.StatusNotFound, "unknown_job", "no job " + r.PathValue("id")})
		return
	}
	data, state, errMsg := job.resultBytes()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case StateFailed:
		writeErr(w, &apiError{http.StatusConflict, "job_failed", errMsg})
	default:
		writeErr(w, &apiError{http.StatusConflict, "job_not_done",
			"job " + job.ID + " is " + string(state) + "; poll /v1/jobs/" + job.ID})
	}
}

// healthz is the GET /v1/healthz body: liveness plus the load snapshot
// a balancer or operator dashboard polls for — worker count, queue
// occupancy and the job-state tally.
type healthz struct {
	Status           string `json:"status"`
	ModelFingerprint string `json:"model_fingerprint"`
	Workers          int    `json:"workers"`
	QueueDepth       int    `json:"queue_depth"`
	QueueLen         int    `json:"queue_len"`
	Queued           int    `json:"jobs_queued"`
	Running          int    `json:"jobs_running"`
	Done             int    `json:"jobs_done"`
	Failed           int    `json:"jobs_failed"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthz{
		Status:           "ok",
		ModelFingerprint: params.Fingerprint(),
		Workers:          s.opts.Workers,
		QueueDepth:       s.opts.QueueDepth,
		QueueLen:         len(s.queue),
	}
	_, h.Queued, h.Running, h.Done, h.Failed = s.tallyJobs()
	writeJSON(w, http.StatusOK, h)
}

// tallyJobs counts jobs by state under the server lock.
func (s *Server) tallyJobs() (total, queued, running, done, failed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total = len(s.jobs)
	for _, j := range s.jobs {
		switch state, _, _, _, _, _ := j.snapshot(); state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateDone:
			done++
		case StateFailed:
			failed++
		}
	}
	return total, queued, running, done, failed
}

// serveStats is the GET /v1/stats body.
type serveStats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queue_depth"`
	QueueLen   int   `json:"queue_len"`
	Jobs       int   `json:"jobs"`
	Queued     int   `json:"jobs_queued"`
	Running    int   `json:"jobs_running"`
	Done       int   `json:"jobs_done"`
	Failed     int   `json:"jobs_failed"`
	WarmPools  int   `json:"warm_pools"`
	CacheHits  int64 `json:"cache_hits"`
	CacheMiss  int64 `json:"cache_misses"`
	// WarmTraces counts the decoded traces the trace store holds;
	// TraceHits the submissions it answered without decoding and
	// TraceMiss those that ran trace.Decode, failed decodes included.
	WarmTraces int   `json:"warm_traces"`
	TraceHits  int64 `json:"trace_hits"`
	TraceMiss  int64 `json:"trace_misses"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := serveStats{
		Workers:    s.opts.Workers,
		QueueDepth: s.opts.QueueDepth,
		QueueLen:   len(s.queue),
	}
	st.WarmPools, _, _ = s.pools.stats()
	st.WarmTraces, st.TraceHits, st.TraceMiss = s.traces.stats()
	st.Jobs, st.Queued, st.Running, st.Done, st.Failed = s.tallyJobs()
	if s.opts.Cache != nil {
		st.CacheHits, st.CacheMiss = s.opts.Cache.Stats()
	}
	writeJSON(w, http.StatusOK, st)
}
