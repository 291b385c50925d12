package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RunnerFunc executes one job kind. It must honor ctx (return promptly
// once cancelled), may call progress with small JSON-serializable values
// to stream job progress, and returns the job's result. On cancellation
// it may return a non-nil partial result alongside ctx's error — the
// service stores it so a cancelled simulation job still exposes its
// deterministic prefix.
type RunnerFunc func(ctx context.Context, params json.RawMessage, progress func(v any)) (any, error)

// Server owns the queue, the registry and the worker pool. Build with
// New, start the workers with Start, serve Handler() over any listener,
// and stop with Shutdown.
type Server struct {
	cfg     Config
	queue   *jobQueue
	runners map[string]RunnerFunc

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for stable listings

	seq      atomic.Uint64
	draining atomic.Bool

	baseCtx    context.Context
	hardCancel context.CancelFunc
	workersWG  sync.WaitGroup
	started    atomic.Bool
}

// New builds a server from cfg (defaults applied, then validated) with
// the built-in job kinds registered.
func New(cfg Config) (*Server, error) {
	cfg.ApplyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      newJobQueue(cfg.QueueCap),
		runners:    make(map[string]RunnerFunc),
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		hardCancel: cancel,
	}
	registerBuiltins(s)
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// RegisterRunner adds or replaces a job kind. Not safe to call after
// Start.
func (s *Server) RegisterRunner(kind string, fn RunnerFunc) {
	s.runners[kind] = fn
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.workersWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

// SubmitRequest is the submission payload.
type SubmitRequest struct {
	// Kind names a registered runner ("replicate", "experiment", ...).
	Kind string `json:"kind"`
	// Priority orders the queue: higher runs first, [0, 9], default 5.
	Priority *int `json:"priority,omitempty"`
	// TimeoutSec is the per-job deadline in seconds; 0 means the
	// configured default, and requests above the maximum are clamped.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Params is forwarded verbatim to the runner.
	Params json.RawMessage `json:"params,omitempty"`
}

// Submit validates and enqueues a job. Sentinels: ErrUnknownKind,
// ErrDraining, ErrQueueFull (backpressure — retry later).
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	if _, ok := s.runners[req.Kind]; !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownKind, req.Kind)
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	prio := 5
	if req.Priority != nil {
		prio = *req.Priority
		if prio < 0 || prio > 9 {
			return nil, fmt.Errorf("service: priority %d outside [0, 9]", prio)
		}
	}
	timeout := s.cfg.DefaultJobTimeout
	if req.TimeoutSec > 0 {
		// Clamp in seconds, before converting: a Duration overflows past
		// ~292 years and would wrap to a negative, already-expired
		// deadline.
		timeout = s.cfg.MaxJobTimeout
		if req.TimeoutSec < timeout.Seconds() {
			// A sub-nanosecond request still gets a positive deadline.
			timeout = max(time.Duration(req.TimeoutSec*float64(time.Second)), 1)
		}
	}
	seq := s.seq.Add(1)
	j := &Job{
		ID:       fmt.Sprintf("j%06d", seq),
		Kind:     req.Kind,
		Priority: prio,
		Params:   req.Params,
		Timeout:  timeout,
		seq:      seq,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	// Register before push: a worker may pop it immediately.
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return nil, err
	}
	return j, nil
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests cancellation of a job by ID.
func (s *Server) Cancel(id string) error {
	j, err := s.Job(id)
	if err != nil {
		return err
	}
	return j.requestCancel("cancelled by request")
}

// Shutdown stops intake, cancels queued jobs, and drains running jobs.
// Order matters: readiness flips first (load balancers stop routing),
// then the queue closes (workers exit once idle), then running jobs get
// DrainTimeout (bounded additionally by ctx) to finish on their own;
// stragglers are hard-cancelled and awaited. Always returns nil once
// every worker has exited; ctx expiring only shortens the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, j := range s.queue.close() {
		j.requestCancel("cancelled: service shutting down")
	}
	idle := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(idle)
	}()
	drain := time.NewTimer(s.cfg.DrainTimeout)
	defer drain.Stop()
	select {
	case <-idle:
	case <-drain.C:
		s.hardCancel()
		<-idle
	case <-ctx.Done():
		s.hardCancel()
		<-idle
	}
	return nil
}

// worker pops and runs jobs until the queue closes.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job with panic recovery, a deadline, and terminal
// classification. A panic never propagates past this frame.
func (s *Server) runJob(j *Job) {
	jctx, cancel := context.WithTimeout(s.baseCtx, j.Timeout)
	defer cancel()
	if !j.markRunning(cancel) {
		return // cancelled while queued
	}
	runner := s.runners[j.Kind]
	progress := func(v any) {
		buf, err := json.Marshal(v)
		if err != nil {
			buf = []byte(fmt.Sprintf(`{"progress_marshal_error":%q}`, err.Error()))
		}
		j.addProgress(string(buf))
	}

	var (
		result any
		runErr error
		stack  string
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("%w: %v", ErrJobPanicked, r)
				stack = string(debug.Stack())
			}
		}()
		result, runErr = runner(jctx, j.Params, progress)
	}()

	switch {
	case runErr == nil:
		j.finish(StateDone, result, "", "")
	case stack != "":
		j.finish(StateFailed, result, runErr.Error(), stack)
	case errors.Is(runErr, context.Canceled) && j.cancelRequested():
		// User- or shutdown-requested cancellation: keep the partial
		// result (the deterministic prefix, when the runner produced one).
		j.finish(StateCancelled, result, "cancelled", "")
	case errors.Is(runErr, context.DeadlineExceeded) || errors.Is(jctx.Err(), context.DeadlineExceeded):
		j.finish(StateFailed, result, fmt.Sprintf("deadline exceeded after %v", j.Timeout), "")
	case errors.Is(runErr, context.Canceled):
		// Hard-cancel during shutdown without an explicit user cancel.
		j.finish(StateCancelled, result, "cancelled: service shutting down", "")
	default:
		j.finish(StateFailed, nil, runErr.Error(), "")
	}
}

// ----------------------------------------------------------------------
// HTTP layer

// Handler returns the HTTP/JSON API:
//
//	POST   /api/v1/jobs               submit   → 202, 400, 429 (+Retry-After), 503
//	GET    /api/v1/jobs               list     → 200
//	GET    /api/v1/jobs/{id}          status   → 200, 404
//	GET    /api/v1/jobs/{id}/result   result   → 200, 404, 409 (not finished)
//	GET    /api/v1/jobs/{id}/progress ndjson   → 200, 400 (bad since), 404
//	DELETE /api/v1/jobs/{id}          cancel   → 202, 404, 409 (already terminal)
//	GET    /healthz                   liveness → 200
//	GET    /readyz                    readiness→ 200, 503 (draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "queue_depth": strconv.Itoa(s.queue.depth())})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad submit body: %w", err))
		return
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.view(true))
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stateFilter := State(r.URL.Query().Get("state"))
	views := []JobView{}
	for _, j := range s.Jobs() {
		v := j.view(false)
		if stateFilter != "" && v.State != stateFilter {
			continue
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "queue_depth": s.queue.depth()})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, j.view(true))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	result, state, errMsg := j.resultNow()
	if !state.Terminal() {
		writeError(w, http.StatusConflict, fmt.Errorf("service: job %s still %s", j.ID, state))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": j.ID, "state": state, "error": errMsg, "result": result,
	})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	since := 0
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad since %q", q))
			return
		}
		since = n
	}
	lines, first, total := j.progressTail(since)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Progress-First", strconv.Itoa(first))
	w.Header().Set("X-Progress-Total", strconv.Itoa(total))
	w.WriteHeader(http.StatusOK)
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	switch err := j.requestCancel("cancelled by request"); {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.view(false))
	case errors.Is(err, ErrJobFinished):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
