package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a started server with a small footprint. Tests
// register their own runners before submitting.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		QueueCap:          8,
		Workers:           2,
		DefaultJobTimeout: 30 * time.Second,
		DrainTimeout:      5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	s.Start()
	return s
}

func waitTerminal(t *testing.T, j *Job) State {
	t.Helper()
	select {
	case <-j.done:
		return j.stateNow()
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.stateNow())
		return ""
	}
}

func intPtr(v int) *int { return &v }

func TestJobLifecycleToDone(t *testing.T) {
	s := newTestServer(t, nil)
	s.RegisterRunner("echo", func(_ context.Context, params json.RawMessage, progress func(v any)) (any, error) {
		progress(map[string]int{"step": 1})
		progress(map[string]int{"step": 2})
		return map[string]string{"echo": string(params)}, nil
	})

	j, err := s.Submit(SubmitRequest{Kind: "echo", Params: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateDone {
		t.Fatalf("state = %s, want done", got)
	}
	result, state, errMsg := j.resultNow()
	if state != StateDone || errMsg != "" {
		t.Fatalf("resultNow = (%v, %s, %q)", result, state, errMsg)
	}
	lines, first, total := j.progressTail(0)
	if first != 0 || total != 2 || len(lines) != 2 {
		t.Fatalf("progress = %v (first %d, total %d), want 2 lines from 0", lines, first, total)
	}
	if !strings.Contains(lines[1], `"step":2`) {
		t.Errorf("progress line 1 = %q, want step 2", lines[1])
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.Submit(SubmitRequest{Kind: "no-such-kind"}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: err = %v, want ErrUnknownKind", err)
	}
	if _, err := s.Submit(SubmitRequest{Kind: "replicate", Priority: intPtr(17)}); err == nil {
		t.Error("priority 17 accepted")
	}
}

// TestCancelRunningJobKeepsPartialResult pins the cancellation contract:
// a runner that returns (partial, ctx.Err()) after a user cancel ends
// Cancelled with the partial result retained.
func TestCancelRunningJobKeepsPartialResult(t *testing.T) {
	s := newTestServer(t, nil)
	started := make(chan struct{})
	s.RegisterRunner("block", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		close(started)
		<-ctx.Done()
		return map[string]string{"partial": "prefix"}, ctx.Err()
	})

	j, err := s.Submit(SubmitRequest{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got)
	}
	result, _, _ := j.resultNow()
	m, ok := result.(map[string]string)
	if !ok || m["partial"] != "prefix" {
		t.Fatalf("partial result lost on cancel: %v", result)
	}
	// Cancelling a terminal job is a conflict, not a crash.
	if err := s.Cancel(j.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("second cancel: err = %v, want ErrJobFinished", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	release := make(chan struct{})
	ran := make(chan string, 8)
	s.RegisterRunner("gate", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return "ok", nil
	})
	s.RegisterRunner("mark", func(_ context.Context, params json.RawMessage, _ func(v any)) (any, error) {
		ran <- string(params)
		return "ok", nil
	})

	blocker, err := s.Submit(SubmitRequest{Kind: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(SubmitRequest{Kind: "mark", Params: json.RawMessage(`"victim"`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	if got := victim.stateNow(); got != StateCancelled {
		t.Fatalf("queued job state after cancel = %s, want cancelled immediately", got)
	}
	witness, err := s.Submit(SubmitRequest{Kind: "mark", Params: json.RawMessage(`"witness"`)})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	waitTerminal(t, blocker)
	if got := waitTerminal(t, witness); got != StateDone {
		t.Fatalf("witness state = %s", got)
	}
	select {
	case who := <-ran:
		if who != `"witness"` {
			t.Fatalf("cancelled job ran: %s", who)
		}
	default:
		t.Fatal("witness never ran")
	}
}

// TestPanicIsolation is the crash-only core: a panicking job is Failed
// with its stack recorded, and the pool keeps serving jobs afterwards.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	s.RegisterRunner("bomb", func(_ context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		panic("simulated runner bug")
	})
	s.RegisterRunner("fine", func(_ context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		return 42, nil
	})

	bomb, err := s.Submit(SubmitRequest{Kind: "bomb"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, bomb); got != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", got)
	}
	v := bomb.view(false)
	if !strings.Contains(v.Error, "simulated runner bug") {
		t.Errorf("error %q does not carry the panic value", v.Error)
	}
	if !errors.Is(ErrJobPanicked, ErrJobPanicked) || !strings.Contains(v.Error, ErrJobPanicked.Error()) {
		t.Errorf("error %q does not wrap ErrJobPanicked", v.Error)
	}
	if !strings.Contains(v.Stack, "goroutine") {
		t.Errorf("stack not captured: %q", v.Stack)
	}

	// The single worker that recovered the panic must still be alive.
	after, err := s.Submit(SubmitRequest{Kind: "fine"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, after); got != StateDone {
		t.Fatalf("job after panic: state = %s, want done — worker died", got)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueCap = 1 })
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.RegisterRunner("gate", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer close(release)

	running, err := s.Submit(SubmitRequest{Kind: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds this job; the queue is empty again
	if _, err := s.Submit(SubmitRequest{Kind: "gate"}); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	_, err = s.Submit(SubmitRequest{Kind: "gate"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want errors.Is(err, ErrQueueFull)", err)
	}
	_ = running
}

func TestHTTPQueueFullIs429WithRetryAfter(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueCap = 1 })
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.RegisterRunner("gate", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func() *http.Response {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"gate"}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := submit()
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	<-started
	r2 := submit()
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", r2.StatusCode)
	}
	r3 := submit()
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var body map[string]string
	if err := json.NewDecoder(r3.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "queue full") {
		t.Errorf("429 body = %v", body)
	}
}

// The submit body is bounded at maxBodyBytes (1 MiB): a body of exactly
// that size is decoded and accepted, one byte more is a 400.
func TestSubmitBodyBound(t *testing.T) {
	s := newTestServer(t, nil)
	s.RegisterRunner("echo", func(_ context.Context, params json.RawMessage, _ func(v any)) (any, error) {
		return len(params), nil
	})
	submit := func(size int) *httptest.ResponseRecorder {
		const frame = `{"kind":"echo","params":""}`
		body := frame[:len(frame)-2] + strings.Repeat("x", size-len(frame)) + `"}`
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
		return rec
	}
	if rec := submit(maxBodyBytes); rec.Code != http.StatusAccepted {
		t.Fatalf("%d-byte body: %d %s, want 202", maxBodyBytes, rec.Code, rec.Body)
	}
	rec := submit(maxBodyBytes + 1)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("%d-byte body: %d %s, want 400 for a body too large", maxBodyBytes+1, rec.Code, rec.Body)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	s := newTestServer(t, nil)
	s.RegisterRunner("echo", func(_ context.Context, params json.RawMessage, progress func(v any)) (any, error) {
		progress(map[string]string{"phase": "working"})
		return map[string]string{"echo": string(params)}, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"echo","priority":7,"params":{"n":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || view.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, view)
	}
	if view.Priority != 7 {
		t.Errorf("priority = %d, want 7", view.Priority)
	}

	j, err := s.Job(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)

	get := func(path string) (*http.Response, string) {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		r.Body.Close()
		return r, sb.String()
	}

	r, body := get("/api/v1/jobs/" + view.ID)
	if r.StatusCode != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("status: %d %s", r.StatusCode, body)
	}
	r, body = get("/api/v1/jobs/" + view.ID + "/result")
	if r.StatusCode != http.StatusOK || !strings.Contains(body, `{\"n\":3}`) {
		t.Fatalf("result: %d %s", r.StatusCode, body)
	}
	r, body = get("/api/v1/jobs/" + view.ID + "/progress")
	if r.StatusCode != http.StatusOK || !strings.Contains(body, `"phase":"working"`) {
		t.Fatalf("progress: %d %s", r.StatusCode, body)
	}
	if r.Header.Get("X-Progress-Total") != "1" {
		t.Errorf("X-Progress-Total = %q, want 1", r.Header.Get("X-Progress-Total"))
	}
	r, body = get("/api/v1/jobs")
	if r.StatusCode != http.StatusOK || !strings.Contains(body, view.ID) {
		t.Fatalf("list: %d %s", r.StatusCode, body)
	}
	r, _ = get("/api/v1/jobs/j999999")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
	r, _ = get("/healthz")
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", r.StatusCode)
	}
	r, _ = get("/readyz")
	if r.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d", r.StatusCode)
	}

	// Result of a non-terminal job is a 409.
	blockRelease := make(chan struct{})
	defer close(blockRelease)
	s.RegisterRunner("block", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		select {
		case <-blockRelease:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	blocked, err := s.Submit(SubmitRequest{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	r, _ = get("/api/v1/jobs/" + blocked.ID + "/result")
	if r.StatusCode != http.StatusConflict {
		t.Errorf("result of running job = %d, want 409", r.StatusCode)
	}

	// DELETE of a terminal job is a 409; of a live one, 202.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+view.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusConflict {
		t.Errorf("cancel of done job = %d, want 409", dr.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+blocked.ID, nil)
	dr, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Errorf("cancel of running job = %d, want 202", dr.StatusCode)
	}
	if got := waitTerminal(t, blocked); got != StateCancelled {
		t.Errorf("blocked job after DELETE = %s, want cancelled", got)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	started := make(chan struct{})
	release := make(chan struct{})
	s.RegisterRunner("gate", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		close(started)
		select {
		case <-release:
			return "finished cleanly", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s.RegisterRunner("never", func(_ context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		return nil, errors.New("queued job must not run during shutdown")
	})

	running, err := s.Submit(SubmitRequest{Kind: "gate"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := s.Submit(SubmitRequest{Kind: "never"})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	// Intake must reject during the drain; the queued job dies Cancelled.
	if got := waitTerminal(t, queued); got != StateCancelled {
		t.Fatalf("queued job during shutdown = %s, want cancelled", got)
	}
	deadline := time.After(5 * time.Second)
	for {
		if _, err := s.Submit(SubmitRequest{Kind: "gate"}); errors.Is(err, ErrDraining) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("submit never started failing with ErrDraining")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Release the running job: it must complete Done, not be cancelled.
	close(release)
	select {
	case <-shutdownDone:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown never returned after drain")
	}
	if got := running.stateNow(); got != StateDone {
		t.Errorf("running job after graceful drain = %s, want done", got)
	}
}

func TestShutdownHardCancelsAfterDrainTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.DrainTimeout = 50 * time.Millisecond
	})
	started := make(chan struct{})
	s.RegisterRunner("stubborn", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		close(started)
		<-ctx.Done() // only stops when hard-cancelled
		return nil, ctx.Err()
	})
	j, err := s.Submit(SubmitRequest{Kind: "stubborn"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := j.stateNow(); got != StateCancelled {
		t.Errorf("hard-cancelled job = %s, want cancelled", got)
	}
	v := j.view(false)
	if !strings.Contains(v.Error, "shutting down") {
		t.Errorf("hard-cancel error = %q", v.Error)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	s := newTestServer(t, nil)
	s.RegisterRunner("sleepy", func(ctx context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j, err := s.Submit(SubmitRequest{Kind: "sleepy", TimeoutSec: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", got)
	}
	if v := j.view(false); !strings.Contains(v.Error, "deadline exceeded") {
		t.Errorf("deadline error = %q", v.Error)
	}
}

func TestSubmitClampsTimeoutToMax(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxJobTimeout = time.Minute })
	s.RegisterRunner("noop", func(_ context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		return nil, nil
	})
	j, err := s.Submit(SubmitRequest{Kind: "noop", TimeoutSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if j.Timeout != time.Minute {
		t.Errorf("timeout = %v, want clamped to 1m", j.Timeout)
	}
	waitTerminal(t, j)
}

// TestSubmitTimeoutClampsInSeconds pins the clamp against Duration
// overflow: a timeout_sec past ~292 years used to convert to a negative
// Duration before the clamp saw it, failing the job at once.
func TestSubmitTimeoutClampsInSeconds(t *testing.T) {
	s, err := New(Config{}) // never started: no job runs
	if err != nil {
		t.Fatal(err)
	}
	maxT := s.Config().MaxJobTimeout
	for _, tc := range []struct {
		sec  float64
		want time.Duration
	}{
		{10, 10 * time.Second},
		{1e10, maxT},
		{1e300, maxT},
		{math.Inf(1), maxT},
		{1e-12, 1},
	} {
		j, err := s.Submit(SubmitRequest{Kind: "replicate", TimeoutSec: tc.sec})
		if err != nil {
			t.Fatalf("timeout_sec %g: %v", tc.sec, err)
		}
		if j.Timeout != tc.want {
			t.Errorf("timeout_sec %g: Timeout = %v, want %v", tc.sec, j.Timeout, tc.want)
		}
	}
}

func TestProgressTailBounded(t *testing.T) {
	const emitted = progressKeep + 7
	s := newTestServer(t, nil)
	s.RegisterRunner("chatty", func(_ context.Context, _ json.RawMessage, progress func(v any)) (any, error) {
		for i := 0; i < emitted; i++ {
			progress(map[string]int{"i": i})
		}
		return nil, nil
	})
	j, err := s.Submit(SubmitRequest{Kind: "chatty"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	lines, first, total := j.progressTail(0)
	if total != emitted {
		t.Errorf("total = %d, want %d", total, emitted)
	}
	if len(lines) != progressKeep || first != 7 {
		t.Errorf("tail = %d lines from %d, want %d from 7", len(lines), first, progressKeep)
	}
	if want := fmt.Sprintf(`"i":%d`, emitted-1); !strings.Contains(lines[len(lines)-1], want) {
		t.Errorf("last line = %q, want it to hold %s", lines[len(lines)-1], want)
	}
	// since beyond the tail start narrows the window further.
	lines, first, _ = j.progressTail(emitted - 1)
	if len(lines) != 1 || first != emitted-1 {
		t.Errorf("tail(%d) = %d lines from %d, want 1 from %d", emitted-1, len(lines), first, emitted-1)
	}
}

// TestReplicateJobEndToEnd drives the built-in "replicate" kind on a tiny
// network: the job must finish Done with per-round CI progress lines and a
// metric summary in the result.
func TestReplicateJobEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	params := `{"nodes":10,"width":300,"height":300,"range":120,"duration_us":20000,` +
		`"min_reps":3,"max_reps":3,"batch_size":3,"rel_ci":-1,"workers":2}`
	j, err := s.Submit(SubmitRequest{Kind: "replicate", Params: json.RawMessage(params)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateDone {
		v := j.view(false)
		t.Fatalf("replicate job = %s (err %q)", got, v.Error)
	}
	result, _, _ := j.resultNow()
	view, ok := result.(*ReplicateResult)
	if !ok {
		t.Fatalf("result type %T", result)
	}
	if view.Reps != 3 || view.Cancelled {
		t.Errorf("result = %+v, want 3 uncancelled reps", view)
	}
	if len(view.Metrics) != 2 || view.Metrics[0].Name != "global_payoff_rate" {
		t.Fatalf("metrics = %+v", view.Metrics)
	}
	if view.Metrics[0].Mean <= 0 {
		t.Errorf("global payoff rate mean = %g, want > 0", view.Metrics[0].Mean)
	}
	lines, _, total := j.progressTail(0)
	if total < 1 {
		t.Fatal("no progress lines from replicate job")
	}
	var pr ReplicateProgress
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &pr); err != nil {
		t.Fatalf("progress line %q: %v", lines[len(lines)-1], err)
	}
	if pr.Reps != 3 || len(pr.Metrics) != 2 {
		t.Errorf("last progress = %+v", pr)
	}
}

// TestReplicateJobCancelledKeepsPrefix submits a replicate job with the
// largest replication budget, far more than the test can finish, and
// cancels it mid-flight: the job must end Cancelled with a prefix result.
// The schedule is adaptive, so rounds of two replications fold and report
// progress, but its tolerance is too tight ever to stop it early.
func TestReplicateJobCancelledKeepsPrefix(t *testing.T) {
	s := newTestServer(t, nil)
	params := `{"nodes":12,"width":300,"height":300,"range":120,"duration_us":2000000,` +
		`"min_reps":2,"max_reps":1000000,"batch_size":2,"rel_ci":1e-12,"workers":1}`
	j, err := s.Submit(SubmitRequest{Kind: "replicate", Params: json.RawMessage(params)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first progress line so at least one round has folded,
	// then cancel.
	deadline := time.After(20 * time.Second)
	for {
		_, _, total := j.progressTail(0)
		if total >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no progress before cancel")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if state := waitTerminal(t, j); state != StateCancelled {
		t.Fatalf("state = %s, want cancelled", state)
	}
	result, _, _ := j.resultNow()
	view, ok := result.(*ReplicateResult)
	if !ok {
		t.Fatalf("cancelled result type %T, want *ReplicateResult prefix", result)
	}
	if !view.Cancelled {
		t.Error("prefix result not flagged Cancelled")
	}
	if view.Reps <= 0 || view.Reps >= 1000000 {
		t.Errorf("prefix reps = %d, want partial progress in (0, 1000000)", view.Reps)
	}
}

// TestDetectJobEndToEnd runs a "detect" job with one blatant cheater:
// the job must finish Done, stream at least one event:"flag" progress
// line naming the cheater, and summarize detection (TPR 1, a finite
// first-flag latency, cheater estimate far under the honest window).
func TestDetectJobEndToEnd(t *testing.T) {
	params := `{"nodes":10,"expected_cw":166,"cheaters":1,"cheater_cw":20,` +
		`"beta":0.6,"window_slots":1500,"duration_us":10000000,"seed":7}`
	s := newTestServer(t, nil)
	j, err := s.Submit(SubmitRequest{Kind: "detect", Params: json.RawMessage(params)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateDone {
		v := j.view(false)
		t.Fatalf("detect job = %s (err %q)", got, v.Error)
	}
	result, _, _ := j.resultNow()
	view, ok := result.(*DetectResult)
	if !ok {
		t.Fatalf("result type %T", result)
	}
	if view.TruePositives != 1 || view.LatencySlots < 0 {
		t.Fatalf("result = %+v, want the cheater flagged with a latency", view)
	}
	if view.Windows < 2 || view.Slots <= 0 {
		t.Errorf("windows %d slots %d, want a multi-window run", view.Windows, view.Slots)
	}
	cheater := view.Nodes[0]
	if !cheater.Cheater || cheater.Flags == 0 || cheater.MeanEstCW >= 0.6*166 {
		t.Errorf("cheater summary = %+v", cheater)
	}
	lines, _, total := j.progressTail(0)
	if total < 2 {
		t.Fatalf("progress lines = %d, want started + flags", total)
	}
	var flags int
	for _, line := range lines {
		var fl DetectFlagLine
		if err := json.Unmarshal([]byte(line), &fl); err != nil || fl.Event != "flag" {
			continue
		}
		flags++
		if fl.Node != 0 || !fl.Cheater {
			t.Errorf("flag line %q does not name the cheater", line)
		}
		if fl.EstCW >= fl.ExpectedCW*0.6 || fl.Margin >= 0.6 {
			t.Errorf("flag line %q above the beta threshold", line)
		}
	}
	if flags == 0 {
		t.Fatal("no event:\"flag\" progress line streamed")
	}
}

// TestDetectJobParamValidation pins the submit-to-run failure modes.
func TestDetectJobParamValidation(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		name, params, wantErr string
	}{
		{"all cheaters", `{"nodes":4,"cheaters":4}`, "no honest node"},
		{"bad mode", `{"mode":"csma"}`, "unknown mode"},
		{"unknown field", `{"nodez":10}`, "unknown field"},
		{"bad beta", `{"beta":1.5}`, "invalid config"},
	} {
		j, err := s.Submit(SubmitRequest{Kind: "detect", Params: json.RawMessage(tc.params)})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, j); got != StateFailed {
			t.Fatalf("%s: state %s, want failed", tc.name, got)
		}
		if v := j.view(false); !strings.Contains(v.Error, tc.wantErr) {
			t.Errorf("%s: error %q, want %q", tc.name, v.Error, tc.wantErr)
		}
	}
}

func TestExperimentJobUnknownID(t *testing.T) {
	s := newTestServer(t, nil)
	j, err := s.Submit(SubmitRequest{Kind: "experiment", Params: json.RawMessage(`{"id":"ZZ"}`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got != StateFailed {
		t.Fatalf("unknown experiment = %s, want failed", got)
	}
	if v := j.view(false); !strings.Contains(v.Error, "unknown experiment") {
		t.Errorf("error = %q", v.Error)
	}
}

func TestJobIDsAreSequential(t *testing.T) {
	s := newTestServer(t, nil)
	s.RegisterRunner("noop", func(_ context.Context, _ json.RawMessage, _ func(v any)) (any, error) {
		return nil, nil
	})
	var prev string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(SubmitRequest{Kind: "noop"})
		if err != nil {
			t.Fatal(err)
		}
		if j.ID <= prev {
			t.Errorf("IDs not increasing: %q after %q", j.ID, prev)
		}
		prev = j.ID
		waitTerminal(t, j)
	}
	if want := fmt.Sprintf("j%06d", 3); prev != want {
		t.Errorf("third ID = %q, want %q", prev, want)
	}
}
