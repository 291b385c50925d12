package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// State is a job lifecycle state. The machine is strictly forward:
//
//	Queued → Running → {Done, Failed, Cancelled}
//	Queued → Cancelled            (cancelled or drained before starting)
//
// Terminal states never change.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one unit of work owned by the service. All mutable fields are
// guarded by mu; readers go through view() / snapshot accessors.
type Job struct {
	// Immutable after submit.
	ID       string
	Kind     string
	Priority int
	Params   json.RawMessage
	Timeout  time.Duration
	seq      uint64

	mu        sync.Mutex
	state     State
	err       string // terminal error, if any
	stack     string // panic stack, if the job panicked
	result    any    // runner return value (Done, or partial on Cancelled)
	created   time.Time
	started   time.Time
	finished  time.Time
	cancelled bool               // cancel was requested
	cancel    context.CancelFunc // non-nil while Running
	done      chan struct{}      // closed on any terminal transition

	progressMu    sync.Mutex
	progress      []string // retained JSON lines (tail)
	progressTotal int      // lines ever emitted
}

// JobView is the JSON shape of a job's status.
type JobView struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	Priority int             `json:"priority"`
	State    State           `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
	Stack    string          `json:"stack,omitempty"`
	Progress int             `json:"progress_lines"`
	Params   json.RawMessage `json:"params,omitempty"`
}

func (j *Job) view(withParams bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Kind:     j.Kind,
		Priority: j.Priority,
		State:    j.state,
		Created:  j.created,
		Error:    j.err,
		Stack:    j.stack,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withParams {
		v.Params = j.Params
	}
	j.progressMu.Lock()
	v.Progress = j.progressTotal
	j.progressMu.Unlock()
	return v
}

// addProgress appends one JSON line to the job's bounded progress log.
func (j *Job) addProgress(line string) {
	j.progressMu.Lock()
	defer j.progressMu.Unlock()
	j.progressTotal++
	j.progress = append(j.progress, line)
	if len(j.progress) > progressKeep {
		j.progress = j.progress[len(j.progress)-progressKeep:]
	}
}

// progressTail returns the retained lines whose absolute index is >=
// since, plus the index of the first returned line and the total count.
func (j *Job) progressTail(since int) (lines []string, first, total int) {
	j.progressMu.Lock()
	defer j.progressMu.Unlock()
	total = j.progressTotal
	first = total - len(j.progress)
	if since > first {
		first = since
	}
	if first > total {
		first = total
	}
	off := first - (total - len(j.progress))
	lines = append([]string(nil), j.progress[off:]...)
	return lines, first, total
}

// stateNow returns the current state.
func (j *Job) stateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// resultNow returns the stored result and whether the job is terminal.
func (j *Job) resultNow() (any, State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.err
}

// markRunning transitions Queued → Running, recording the cancel hook.
// It fails (returns false) if the job was cancelled while queued.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, result any, errMsg, stack string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.err = errMsg
	j.stack = stack
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
}

// requestCancel implements DELETE: a queued job goes terminal
// immediately; a running job gets its context cancelled and finishes
// through the worker's classification. Idempotent while non-terminal.
func (j *Job) requestCancel(reason string) error {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return ErrJobFinished
	}
	j.cancelled = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.err = reason
		j.finished = time.Now()
		close(j.done)
		j.mu.Unlock()
		return nil
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// cancelRequested reports whether DELETE (or drain) asked this job to
// stop — the signal the worker uses to classify a context error as
// Cancelled rather than Failed.
func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}
