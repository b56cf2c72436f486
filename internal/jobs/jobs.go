// Package jobs is the durable batch-serving layer of the diagnosis
// pipeline: a bounded worker pool with priority classes and admission
// control, fed from a write-ahead log so accepted work survives a process
// restart, with a content-addressed result cache so duplicate submissions
// are answered without re-running the pipeline.
//
// The package is deliberately dependency-free (standard library plus the
// in-repo obs and trace layers) and knows nothing about diagnosis: work is
// an opaque JSON payload dispatched to an Executor registered per job kind.
// internal/server registers the "diagnose" and "sweep" executors and exposes
// the queue as /v1/jobs; internal/experiments drives it directly for the E13
// throughput experiment.
//
// # Durability
//
// A Manager opened with a directory appends every state change to
// dir/wal.jsonl — submit, start, done, cancel — and periodically compacts
// the log into dir/snapshot.json. Recovery loads the snapshot, replays the
// log, and re-queues every job that was accepted but not finished: jobs that
// completed before the crash keep their recorded results and are never run
// again; jobs that were queued or mid-run when the process died run exactly
// once after the restart (a run that never wrote its "done" record did not
// happen, so repeating it is the exactly-once outcome, not a duplicate).
// A Manager opened without a directory has identical queue semantics but no
// durability; it backs tests and the in-process experiment harness.
//
// # Admission control
//
// Submit rejects work with ErrQueueFull once the number of queued jobs
// reaches the configured depth, instead of buffering without bound; HTTP
// callers translate the error to 429 with a Retry-After estimate. Duplicate
// submissions — same kind and canonical payload, hence same ContentKey —
// bypass the queue entirely when a previous run's result is still cached.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle states. Queued and Running are transient; the other three
// are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Priority is a job's admission class. Interactive jobs are dispatched
// before batch jobs regardless of arrival order; within a class the queue
// is FIFO.
type Priority string

// Priority classes, highest first.
const (
	PriorityInteractive Priority = "interactive"
	PriorityBatch       Priority = "batch"
)

// priorities lists the classes in dispatch order.
var priorities = []Priority{PriorityInteractive, PriorityBatch}

// ValidPriority reports whether p names a known class.
func ValidPriority(p Priority) bool {
	return p == PriorityInteractive || p == PriorityBatch
}

// Job is one unit of queued work. Fields are snapshots — the Manager hands
// out copies, never its internal record.
type Job struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	Priority Priority `json:"priority"`
	// Tenant attributes the submission for per-tenant fair admission; empty
	// is the shared anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Key is the content address of (Kind, Payload); identical submissions
	// share it, which is what makes the result cache correct.
	Key string `json:"key"`
	// Payload is the submitted work, kept only while the job is queued or
	// running: it is dropped when the job reaches a terminal state and never
	// kept for a cache hit.
	Payload json.RawMessage `json:"payload,omitempty"`
	State   State           `json:"state"`
	// Cached marks a submission answered from the result cache without
	// entering the queue.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts how many times a worker started the job; a job
	// re-queued by WAL recovery keeps its count, so "ran exactly once after
	// the restart" is observable as Attempts == priorAttempts+1.
	Attempts int             `json:"attempts,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`

	EnqueuedAt time.Time `json:"enqueuedAt"`
	StartedAt  time.Time `json:"startedAt,omitempty"`
	FinishedAt time.Time `json:"finishedAt,omitempty"`
}

// Wait returns how long the job sat queued before its (latest) start; zero
// until it starts.
func (j *Job) Wait() time.Duration {
	if j.StartedAt.IsZero() {
		return 0
	}
	return j.StartedAt.Sub(j.EnqueuedAt)
}

// Run returns the duration of the completed run; zero until the job
// finishes.
func (j *Job) Run() time.Duration {
	if j.StartedAt.IsZero() || j.FinishedAt.IsZero() {
		return 0
	}
	return j.FinishedAt.Sub(j.StartedAt)
}

// clone returns an independent copy safe to hand to callers.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// ContentKey computes the content address of a submission: a SHA-256 over
// the kind and the canonical payload bytes. Callers are responsible for
// canonicalizing the payload (e.g. re-marshaling a decoded request) so that
// semantically identical submissions collide.
func ContentKey(kind string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(payload)
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// Errors reported by the Manager.
var (
	// ErrQueueFull: admission control rejected the submission; retry later.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed: the manager is shutting down and accepts no new work.
	ErrClosed = errors.New("jobs: manager is closed")
	// ErrUnknownKind: no executor is registered for the submission's kind.
	ErrUnknownKind = errors.New("jobs: unknown job kind")
	// ErrNotFound: no job with the given ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrTerminal: the operation needs a live job but the job already
	// reached a terminal state.
	ErrTerminal = errors.New("jobs: job already terminal")
)

// Stats is a point-in-time summary of the manager, for logging, the HTTP
// surface and Retry-After estimation.
type Stats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Workers   int   `json:"workers"`
	Retained  int   `json:"retained"` // jobs held for status/result queries
	Submitted int64 `json:"submitted"`
	CacheHits int64 `json:"cacheHits"`
	Dropped   int64 `json:"dropped"` // queue-depth admission rejections
	// TenantRateLimited counts submissions rejected by per-tenant rate
	// limiting — a separate taxonomy from Dropped (queue-full).
	TenantRateLimited int64 `json:"tenantRateLimited,omitempty"`
	// Tenants is the number of distinct recently active tenants the
	// admission limiter tracks (0 when limiting is disabled).
	Tenants  int   `json:"tenants,omitempty"`
	Replayed int64 `json:"replayed"` // jobs re-queued by WAL recovery
}

// RetryAfter estimates how long a rejected submitter should wait before
// retrying: the queued backlog divided over the workers, floored at one
// second. It is an estimate, not a promise.
func (s Stats) RetryAfter() time.Duration {
	w := s.Workers
	if w < 1 {
		w = 1
	}
	secs := s.Queued / w
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// String renders the stats for log lines.
func (s Stats) String() string {
	return fmt.Sprintf("queued=%d running=%d workers=%d cacheHits=%d dropped=%d replayed=%d",
		s.Queued, s.Running, s.Workers, s.CacheHits, s.Dropped, s.Replayed)
}
