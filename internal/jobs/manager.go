package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/trace"
)

// Executor runs one job kind. The payload is the canonical submission
// bytes; the returned bytes become the job's result. Executors must honor
// ctx — cancellation is how user cancels and shutdown kills reach a running
// job — and must be safe for concurrent use across workers.
type Executor func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

// Config tunes a Manager. The zero value is usable: GOMAXPROCS workers, a
// 1024-deep queue, a 1024-entry result cache, no durability, no telemetry.
type Config struct {
	// Workers is the worker-pool size. Values <= 0 fall back to
	// runtime.GOMAXPROCS(0) with a logged note — never zero workers.
	Workers int
	// QueueDepth caps queued (not running) jobs; submissions beyond it are
	// rejected with ErrQueueFull. <= 0 selects 1024.
	QueueDepth int
	// CacheSize caps the content-addressed result cache (FIFO eviction).
	// <= 0 selects 1024.
	CacheSize int
	// Dir enables durability: the WAL and snapshot live here. Empty runs
	// the queue in memory only.
	Dir string
	// SnapshotEvery compacts the WAL into a snapshot after this many
	// appended records. <= 0 selects 256.
	SnapshotEvery int
	// TenantRate enables per-tenant fair admission: each tenant's queue
	// admissions are metered by a token bucket refilled at this rate
	// (submissions per second). Submissions beyond the bucket are rejected
	// with ErrTenantRateLimited. <= 0 disables tenant limiting. Cache-hit
	// duplicates never consume tokens (see tenant.go).
	TenantRate float64
	// TenantBurst is each tenant bucket's capacity; <= 0 selects one
	// second's worth of TenantRate (minimum 1).
	TenantBurst int
	// Registry receives cfsmdiag_jobs_* metrics; nil disables.
	Registry *obs.Registry
	// Logger receives operational notes (worker fallback, recovery, drain);
	// nil disables.
	Logger *obs.Logger
	// Tracer receives job.* spans and events; nil disables.
	Tracer *trace.Tracer
}

// SubmitRequest is one unit of work offered to Submit. Payload must be
// canonical bytes (re-marshal decoded requests) so duplicate submissions
// share a ContentKey.
type SubmitRequest struct {
	Kind     string
	Priority Priority // empty selects PriorityBatch
	// Tenant attributes the submission for per-tenant fair admission and
	// metrics; empty is the shared anonymous tenant.
	Tenant  string
	Payload json.RawMessage
}

// Manager owns the queue, the worker pool, the durable store and the result
// cache. Construct with Open; always Close it (gracefully or not) so the
// WAL handle is released.
type Manager struct {
	workers       int
	queueDepth    int
	snapshotEvery int
	execs         map[string]Executor
	log           *obs.Logger
	tr            *trace.Tracer
	met           jobMetrics

	mu            sync.Mutex
	cond          *sync.Cond
	jobs          map[string]*Job
	queues        map[Priority][]string // job IDs, FIFO per class
	queued        int
	cancels       map[string]context.CancelFunc // running jobs
	requested     map[string]bool               // user-initiated cancels in flight
	events        map[string][]Event            // per-job lifecycle history
	subs          map[string][]*subscriber      // live Watch registrations
	limiter       *tenantLimiter                // nil = no per-tenant limiting
	cache         *resultCache
	st            *store
	nextID        int
	closing       bool // stop accepting and dispatching
	killed        bool // crash simulation: record nothing further
	submitted     int64
	cacheHits     int64
	dropped       int64
	tenantLimited int64
	replayed      int64
	wg            sync.WaitGroup
}

// Open builds a Manager with the given executors (keyed by job kind),
// recovers any persisted state when cfg.Dir is set, and starts the worker
// pool.
func Open(cfg Config, execs map[string]Executor) (*Manager, error) {
	if len(execs) == 0 {
		return nil, fmt.Errorf("jobs: no executors registered")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		cfg.Logger.Warn("jobs: non-positive worker count, falling back to GOMAXPROCS",
			"requested", cfg.Workers, "workers", workers)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 256
	}
	m := &Manager{
		workers:       workers,
		queueDepth:    cfg.QueueDepth,
		snapshotEvery: cfg.SnapshotEvery,
		execs:         execs,
		log:           cfg.Logger,
		tr:            cfg.Tracer,
		met:           newJobMetrics(cfg.Registry),
		jobs:          make(map[string]*Job),
		queues:        make(map[Priority][]string),
		cancels:       make(map[string]context.CancelFunc),
		requested:     make(map[string]bool),
		events:        make(map[string][]Event),
		subs:          make(map[string][]*subscriber),
		limiter:       newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		cache:         newResultCache(cfg.CacheSize),
		nextID:        1,
	}
	m.cond = sync.NewCond(&m.mu)
	RegisterMetrics(cfg.Registry)
	m.met.workers.Set(int64(workers))

	if cfg.Dir != "" {
		st, recovered, nextID, err := openStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.st = st
		m.nextID = nextID
		m.recover(recovered)
		// Compact immediately: recovery state becomes the snapshot, the WAL
		// restarts empty, and any torn tail from a crash is discarded.
		if err := st.snapshot(m.jobs, m.nextID); err != nil {
			st.close()
			return nil, err
		}
		m.met.snapshots.Inc()
	}

	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover installs persisted jobs: terminal jobs keep their results (and
// re-warm the cache), every accepted-but-unfinished job is re-queued to run
// exactly once.
func (m *Manager) recover(recovered map[string]*Job) {
	ids := make([]string, 0, len(recovered))
	for id := range recovered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return idNumber(ids[i]) < idNumber(ids[k]) })

	var warmed []*Job
	for _, id := range ids {
		j := recovered[id]
		m.jobs[id] = j
		if j.State.Terminal() {
			if j.State == StateSucceeded && j.Key != "" && len(j.Result) > 0 {
				warmed = append(warmed, j)
			}
			// Seed the event history with the terminal state so a watcher
			// subscribing after the restart still receives a terminal event.
			m.emitLocked(j, false)
			continue
		}
		// Work this manager cannot run — a kind with no executor (a restart
		// without it, or a corrupt log) or a priority class with no queue —
		// fails instead of reaching a worker.
		if m.execs[j.Kind] == nil || !ValidPriority(j.Priority) {
			j.State = StateFailed
			j.Error = fmt.Sprintf("jobs: recovered job of kind %q and priority %q cannot run", j.Kind, j.Priority)
			j.FinishedAt = time.Now()
			j.Payload = nil
			m.emitLocked(j, false)
			continue
		}
		// Queued or mid-run at the crash: back to the queue. The started-at
		// stamp belongs to the aborted run, so clear it.
		j.State = StateQueued
		j.StartedAt = time.Time{}
		m.pushLocked(j)
		m.replayed++
		m.met.replayed.Inc()
		m.tr.Emit(trace.KindJobReplay, trace.A("job", id), trace.A("kind", j.Kind))
		m.emitLocked(j, true)
	}
	sort.Slice(warmed, func(i, k int) bool { return warmed[i].FinishedAt.Before(warmed[k].FinishedAt) })
	for _, j := range warmed {
		m.cache.put(j.Key, j.Result)
	}
	if len(m.jobs) > 0 {
		m.log.Info("jobs: recovered persisted state",
			"jobs", len(m.jobs), "requeued", m.replayed, "cached", len(warmed))
	}
	m.met.queueDepth.Set(int64(m.queued))
}

// Workers returns the effective worker-pool size.
func (m *Manager) Workers() int { return m.workers }

// Submit accepts one job. Duplicate submissions whose result is cached
// return an already-succeeded job immediately; otherwise the job is queued
// (FIFO within its priority class) unless admission control rejects it.
func (m *Manager) Submit(req SubmitRequest) (*Job, error) {
	exec := m.execs[req.Kind]
	if exec == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownKind, req.Kind)
	}
	if req.Priority == "" {
		req.Priority = PriorityBatch
	}
	if !ValidPriority(req.Priority) {
		return nil, fmt.Errorf("jobs: unknown priority %q", req.Priority)
	}
	key := ContentKey(req.Kind, req.Payload)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return nil, ErrClosed
	}
	now := time.Now()
	j := &Job{
		Kind:       req.Kind,
		Priority:   req.Priority,
		Tenant:     req.Tenant,
		Key:        key,
		EnqueuedAt: now,
	}

	// A cache hit is finished on arrival and never keeps its payload: only
	// queued and running jobs need one (see recordDoneLocked).
	if result, ok := m.cache.get(key); ok {
		j.ID = m.issueIDLocked()
		j.State = StateSucceeded
		j.Cached = true
		j.Result = result
		j.FinishedAt = now
		m.jobs[j.ID] = j
		m.submitted++
		m.cacheHits++
		m.met.submitted(j.Kind, j.Priority, j.Tenant)
		m.met.cacheHits.Inc()
		m.tr.Emit(trace.KindJobCacheHit, trace.A("job", j.ID), trace.A("kind", j.Kind), trace.A("key", key))
		if err := m.appendLocked(walRecord{Op: opSubmit, Job: j}); err != nil {
			return nil, err
		}
		m.emitLocked(j, false)
		return j.clone(), nil
	}

	// Per-tenant fair admission before the shared queue-depth check: the
	// flooding tenant is told precisely that it is the flood (429 with the
	// tenant_rate_limited code), and its rejected submissions never count
	// against the shared depth other tenants admit into.
	if ok, wait := m.limiter.admit(req.Tenant, now); !ok {
		m.tenantLimited++
		m.met.tenantLimited(req.Tenant)
		m.met.tenants.Set(int64(m.limiter.size()))
		return nil, &RateLimitError{Tenant: req.Tenant, RetryAfter: wait}
	}
	m.met.tenants.Set(int64(m.limiter.size()))

	if m.queued >= m.queueDepth {
		m.dropped++
		m.met.dropped.Inc()
		return nil, fmt.Errorf("%w (%d queued, depth %d)", ErrQueueFull, m.queued, m.queueDepth)
	}

	j.ID = m.issueIDLocked()
	j.State = StateQueued
	j.Payload = append(json.RawMessage(nil), req.Payload...)
	// Install before appending: appendLocked may compact, and the snapshot
	// must already include this job once its submit record is gone.
	m.jobs[j.ID] = j
	if err := m.appendLocked(walRecord{Op: opSubmit, Job: j}); err != nil {
		delete(m.jobs, j.ID)
		return nil, err
	}
	m.pushLocked(j)
	m.submitted++
	m.met.submitted(j.Kind, j.Priority, j.Tenant)
	m.met.queueDepth.Set(int64(m.queued))
	m.tr.Emit(trace.KindJobSubmit,
		trace.A("job", j.ID), trace.A("kind", j.Kind),
		trace.A("priority", string(j.Priority)), trace.A("key", key))
	m.emitLocked(j, false)
	m.cond.Signal()
	return j.clone(), nil
}

func (m *Manager) issueIDLocked() string {
	id := "j" + strconv.Itoa(m.nextID)
	m.nextID++
	return id
}

func (m *Manager) pushLocked(j *Job) {
	m.queues[j.Priority] = append(m.queues[j.Priority], j.ID)
	m.queued++
}

// popLocked removes the next job to run: highest priority class first, FIFO
// within the class. Returns "" when nothing is queued.
func (m *Manager) popLocked() string {
	for _, p := range priorities {
		q := m.queues[p]
		if len(q) == 0 {
			continue
		}
		id := q[0]
		m.queues[p] = q[1:]
		m.queued--
		return id
	}
	return ""
}

// removeQueuedLocked deletes a specific job from its queue (user cancel).
func (m *Manager) removeQueuedLocked(j *Job) bool {
	q := m.queues[j.Priority]
	for i, id := range q {
		if id == j.ID {
			m.queues[j.Priority] = append(q[:i:i], q[i+1:]...)
			m.queued--
			m.met.queueDepth.Set(int64(m.queued))
			return true
		}
	}
	return false
}

// appendLocked writes one WAL record and compacts when due. A nil store
// (in-memory manager) is a no-op.
func (m *Manager) appendLocked(rec walRecord) error {
	if m.st == nil {
		return nil
	}
	if err := m.st.append(rec); err != nil {
		return err
	}
	m.met.walAppend()
	if m.st.shouldSnapshot(m.snapshotEvery) {
		if err := m.st.snapshot(m.jobs, m.nextID); err != nil {
			return err
		}
		m.met.snapshots.Inc()
	}
	return nil
}

// worker is one pool goroutine: wait for work, run it, record the outcome.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closing && m.queued == 0 {
			m.cond.Wait()
		}
		if m.closing {
			m.mu.Unlock()
			return
		}
		id := m.popLocked()
		j := m.jobs[id]
		j.State = StateRunning
		j.Attempts++
		j.StartedAt = time.Now()
		ctx, cancel := context.WithCancel(context.Background())
		m.cancels[id] = cancel
		if err := m.appendLocked(walRecord{Op: opStart, ID: id, At: j.StartedAt}); err != nil {
			m.log.Error("jobs: wal append failed", "job", id, "error", err.Error())
		}
		m.emitLocked(j, false)
		m.met.running.Inc()
		m.met.queueDepth.Set(int64(m.queued))
		exec := m.execs[j.Kind]
		payload := j.Payload
		span := m.tr.Begin(trace.KindJobRun,
			trace.A("job", id), trace.A("kind", j.Kind),
			trace.A("priority", string(j.Priority)),
			trace.A("attempt", strconv.Itoa(j.Attempts)))
		m.mu.Unlock()

		result, err := exec(ctx, payload)
		cancel()

		m.mu.Lock()
		delete(m.cancels, id)
		m.finishLocked(j, result, err)
		span.End(trace.A("state", string(j.State)))
		m.met.running.Dec()
		m.mu.Unlock()
	}
}

// finishLocked records a run's outcome. Shutdown-canceled runs are reverted
// to queued and deliberately NOT recorded: the WAL then holds a start with
// no done, which is exactly the state recovery re-queues.
func (m *Manager) finishLocked(j *Job, result json.RawMessage, err error) {
	if m.killed {
		return // crash simulation: the process is "gone"
	}
	canceled := err != nil && errors.Is(err, context.Canceled)
	switch {
	case canceled && m.requested[j.ID]:
		delete(m.requested, j.ID)
		j.State = StateCanceled
		j.FinishedAt = time.Now()
		m.recordDoneLocked(j)
	case canceled && m.closing:
		j.State = StateQueued
		j.StartedAt = time.Time{}
		// Watchers see the revert honestly: a queued event after running
		// means the run was aborted by shutdown and will replay.
		m.emitLocked(j, false)
	case err != nil:
		delete(m.requested, j.ID)
		j.State = StateFailed
		j.Error = err.Error()
		j.FinishedAt = time.Now()
		m.recordDoneLocked(j)
	default:
		delete(m.requested, j.ID)
		j.State = StateSucceeded
		j.Result = result
		j.FinishedAt = time.Now()
		m.cache.put(j.Key, result)
		m.recordDoneLocked(j)
	}
}

// recordDoneLocked records a terminal outcome. The job's payload is dropped
// first: job views never show it and WAL recovery replays only queued or
// running jobs, so a finished job has no further use for it (and a snapshot
// taken by this append carries none).
func (m *Manager) recordDoneLocked(j *Job) {
	j.Payload = nil
	if err := m.appendLocked(walRecord{
		Op: opDone, ID: j.ID, State: j.State,
		Result: j.Result, Error: j.Error, At: j.FinishedAt,
	}); err != nil {
		m.log.Error("jobs: wal append failed", "job", j.ID, "error", err.Error())
	}
	m.met.completed(j)
	m.emitLocked(j, false)
	m.cond.Broadcast() // wake WaitIdle-style waiters
}

// Get returns a snapshot of the job, or ErrNotFound.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.clone(), nil
}

// List returns snapshots of every retained job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.clone())
	}
	// Stable order regardless of map iteration: submit time first (what a
	// human reading the listing expects), id as the tiebreaker for jobs
	// accepted within the same clock tick.
	sort.Slice(out, func(i, k int) bool {
		if !out[i].EnqueuedAt.Equal(out[k].EnqueuedAt) {
			return out[i].EnqueuedAt.Before(out[k].EnqueuedAt)
		}
		return idNumber(out[i].ID) < idNumber(out[k].ID)
	})
	return out
}

// Cancel stops a job: a queued job becomes canceled immediately; a running
// job has its context canceled and reaches the canceled state when its
// executor returns. Terminal jobs answer ErrTerminal.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch j.State {
	case StateQueued:
		m.removeQueuedLocked(j)
		j.State = StateCanceled
		j.FinishedAt = time.Now()
		j.Payload = nil
		if err := m.appendLocked(walRecord{Op: opCancel, ID: id, At: j.FinishedAt}); err != nil {
			m.log.Error("jobs: wal append failed", "job", id, "error", err.Error())
		}
		m.met.completed(j)
		m.emitLocked(j, false)
		return j.clone(), nil
	case StateRunning:
		m.requested[id] = true
		if cancel := m.cancels[id]; cancel != nil {
			cancel()
		}
		return j.clone(), nil
	default:
		return j.clone(), fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.State)
	}
}

// Stats summarizes the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Queued:            m.queued,
		Running:           len(m.cancels),
		Workers:           m.workers,
		Retained:          len(m.jobs),
		Submitted:         m.submitted,
		CacheHits:         m.cacheHits,
		Dropped:           m.dropped,
		TenantRateLimited: m.tenantLimited,
		Tenants:           m.limiter.size(),
		Replayed:          m.replayed,
	}
}

// WaitIdle blocks until no job is queued or running (or ctx expires). It
// does not stop new submissions; callers coordinate that themselves.
func (m *Manager) WaitIdle(ctx context.Context) error {
	for {
		m.mu.Lock()
		idle := m.queued == 0 && len(m.cancels) == 0
		m.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Close drains the pool: no new submissions are accepted, no queued job is
// dispatched, and in-flight jobs run to completion — until ctx expires, at
// which point running jobs are canceled and reverted to queued. Queued jobs
// persist in the final snapshot (when durable) and replay on the next Open.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	stats := m.statsLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
	m.log.Info("jobs: draining", "queued", stats.Queued, "running", stats.Running)

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	drained := true
	select {
	case <-done:
	case <-ctx.Done():
		drained = false
		m.mu.Lock()
		for _, cancel := range m.cancels {
			cancel()
		}
		m.mu.Unlock()
		<-done
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.closeSubsLocked()
	var err error
	if m.st != nil && !m.killed {
		if serr := m.st.snapshot(m.jobs, m.nextID); serr != nil {
			err = serr
		} else {
			m.met.snapshots.Inc()
		}
		if cerr := m.st.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	m.tr.Emit(trace.KindJobDrain,
		trace.A("drained", strconv.FormatBool(drained)),
		trace.A("queued", strconv.Itoa(m.queued)))
	m.log.Info("jobs: drain complete", "drained", drained, "queued", m.queued)
	return err
}

// statsLocked is Stats without taking the lock.
func (m *Manager) statsLocked() Stats {
	return Stats{Queued: m.queued, Running: len(m.cancels), Workers: m.workers}
}

// kill simulates a process crash for tests: cancel everything, record
// nothing, close the WAL without the final snapshot.
func (m *Manager) kill() {
	m.mu.Lock()
	m.killed = true
	m.closing = true
	m.cond.Broadcast()
	for _, cancel := range m.cancels {
		cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	m.closeSubsLocked()
	if m.st != nil {
		m.st.close()
	}
	m.mu.Unlock()
}

// resultCache is the content-addressed result store: key -> result bytes,
// FIFO-evicted at capacity.
type resultCache struct {
	cap   int
	m     map[string]json.RawMessage
	order []string
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[string]json.RawMessage)}
}

func (c *resultCache) get(key string) (json.RawMessage, bool) {
	r, ok := c.m[key]
	return r, ok
}

func (c *resultCache) put(key string, result json.RawMessage) {
	if _, ok := c.m[key]; ok {
		c.m[key] = result
		return
	}
	c.m[key] = result
	c.order = append(c.order, key)
	for len(c.order) > c.cap {
		delete(c.m, c.order[0])
		c.order = c.order[1:]
	}
}
