package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/jobs"
	"cfsmdiag/internal/obs"
)

// newStreamHarness builds a jobs manager with controllable executors behind
// the full route surface (including the stream-aware events route), exactly
// as NewService mounts it.
func newStreamHarness(t *testing.T, jcfg jobs.Config, execs map[string]jobs.Executor) (*jobs.Manager, *httptest.Server, *obs.Registry) {
	t.Helper()
	cfg := Config{RequestTimeout: 2 * time.Second}.withDefaults()
	s := &api{cfg: cfg, m: newHTTPMetrics(cfg.Registry), sse: newSSEMetrics(cfg.Registry)}
	jcfg.Registry = cfg.Registry
	mgr, err := jobs.Open(jcfg, execs)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", s.wrap("/v1/jobs", s.handleJobs(mgr)))
	jobH := s.wrap("/v1/jobs/{id}", s.handleJob(mgr))
	eventsH := s.wrapStream("/v1/jobs/{id}/events", s.handleJob(mgr))
	mux.Handle("/v1/jobs/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			eventsH.ServeHTTP(w, r)
			return
		}
		jobH.ServeHTTP(w, r)
	}))
	mux.Handle("/metrics", s.wrap("/metrics", s.handleMetrics))
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	})
	return mgr, srv, cfg.Registry
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int
	event string
	data  jobs.Event
}

// openSSE connects to the events route with the stream Accept header.
func openSSE(t *testing.T, srv *httptest.Server, id string, lastEventID int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("open SSE: %v", err)
	}
	return resp
}

// readFrames parses SSE frames (skipping heartbeat comments and the retry
// prelude) until the stream closes or a terminal event arrives.
func readFrames(t *testing.T, body io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var sawData bool
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if sawData {
				frames = append(frames, cur)
				if cur.data.Terminal {
					return frames
				}
				cur, sawData = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "retry:"):
		case strings.HasPrefix(line, "id:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("id:"):]))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event:"):
			cur.event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			if err := json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
			sawData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func submitJob(t *testing.T, srv *httptest.Server, kind, tenant, payload string) (jobView, *http.Response, []byte) {
	t.Helper()
	resp, body := post(t, srv, "/v1/jobs", jobSubmitRequest{
		Kind: kind, Tenant: tenant, Request: json.RawMessage(payload)})
	var v jobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("decode submit response: %v: %s", err, body)
		}
	}
	return v, resp, body
}

// gatedExec blocks until the gate closes (or the context cancels).
func gatedExec(gate chan struct{}) jobs.Executor {
	return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		select {
		case <-gate:
			return payload, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestSSEStreamLifecycleMatchesFinalState is the replay-consistency
// acceptance check over HTTP: an SSE consumer that reads the stream to its
// terminal event has seen contiguous sequence numbers whose last state
// equals the job's final status from GET /v1/jobs/{id}.
func TestSSEStreamLifecycleMatchesFinalState(t *testing.T) {
	gate := make(chan struct{})
	_, srv, _ := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"gated": gatedExec(gate)})

	v, resp, body := submitJob(t, srv, "gated", "", `{"x":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	stream := openSSE(t, srv, v.ID, 0)
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	close(gate)
	frames := readFrames(t, stream.Body)
	if len(frames) < 3 {
		t.Fatalf("got %d frames, want queued/running/succeeded: %+v", len(frames), frames)
	}
	for i, f := range frames {
		if f.id != i+1 || f.data.Seq != i+1 {
			t.Fatalf("frame %d: id=%d seq=%d, want contiguous from 1", i, f.id, f.data.Seq)
		}
		if f.event != string(f.data.State) {
			t.Fatalf("frame %d: event field %q != data state %q", i, f.event, f.data.State)
		}
	}
	last := frames[len(frames)-1]
	if !last.data.Terminal {
		t.Fatalf("stream ended without terminal frame: %+v", frames)
	}
	final := pollJob(t, srv, v.ID)
	if final.State != string(last.data.State) {
		t.Fatalf("stream terminal %s disagrees with status %s", last.data.State, final.State)
	}
}

// TestSSECancelDeliversTerminal: canceling a running job ends every SSE
// stream with a canceled terminal frame.
func TestSSECancelDeliversTerminal(t *testing.T) {
	started := make(chan struct{})
	exec := func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, srv, _ := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"block": exec})

	v, resp, body := submitJob(t, srv, "block", "", `1`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	stream := openSSE(t, srv, v.ID, 0)
	defer stream.Body.Close()
	<-started
	if resp, body := post(t, srv, "/v1/jobs/"+v.ID+"/cancel", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d: %s", resp.StatusCode, body)
	}
	frames := readFrames(t, stream.Body)
	if len(frames) == 0 {
		t.Fatal("no frames before cancel's terminal event")
	}
	last := frames[len(frames)-1]
	if !last.data.Terminal || last.data.State != jobs.StateCanceled {
		t.Fatalf("last frame = %+v, want terminal canceled", last)
	}
}

// TestSSEResumeWithLastEventID: a reconnect carrying Last-Event-ID skips the
// frames the client already consumed.
func TestSSEResumeWithLastEventID(t *testing.T) {
	_, srv, _ := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"echo": echoJSONExec})

	v, resp, body := submitJob(t, srv, "echo", "", `5`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	pollJob(t, srv, v.ID)

	full := openSSE(t, srv, v.ID, 0)
	frames := readFrames(t, full.Body)
	full.Body.Close()
	if len(frames) < 2 {
		t.Fatalf("full stream has %d frames", len(frames))
	}
	resumed := openSSE(t, srv, v.ID, frames[0].id)
	tail := readFrames(t, resumed.Body)
	resumed.Body.Close()
	if len(tail) != len(frames)-1 || tail[0].data.Seq != frames[0].id+1 {
		t.Fatalf("resume after seq %d: got %+v", frames[0].id, tail)
	}
}

// echoJSONExec returns the payload (package-level so tests can share it).
func echoJSONExec(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
	return payload, nil
}

// TestSSEConcurrentSubscribersAndDisconnectNoLeak: several concurrent SSE
// consumers all reach the terminal frame, a consumer that disconnects
// mid-stream does not leak its handler goroutine, and the stream gauge
// returns to zero.
func TestSSEConcurrentSubscribersAndDisconnectNoLeak(t *testing.T) {
	gate := make(chan struct{})
	_, srv, reg := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"gated": gatedExec(gate)})

	before := runtime.NumGoroutine()

	v, resp, body := submitJob(t, srv, "gated", "", `{"y":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}

	// One subscriber disconnects mid-stream...
	quitter := openSSE(t, srv, v.ID, 0)
	quitter.Body.Close()

	// ...while the rest consume to the terminal frame.
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := openSSE(t, srv, v.ID, 0)
			defer stream.Body.Close()
			frames := readFrames(t, stream.Body)
			if len(frames) == 0 || !frames[len(frames)-1].data.Terminal {
				errs <- fmt.Errorf("stream ended without terminal frame (%d frames)", len(frames))
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the subscribers attach
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The disconnected handler and all finished streams must unwind. Allow
	// the runtime a moment to reap them. The gauge is polled inside the same
	// deadline: the goroutine slack below can hide a disconnected handler
	// that is still unwinding when the goroutine count first drops.
	g := reg.Gauge(metricSSEStreams, "")
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Idle keep-alive connections in the shared transport hold two
		// goroutines each; drop them so only genuine leaks remain.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 && g.Value() == 0 { // slack for httptest's own pool
			break
		}
		if time.Now().After(deadline) {
			if g.Value() != 0 {
				t.Fatalf("stream gauge = %d after all streams ended, want 0", g.Value())
			}
			t.Fatalf("goroutines: before=%d after=%d — stream handlers leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if c := reg.Counter(metricSSEStreamsServed, ""); c.Value() == 0 {
		t.Fatal("streams-served counter never incremented")
	}
}

// TestSSEHeartbeatsKeepIdleStreamAlive: with a short heartbeat interval an
// idle stream (job gated, no transitions) receives comment lines, and the
// heartbeat counter moves.
func TestSSEHeartbeatsKeepIdleStreamAlive(t *testing.T) {
	old := sseHeartbeatInterval
	sseHeartbeatInterval = 10 * time.Millisecond
	defer func() { sseHeartbeatInterval = old }()

	gate := make(chan struct{})
	defer close(gate)
	_, srv, reg := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"gated": gatedExec(gate)})

	v, resp, body := submitJob(t, srv, "gated", "", `{"z":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	stream := openSSE(t, srv, v.ID, 0)
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	deadline := time.Now().Add(10 * time.Second)
	heartbeats := 0
	for heartbeats < 3 && sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": heartbeat") {
			heartbeats++
		}
		if time.Now().After(deadline) {
			break
		}
	}
	if heartbeats < 3 {
		t.Fatalf("saw %d heartbeats, want >= 3", heartbeats)
	}
	if c := reg.Counter(metricSSEHeartbeats, ""); c.Value() == 0 {
		t.Fatal("heartbeat counter never moved")
	}
}

// TestLongPollAndSnapshotModes: the JSON modes of the events route — an
// immediate snapshot, a long-poll that blocks until the first event, and the
// error taxonomy for bad parameters and unknown jobs.
func TestLongPollAndSnapshotModes(t *testing.T) {
	gate := make(chan struct{})
	_, srv, _ := newStreamHarness(t, jobs.Config{Workers: 1},
		map[string]jobs.Executor{"gated": gatedExec(gate)})

	v, resp, body := submitJob(t, srv, "gated", "", `{"p":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}

	// Snapshot mode: at least the queued event exists immediately.
	var snap struct {
		Events []jobs.Event `json:"events"`
	}
	resp, body = get(t, srv, "/v1/jobs/"+v.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) == 0 || snap.Events[0].State != jobs.StateQueued {
		t.Fatalf("snapshot events = %+v, want leading queued", snap.Events)
	}

	// Long-poll from the current frontier blocks until the job finishes.
	type pollResult struct {
		events []jobs.Event
		err    error
	}
	frontier := len(snap.Events)
	// The job may already be running (seq 2 recorded); poll after whatever
	// the snapshot showed.
	done := make(chan pollResult, 1)
	go func() {
		resp, body := get(t, srv, fmt.Sprintf("/v1/jobs/%s/events?wait=30s&after=%d", v.ID, frontier))
		var out struct {
			Events []jobs.Event `json:"events"`
		}
		if resp.StatusCode != http.StatusOK {
			done <- pollResult{err: fmt.Errorf("long poll: %d: %s", resp.StatusCode, body)}
			return
		}
		done <- pollResult{events: out.Events, err: json.Unmarshal(body, &out)}
	}()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}

	// A poll after the terminal seq returns an empty list once the wait
	// elapses (no further events will ever come).
	var full struct {
		Events []jobs.Event `json:"events"`
	}
	if err := json.Unmarshal(allEvents(t, srv, v.ID), &full); err != nil {
		t.Fatal(err)
	}
	lastSeq := full.Events[len(full.Events)-1].Seq
	if !full.Events[len(full.Events)-1].Terminal {
		t.Fatalf("final snapshot does not end terminal: %+v", full.Events)
	}
	resp, body = get(t, srv, fmt.Sprintf("/v1/jobs/%s/events?wait=10ms&after=%d", v.ID, lastSeq))
	var empty struct {
		Events []jobs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Events) != 0 {
		t.Fatalf("poll past terminal returned %+v", empty.Events)
	}

	// Error taxonomy.
	resp, body = get(t, srv, "/v1/jobs/j999/events")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv, "/v1/jobs/"+v.ID+"/events?after=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad after: %d: %s", resp.StatusCode, body)
	}
	resp, body = get(t, srv, "/v1/jobs/"+v.ID+"/events?wait=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: %d: %s", resp.StatusCode, body)
	}
}

// allEvents fetches the full event snapshot body.
func allEvents(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, body := get(t, srv, "/v1/jobs/"+id+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestTenantRateLimited429Taxonomy: per-tenant rejections answer 429 with
// the tenant_rate_limited code and a Retry-After header, other tenants keep
// submitting, and the rejection counts separately from queue-full drops.
func TestTenantRateLimited429Taxonomy(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	mgr, srv, reg := newStreamHarness(t,
		jobs.Config{Workers: 1, QueueDepth: 100, TenantRate: 0.001, TenantBurst: 2},
		map[string]jobs.Executor{"gated": gatedExec(gate)})

	for i := 0; i < 2; i++ {
		_, resp, body := submitJob(t, srv, "gated", "noisy", fmt.Sprintf(`{"i":%d}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("in-burst submit %d: %d: %s", i, resp.StatusCode, body)
		}
	}
	_, resp, body := submitJob(t, srv, "gated", "noisy", `{"i":99}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeTenantRateLimited {
		t.Fatalf("over-burst code = %s, want %s", env.Error.Code, codeTenantRateLimited)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("tenant 429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", ra)
	}

	// The victim tenant still submits.
	_, resp, body = submitJob(t, srv, "gated", "victim", `{"v":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim submit: %d: %s", resp.StatusCode, body)
	}

	st := mgr.Stats()
	if st.TenantRateLimited == 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want tenant rejections separate from drops", st)
	}
	// The taxonomy reaches /metrics as its own family.
	_, body = get(t, srv, "/metrics")
	if !strings.Contains(string(body), metricTenantLimitedFamily) {
		t.Errorf("/metrics missing %s", metricTenantLimitedFamily)
	}
	_ = reg
}

// metricTenantLimitedFamily mirrors the jobs-package constant (unexported
// there) for the exposition check.
const metricTenantLimitedFamily = "cfsmdiag_jobs_tenant_rate_limited_total"
