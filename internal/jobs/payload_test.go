package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

// TestFinishedJobsKeepNoPayload: a job keeps its payload only while it is
// queued or running. Succeeded, failed, canceled (queued and running) and
// cached jobs list with none, in memory and after a restart from the WAL.
func TestFinishedJobsKeepNoPayload(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	exec := map[string]Executor{
		"echo": echoExec,
		"fail": func(context.Context, json.RawMessage) (json.RawMessage, error) {
			return nil, errors.New("boom")
		},
		"gated": func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			select {
			case <-gate:
				return payload, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	m, err := Open(Config{Workers: 1, Dir: dir}, exec)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(kind string, n int) *Job {
		t.Helper()
		j, err := m.Submit(SubmitRequest{Kind: kind, Payload: payloadN(n)})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, kind := range []string{"echo", "fail"} {
		submit(kind, 1)
	}
	waitIdle(t, m)
	cached := submit("echo", 1)
	if !cached.Cached {
		t.Fatal("duplicate echo submission was not a cache hit")
	}
	if cached.Payload != nil {
		t.Fatalf("cache hit kept payload %s", cached.Payload)
	}

	// One running and one queued job: both keep their payloads until they
	// are canceled.
	running := submit("gated", 2)
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gated job never started: %+v", m.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	queued := submit("gated", 3)
	for _, j := range m.List() {
		if (j.ID == running.ID || j.ID == queued.ID) && string(j.Payload) == "" {
			t.Fatalf("%s job %s lost its payload", j.State, j.ID)
		}
	}
	for _, j := range []*Job{queued, running} {
		if _, err := m.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitIdle(t, m)

	check := func(m *Manager, when string) {
		t.Helper()
		states := map[State]int{}
		for _, j := range m.List() {
			states[j.State]++
			if j.Payload != nil {
				t.Errorf("%s: %s job %s keeps payload %s", when, j.State, j.ID, j.Payload)
			}
		}
		want := map[State]int{StateSucceeded: 2, StateFailed: 1, StateCanceled: 2}
		for s, n := range want {
			if states[s] != n {
				t.Errorf("%s: %d %s jobs, want %d (%v)", when, states[s], s, n, states)
			}
		}
	}
	check(m, "live")
	closeNow(t, m)

	m2, err := Open(Config{Workers: 1, Dir: dir}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	check(m2, "recovered")
}

// TestRecoveredDoneRecordDropsPayload: a WAL holding a submit record with a
// payload and then the job's done record recovers the job with no payload
// and does not replay it.
func TestRecoveredDoneRecordDropsPayload(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC()
	j := &Job{ID: "j1", Kind: "count", Priority: PriorityBatch,
		Key: ContentKey("count", payloadN(1)), Payload: payloadN(1),
		State: StateQueued, EnqueuedAt: now}
	var wal []byte
	for _, rec := range []walRecord{
		{Op: opSubmit, Job: j},
		{Op: opStart, ID: "j1", At: now},
		{Op: opDone, ID: "j1", State: StateSucceeded, Result: json.RawMessage(`{"ran":1}`), At: now},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		wal = append(append(wal, line...), '\n')
	}
	if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	ce := newCountingExec()
	m, err := Open(Config{Workers: 1, Dir: dir}, map[string]Executor{"count": ce.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	if got := m.Stats().Replayed; got != 0 {
		t.Fatalf("replayed = %d, want 0 (the job finished before the restart)", got)
	}
	got, err := m.Get("j1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateSucceeded || string(got.Result) != `{"ran":1}` {
		t.Fatalf("recovered job = %s %s, want succeeded {\"ran\":1}", got.State, got.Result)
	}
	if got.Payload != nil {
		t.Fatalf("recovered finished job keeps payload %s", got.Payload)
	}
}
