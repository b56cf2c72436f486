package jobs

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// FuzzWALRecovery writes arbitrary bytes as the write-ahead log and opens a
// manager on it. Open must return a manager or an error, never panic or
// hang, and a manager that opens must keep a job submitted afterwards
// across close and reopen.
func FuzzWALRecovery(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte(`{"op":"submit","job":{"id":"j1","kind":"k","state":"queued","priority":"batch","payload":{"n":1}}}` + "\n" +
		`{"op":"start","id":"j1"}` + "\n" +
		`{"op":"done","id":"j1","state":"succeeded","result":{"ok":true}}` + "\n"))
	f.Add([]byte(`{"op":"submit","job":{"id":"j2","kind":"k","state":"running","priority":"interactive","payload":{}}}` + "\n" +
		`{"op":"cancel","id":"j2"}` + "\n" + `{"op":"submit","job":{"id":"j3","ki`))
	// Recovered work the manager cannot run: a kind with no executor and a
	// priority class with no queue.
	f.Add([]byte(`{"op":"submit","job":{"id":"j4","kind":"gone","state":"queued","priority":"batch"}}` + "\n"))
	f.Add([]byte(`{"op":"submit","job":{"id":"j5","kind":"k","state":"queued","priority":"urgent"}}` + "\n"))
	f.Add([]byte("\n\n{}\nnot json\n"))

	execs := map[string]Executor{"k": func(context.Context, json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"ran":true}`), nil
	}}
	closeWithin := func(t *testing.T, m *Manager) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(Config{Dir: dir, Workers: 1}, execs)
		if err != nil {
			return
		}
		j, err := m.Submit(SubmitRequest{Kind: "k", Payload: json.RawMessage(`{"fuzz":1}`)})
		if err != nil {
			closeWithin(t, m)
			t.Fatalf("submit after recovery: %v", err)
		}
		closeWithin(t, m)
		m2, err := Open(Config{Dir: dir, Workers: 1}, execs)
		if err != nil {
			t.Fatalf("reopen after one submit: %v", err)
		}
		defer closeWithin(t, m2)
		got, err := m2.Get(j.ID)
		if err != nil {
			t.Fatalf("job submitted after recovery lost on reopen: %v", err)
		}
		if got.Kind != "k" {
			t.Fatalf("reopened job %s has kind %q, want k", got.ID, got.Kind)
		}
	})
}
