package jsonl

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// reopen opens the log, appends rec, closes it, and returns every record a
// second open replays.
func reopen(t *testing.T, path, rec string) []string {
	t.Helper()
	var got []string
	decode := func(line []byte) error {
		var v json.RawMessage
		if err := json.Unmarshal(line, &v); err != nil {
			return err
		}
		got = append(got, string(v))
		return nil
	}
	f, err := Open(path, decode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(rec + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	if f, err = Open(path, decode); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return got
}

// TestOpenCutsTornTail: the torn bytes after the last intact record are
// truncated, so a record appended after recovery replays on its own line.
func TestOpenCutsTornTail(t *testing.T) {
	for _, tc := range []struct {
		name, log string
		want      []string
	}{
		{"empty", "", []string{`{"n":3}`}},
		{"torn tail", "{\"n\":1}\n{\"n\":2}\n{\"n\":", []string{`{"n":1}`, `{"n":2}`, `{"n":3}`}},
		{"bad middle line", "{\"n\":1}\nnot json\n{\"n\":2}\n", []string{`{"n":1}`, `{"n":3}`}},
		{"blank lines", "\n{\"n\":1}\r\n\n", []string{`{"n":1}`, `{"n":3}`}},
		{"intact record missing its newline", "{\"n\":1}\n{\"n\":2}", []string{`{"n":1}`, `{"n":2}`, `{"n":3}`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := reopen(t, path, `{"n":3}`); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("replayed %q, want %q", got, tc.want)
			}
		})
	}
}
