package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
)

// FuzzJournalRecovery writes arbitrary bytes as the coordinator journal and
// opens a coordinator on it. Open must return a coordinator or an error,
// never panic or hang, and a coordinator that opens must keep a sweep
// created afterwards across close and reopen.
func FuzzJournalRecovery(f *testing.F) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	// Seed with a real journal: one sweep, one merged range.
	dir := f.TempDir()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	st, err := c.Create(spec, suite, Options{}, 50)
	if err != nil {
		f.Fatal(err)
	}
	lease, err := c.Lease(st.ID, "w")
	if err != nil {
		f.Fatal(err)
	}
	reports, err := experiments.RunSweepRange(context.Background(), spec, suite,
		experiments.SweepOptions{Workers: 1}, lease.Lo, lease.Hi)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := c.Report(st.ID, lease.Range, lease.Token, reports); err != nil {
		f.Fatal(err)
	}
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(journalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(append(real[:len(real):len(real)], `{"op":"result","sweep":"s1","ran`...))
	// A create record with no positive range width must be rejected, not
	// sharded forever.
	f.Add(bytes.Replace(real, []byte(`"rangeSize":50`), []byte(`"rangeSize":-1`), 1))
	f.Add(bytes.Replace(real, []byte(`,"rangeSize":50`), nil, 1))
	f.Add([]byte(`{"op":"result","sweep":"s9","range":3}` + "\n"))
	f.Add([]byte(`{"op":"create","sweep":"s1"}` + "\n"))
	f.Add([]byte("\n\n{}\nnot json\n"))

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cluster.jsonl"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(Config{Dir: dir})
		if err != nil {
			return
		}
		st, err := c.Create(spec, suite, Options{}, 50)
		if err != nil {
			c.Close()
			t.Fatalf("create after recovery: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after one create: %v", err)
		}
		defer c2.Close()
		got, err := c2.Get(st.ID)
		if err != nil {
			t.Fatalf("sweep created after recovery lost on reopen: %v", err)
		}
		if got.Ranges != st.Ranges || got.Mutants != st.Mutants {
			t.Fatalf("reopened sweep %+v, created %+v", got, st)
		}
	})
}
