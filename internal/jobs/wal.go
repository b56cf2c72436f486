package jobs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The durable store is a classic snapshot + write-ahead-log pair:
//
//	dir/snapshot.json  full state at the last compaction (jobs + id counter)
//	dir/wal.jsonl      one JSON record per state change since the snapshot
//
// Every mutation appends a walRecord; every SnapshotEvery records the state
// is re-written as a fresh snapshot and the log truncated, bounding both
// recovery time and disk growth. Appends go straight to the OS (surviving a
// process kill); the snapshot rename is the only fsync point, which trades
// strict power-loss durability for queue throughput — the right trade for a
// diagnosis cache, and documented so operators know.

// WAL operation names.
const (
	opSubmit = "submit"
	opStart  = "start"
	opDone   = "done"
	opCancel = "cancel"
)

// walRecord is one append-only log entry. Submit carries the full job (for
// cache hits the job is already terminal, result included); the other ops
// patch the job by ID.
type walRecord struct {
	Op     string          `json:"op"`
	Job    *Job            `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	State  State           `json:"state,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	At     time.Time       `json:"at,omitempty"`
}

// snapshotDoc is the compacted on-disk state.
type snapshotDoc struct {
	// NextID is the first unissued numeric job-ID suffix.
	NextID int    `json:"nextId"`
	Jobs   []*Job `json:"jobs"`
}

// store owns the two files. All methods are called with the Manager's lock
// held, so the store itself needs no locking.
type store struct {
	dir     string
	wal     *os.File
	records int // records appended since the last snapshot
}

func walPath(dir string) string      { return filepath.Join(dir, "wal.jsonl") }
func snapshotPath(dir string) string { return filepath.Join(dir, "snapshot.json") }

// openStore loads the persisted state (snapshot, then WAL replay) and leaves
// the WAL open for appending. It returns the recovered jobs keyed by ID and
// the next ID counter. Unparseable trailing WAL lines — the signature of a
// crash mid-append — are tolerated: replay stops at the first bad line and
// reports how many records it kept.
func openStore(dir string) (*store, map[string]*Job, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: create store dir: %w", err)
	}
	jobs := make(map[string]*Job)
	nextID := 1

	if data, err := os.ReadFile(snapshotPath(dir)); err == nil {
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, 0, fmt.Errorf("jobs: corrupt snapshot %s: %w", snapshotPath(dir), err)
		}
		for _, j := range doc.Jobs {
			jobs[j.ID] = j
		}
		if doc.NextID > nextID {
			nextID = doc.NextID
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("jobs: read snapshot: %w", err)
	}

	if f, err := os.Open(walPath(dir)); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec walRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break // torn tail write; everything before it is intact
			}
			applyRecord(jobs, rec)
		}
		f.Close()
		if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
			return nil, nil, 0, fmt.Errorf("jobs: read wal: %w", err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, fmt.Errorf("jobs: open wal: %w", err)
	}

	for id := range jobs {
		if n := idNumber(id); n >= nextID {
			nextID = n + 1
		}
	}

	wal, err := os.OpenFile(walPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: open wal for append: %w", err)
	}
	return &store{dir: dir, wal: wal}, jobs, nextID, nil
}

// applyRecord folds one WAL record into the recovered state.
func applyRecord(jobs map[string]*Job, rec walRecord) {
	switch rec.Op {
	case opSubmit:
		if rec.Job != nil {
			jobs[rec.Job.ID] = rec.Job
		}
	case opStart:
		if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
			j.State = StateRunning
			j.Attempts++
			j.StartedAt = rec.At
		}
	case opDone:
		if j, ok := jobs[rec.ID]; ok {
			j.State = rec.State
			j.Result = rec.Result
			j.Error = rec.Error
			j.FinishedAt = rec.At
			j.Payload = nil
		}
	case opCancel:
		if j, ok := jobs[rec.ID]; ok && !j.State.Terminal() {
			j.State = StateCanceled
			j.FinishedAt = rec.At
			j.Payload = nil
		}
	}
}

// idNumber extracts the numeric suffix of a job ID ("j42" -> 42; 0 when the
// ID is foreign).
func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

// append writes one record. The caller decides when to compact via
// shouldSnapshot.
func (s *store) append(rec walRecord) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode wal record: %w", err)
	}
	data = append(data, '\n')
	if _, err := s.wal.Write(data); err != nil {
		return fmt.Errorf("jobs: append wal: %w", err)
	}
	s.records++
	return nil
}

// shouldSnapshot reports whether the append count has reached the
// compaction threshold.
func (s *store) shouldSnapshot(every int) bool {
	return s != nil && s.records >= every
}

// snapshot writes the full state atomically (tmp + fsync + rename) and
// truncates the WAL.
func (s *store) snapshot(jobs map[string]*Job, nextID int) error {
	if s == nil {
		return nil
	}
	doc := snapshotDoc{NextID: nextID, Jobs: make([]*Job, 0, len(jobs))}
	for _, j := range jobs {
		doc.Jobs = append(doc.Jobs, j)
	}
	sort.Slice(doc.Jobs, func(i, k int) bool {
		return idNumber(doc.Jobs[i].ID) < idNumber(doc.Jobs[k].ID)
	})
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("jobs: encode snapshot: %w", err)
	}
	tmp := snapshotPath(s.dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("jobs: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("jobs: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobs: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapshotPath(s.dir)); err != nil {
		return fmt.Errorf("jobs: install snapshot: %w", err)
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("jobs: truncate wal: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("jobs: rewind wal: %w", err)
	}
	s.records = 0
	return nil
}

// close releases the WAL handle without compacting (crash-equivalent if the
// caller skipped the final snapshot).
func (s *store) close() error {
	if s == nil {
		return nil
	}
	return s.wal.Close()
}
