// Package jsonl is the append-only JSON-lines log behind the jobs WAL and
// the cluster journal: one record per line, replayed in file order on open,
// with a torn tail (a crash mid-append) cut off before anything new is
// appended.
package jsonl

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
)

// Open replays the log at path and returns it open for appending. Each
// non-empty line is handed to decode in file order; the first line decode
// rejects ends the replay, and it and everything after it are truncated
// away. Without the truncation the next appended record would join the torn
// bytes on one line, and the replay after that would stop there and lose it.
// A missing file is created empty.
func Open(path string, decode func(line []byte) error) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	intact, terminated, err := replay(f, decode)
	if err == nil {
		err = f.Truncate(intact)
	}
	if err == nil && !terminated {
		// The last intact record lost only its newline.
		_, err = f.Write([]byte{'\n'})
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// replay decodes lines until the first rejected one and returns the length
// of the intact prefix and whether that prefix ends in a newline.
func replay(r io.Reader, decode func([]byte) error) (intact int64, terminated bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	terminated = true
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			body := bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
			if len(body) > 0 && decode(body) != nil {
				return intact, terminated, nil
			}
			intact += int64(len(line))
			terminated = line[len(line)-1] == '\n'
		}
		if errors.Is(err, io.EOF) {
			return intact, terminated, nil
		}
		if err != nil {
			return 0, false, err
		}
	}
}
