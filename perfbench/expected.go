package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

// expectedSweep is rand-sweep's outcome table, produced once with the
// interpreted reference engine by
//
//	perfbench --write-expected perfbench/expected_sweep.json
//
// It covers the first expectedSystems systems of the pool; an interpreted
// sweep of one takes about a minute on 2 CPUs, so the table stops there.
//
//go:embed expected_sweep.json
var expectedSweep []byte

const expectedSystems = 16

type expectedRow struct {
	Index       int            `json:"index"`
	RandgenSeed int64          `json:"randgenSeed"`
	Mutants     int            `json:"mutants"`
	Detected    int            `json:"detected"`
	Outcomes    map[string]int `json:"outcomes"`
}

type expectedTable struct {
	Engine  string        `json:"engine"`
	Systems []expectedRow `json:"systems"`
}

// loadExpected returns the committed rows by system index.
func loadExpected() (map[int]expectedRow, error) {
	rows := map[int]expectedRow{}
	var t expectedTable
	if err := json.Unmarshal(expectedSweep, &t); err != nil {
		return nil, fmt.Errorf("expected_sweep.json: %w", err)
	}
	for _, r := range t.Systems {
		rows[r.Index] = r
	}
	return rows, nil
}

// writeExpected regenerates the table with the interpreted sweep, the
// reference path the compiled engine is pinned to.
func writeExpected(path string, n int) error {
	t := expectedTable{Engine: "interpreted"}
	for i := 0; i < n; i++ {
		spec, err := sweepSystem(i)
		if err != nil {
			return err
		}
		suite, _ := testgen.Tour(spec, 0)
		res, err := experiments.RunSweepContext(context.Background(), spec, suite, experiments.SweepOptions{Interpreted: true})
		if err != nil {
			return err
		}
		row := expectedRow{Index: i, RandgenSeed: int64(i) + 1, Mutants: len(fault.Enumerate(spec)), Detected: res.Detected, Outcomes: map[string]int{}}
		for o, c := range res.Counts {
			row.Outcomes[o.String()] = c
		}
		t.Systems = append(t.Systems, row)
		fmt.Fprintf(os.Stderr, "system %d: %d mutants\n", i, row.Mutants)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
