package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"cfsmdiag/internal/fault"
)

// boundedRun runs a workload in the count-bounded mode: every phase sends
// exactly n requests, one at a time.
func boundedRun(t *testing.T, workload string, n int, trace bool) *report {
	t.Helper()
	rep, err := workloads[workload](options{
		workload: workload, seed: 1, seconds: 1, trace: trace,
		fig1Rate: 1200, randRate: 45, requests: n, setupReps: 1, dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d\n%v", workload, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
	}
	return rep
}

var boundedRequests = map[string]int{"fig1-diagnose": 150, "rand-diagnose": 12, "rand-sweep": 3}

// TestDeterministicWorkCounts runs each workload twice at one seed and
// requires identical scraped work counts: oracle queries and inputs,
// localize rounds, escalations, simulator steps, interleavings, registry
// hits and misses, WAL records, cache hits and sweep outcome counts.
func TestDeterministicWorkCounts(t *testing.T) {
	for name, n := range boundedRequests {
		t.Run(name, func(t *testing.T) {
			a := boundedRun(t, name, n, false).counts
			b := boundedRun(t, name, n, false).counts
			if !reflect.DeepEqual(a, b) {
				t.Errorf("work counts differ between two runs at one seed:\n%v\n%v", a, b)
			}
			t.Logf("work counts: %v", a)
			if a["cfsmdiag_sim_steps_total"] == 0 {
				t.Errorf("no simulator steps counted: %v", a)
			}
		})
	}
}

// TestTracedReplayMatchesHTTP requires the traced replay to reach, for every
// replayed request, the verdict and test and input counts the HTTP answer
// carried, and its layer self-times to cover the traced wall time to within
// 5%.
func TestTracedReplayMatchesHTTP(t *testing.T) {
	for name, n := range boundedRequests {
		t.Run(name, func(t *testing.T) {
			rep := boundedRun(t, name, n, true)
			if rep.mismatches != 0 {
				t.Errorf("%d traced replays disagree with the HTTP answers", rep.mismatches)
			}
			if rep.coverage < 0.95 || rep.coverage > 1.0001 {
				t.Errorf("span self-times cover %.3f of the traced wall time", rep.coverage)
			}
			for _, m := range perLayer {
				if _, ok := rep.Metrics[m]; !ok {
					t.Errorf("per-layer metric %s missing", m)
				}
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
			}
		})
	}
}

// perLayer are the per-layer metric names BENCHMARK.json lists.
var perLayer = []string{
	"server.handler_mean_ms", "server.residual_ms", "server.registry_hit_ratio",
	"server.client_gap_ms", "loadgen.lag_p99_ms",
	"cfsm.parse_ms", "compiled.decode_ms", "compiled.compile_ms", "cfsm.sim_steps_per_req",
	"core.analyze_ms", "core.localize_self_ms", "core.rounds_per_req",
	"core.escalations_per_req", "core.tests_per_cleared",
	"oracle.suite_ms", "oracle.step6_ms", "oracle.queries_per_req", "oracle.inputs_per_req",
	"testgen.tour_ms",
	"ports.analyze_ms", "ports.localize_ms", "ports.interleavings_per_req", "ports.locally_ambiguous_frac",
	"sweep.mutant_mean_ms", "sweep.worker_busy_frac", "fault.enumerate_ms",
	"jobs.wait_mean_ms", "jobs.run_mean_ms", "jobs.wal_records_per_job", "jobs.cache_hit_ratio",
	"pipeline.allocs_per_req", "pipeline.bytes_per_req",
	"trace.coverage_frac", "trace.overhead_frac",
	"ports.diagnose_p50_ms", "ports.diagnose_p99_ms", "jobs.cached_p50_ms", "loadgen.tail_ms",
}

// TestCheckerRejectsWrongAnswers feeds the checker answers a broken
// diagnoser could give and requires each to fail.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	in, err := fig1Inputs(options{seed: 1, fig1Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(in)
	// IUT 0 is the paper's fault, t"4 transferring to s0.
	paperFault := in.iuts[0].fault.Describe(in.spec)
	var other string
	for _, f := range fault.Enumerate(in.spec) {
		if f.Ref != in.iuts[0].fault.Ref {
			other = f.Describe(in.spec)
			break
		}
	}
	answer := func(a diagnosisAnswer) []byte {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	global := in.variants[0]
	if err := chk.check(global, 200, answer(diagnosisAnswer{Verdict: verdictLocalized, Fault: paperFault})); err != nil {
		t.Fatalf("the paper's own diagnosis was rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		status int
		a      diagnosisAnswer
	}{
		"missed symptom":      {200, diagnosisAnswer{Verdict: verdictNoFault}},
		"wrong transition":    {200, diagnosisAnswer{Verdict: verdictLocalized, Fault: other}},
		"unknown fault":       {200, diagnosisAnswer{Verdict: verdictLocalized, Fault: "M9.t1 outputs z"}},
		"ambiguous w/o truth": {200, diagnosisAnswer{Verdict: verdictAmbiguous, Remaining: []string{other}}},
		"inconsistent":        {200, diagnosisAnswer{Verdict: "inconsistent with the single-transition fault model"}},
		"server error":        {500, diagnosisAnswer{Verdict: verdictLocalized, Fault: paperFault}},
	} {
		if err := chk.check(global, tc.status, answer(tc.a)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestExpectedTableMatchesSystemList pins the committed outcome table to the
// sweep's system list. The rand-sweep runs of the tests above compare the
// server's compiled sweeps with it.
func TestExpectedTableMatchesSystemList(t *testing.T) {
	rows, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != expectedSystems {
		t.Fatalf("table has %d rows, want %d", len(rows), expectedSystems)
	}
	for i := 0; i < expectedSystems; i++ {
		spec, err := sweepSystem(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(fault.Enumerate(spec)); rows[i].Mutants != got {
			t.Errorf("row %d: %d mutants, the system has %d", i, rows[i].Mutants, got)
		}
	}
	if rows[0].Mutants != 2965 {
		t.Errorf("system 0 has %d mutants, want 2965", rows[0].Mutants)
	}
}

// TestTimeBoundedRun drives the concurrent phases (open loop, closed loop,
// RSS sampler) for a moment; run it with -race.
func TestTimeBoundedRun(t *testing.T) {
	rep, err := workloads["fig1-diagnose"](options{
		workload: "fig1-diagnose", seed: 2, seconds: 1.5,
		fig1Rate: 500, randRate: 60, setupReps: 3, dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%v", rep.Correct, rep.Attempted, rep.Failed, rep.notes)
	}
	for _, m := range []string{"setup_s", "p50_ms", "throughput_per_s", "rss_mb"} {
		if v, ok := rep.Metrics[m]; !ok || v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want a positive value", m, v)
		}
	}
}
