package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

const phaseRepeat = 4

// sweepTail is rand-sweep's tail percentile (loadgen.tail_ms). A run sees a
// few dozen fresh jobs and reports on the calmest half of them (see
// segments), so p75 keeps about five beyond it.
const sweepTail = 0.75

// sweepSystem is rand-sweep's system i: N=4, States=6, ExtInputs=3, the
// other randgen settings at their defaults, randgen seed i+1 (system 0 has
// 2,965 single-transition mutants).
func sweepSystem(i int) (*cfsm.System, error) {
	cfg := randgen.DefaultConfig()
	cfg.N, cfg.States, cfg.ExtInputs = 4, 6, 3
	cfg.Seed = int64(i) + 1
	return randgen.Generate(cfg)
}

// sweepPool is how many systems every run draws its fresh jobs from, in a
// seeded order; a run that gets through the pool continues with systems
// beyond it. The pool is about one run's worth of fresh jobs, so runs at
// different seeds sweep nearly the same systems: sweep times differ by a
// third between systems, and a per-seed list made the median mostly a
// function of the list.
const sweepPool = 40

// sweepAnswer is the "sweep" job kind's result document.
type sweepAnswer struct {
	Mutants  int            `json:"mutants"`
	Detected int            `json:"detected"`
	Outcomes map[string]int `json:"outcomes"`
}

// jobRecord is one submission's outcome.
type jobRecord struct {
	system  int  // index into the seed's system list
	repeat  bool // the payload was submitted before
	cached  bool // the server answered from its result cache
	elapsed time.Duration
	steal   float64       // share of CPU time stolen from the machine during the job
	submit  time.Duration // POST /v1/jobs round trip
	state   string
	result  json.RawMessage
	err     error
}

// jobPayload is the POST /v1/jobs document for a sweep of spec with the
// suite omitted, so the server generates the transition tour.
func jobPayload(spec []byte, workers int) ([]byte, error) {
	return json.Marshal(map[string]any{
		"kind":    "sweep",
		"request": map[string]any{"spec": json.RawMessage(spec), "workers": workers},
	})
}

// runJob submits a job, waits for its terminal event on the SSE stream and
// fetches the result.
func (s *service) runJob(payload []byte) jobRecord {
	var rec jobRecord
	t0 := time.Now()
	status, body, err := s.post("/v1/jobs", payload)
	rec.submit = time.Since(t0)
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
		rec.err = fmt.Errorf("submit: HTTP %d %v: %.200s", status, err, body)
		return rec
	}
	var view struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	if err := s.awaitTerminal(view.ID); err != nil {
		rec.err = err
		return rec
	}
	status, body, err = s.get("/v1/jobs/" + view.ID + "/result")
	rec.elapsed = time.Since(t0)
	if err != nil || status != http.StatusOK {
		rec.err = fmt.Errorf("result: HTTP %d %v: %.200s", status, err, body)
		return rec
	}
	var res struct {
		State  string          `json:"state"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	rec.cached, rec.state, rec.result = res.Cached, res.State, res.Result
	return rec
}

// awaitTerminal reads the job's SSE stream until the terminal event.
func (s *service) awaitTerminal(id string) error {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Terminal bool `json:"terminal"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.Terminal {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events: stream for %s ended without a terminal event", id)
}

// sweepInputs is rand-sweep's list of fresh systems, generated on demand.
type sweepInputs struct {
	workers  int
	order    []int // system of each fresh job number within the pool
	systems  []*cfsm.System
	payloads [][]byte
	docs     [][]byte
}

// system is the system index of fresh job number f.
func (in *sweepInputs) system(f int) int {
	if f < len(in.order) {
		return in.order[f]
	}
	return f
}

// payload returns system j's job payload, generating systems up to j.
func (in *sweepInputs) payload(j int) ([]byte, error) {
	for len(in.payloads) <= j {
		sys, err := sweepSystem(len(in.systems))
		if err != nil {
			return nil, err
		}
		doc, err := sys.MarshalJSON()
		if err != nil {
			return nil, err
		}
		p, err := jobPayload(doc, in.workers)
		if err != nil {
			return nil, err
		}
		in.systems, in.docs, in.payloads = append(in.systems, sys), append(in.docs, doc), append(in.payloads, p)
	}
	return in.payloads[j], nil
}

// runSweep runs rand-sweep: a closed loop with one client submitting sweep
// jobs over fresh random systems; every third submission repeats an earlier
// payload, which the result cache answers.
func runSweep(o options) (*report, error) {
	rep := &report{}
	in := &sweepInputs{workers: runtime.NumCPU(), order: rand.New(rand.NewSource(o.seed)).Perm(sweepPool)}
	fig1, err := paper.MustFigure1().MarshalJSON()
	if err != nil {
		return nil, err
	}
	warmup, err := jobPayload(fig1, in.workers)
	if err != nil {
		return nil, err
	}
	// Generate the pool before set-up so its cost is not timed.
	if _, err := in.payload(sweepPool - 1); err != nil {
		return nil, err
	}
	svc, setup, err := timedSetup(o.dir, o.setupReps, func(s *service) error {
		rec := s.runJob(warmup)
		if rec.err == nil && rec.state != "succeeded" {
			rec.err = fmt.Errorf("warm-up sweep ended %s", rec.state)
		}
		return rec.err
	})
	if err != nil {
		return nil, err
	}
	defer svc.close()

	s0, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	var recs []jobRecord
	freshN := 0
	rss := sampleRSS()
	start := time.Now()
	for k := 0; ; k++ {
		if o.requests > 0 && k >= o.requests || o.requests == 0 && time.Since(start) >= time.Duration(o.seconds*float64(time.Second)) {
			break
		}
		idx, repeat := in.system(freshN), false
		if k%3 == 2 && freshN > 0 {
			idx, repeat = in.system(int(mix(o.seed, phaseRepeat, k)%uint64(freshN))), true
		}
		payload, err := in.payload(idx)
		if err != nil {
			return nil, err
		}
		if !repeat {
			freshN++
		}
		st := startSteal()
		rec := svc.runJob(payload)
		rec.steal = st()
		rec.system, rec.repeat = idx, repeat
		recs = append(recs, rec)
	}
	wall := time.Since(start)
	rssMB := rss()
	s1, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	rep.counts = workCounts(s0, s1)

	failed, rates, fresh, cached, err := checkSweeps(in, recs, rep)
	if err != nil {
		return nil, err
	}
	rep.phase("closed-loop", len(recs), failed, fmt.Sprintf("clients=1 workers=%d fresh=%d (calmest %d reported) repeats=%d wall=%.2fs", in.workers, freshN, len(fresh), len(cached), wall.Seconds()))
	rep.Correct = rep.Failed == 0

	if !o.trace {
		rep.set("setup_s", "s", setup)
		rep.set("p50_ms", "ms", 1000*median(fresh))
		rep.set("throughput_per_s", "1/s", median(rates))
		rep.set("rss_mb", "MB", rssMB)
		return rep, nil
	}

	jobsN := delta(s0, s1, "cfsmdiag_jobs_submitted_total")
	handler := meanMS(s0, s1, "cfsmdiag_http_request_duration_seconds", `route="/v1/jobs"`, `method="POST"`)
	var submits []float64
	for _, r := range recs {
		submits = append(submits, r.submit.Seconds()*1000)
	}
	rep.set("server.handler_mean_ms", "ms", handler)
	// The sweep runs on a job worker, not inside the submit handler: all of
	// the handler's time is request path.
	rep.set("server.residual_ms", "ms", handler)
	rep.set("server.client_gap_ms", "ms", mean(submits)-handler)
	rep.set("loadgen.lag_p99_ms", "ms", 0) // closed loop: nothing is due
	rep.set("loadgen.tail_ms", "ms", 1000*percentile(fresh, sweepTail))
	hits := delta(s0, s1, "cfsmdiag_model_registry_hits_total")
	rep.set("server.registry_hit_ratio", "ratio", ratio(hits, hits+delta(s0, s1, "cfsmdiag_model_registry_misses_total")))
	rep.set("cfsm.sim_steps_per_req", "count", ratio(delta(s0, s1, "cfsmdiag_sim_steps_total"), jobsN))
	rep.set("core.rounds_per_req", "count", ratio(delta(s0, s1, "cfsmdiag_localize_rounds_sum"), jobsN))
	rep.set("core.escalations_per_req", "count", ratio(delta(s0, s1, "cfsmdiag_localize_escalations_total"), jobsN))
	rep.set("sweep.mutant_mean_ms", "ms", meanMS(s0, s1, "cfsmdiag_sweep_mutant_seconds"))
	rep.set("jobs.wait_mean_ms", "ms", meanMS(s0, s1, "cfsmdiag_jobs_wait_seconds"))
	rep.set("jobs.run_mean_ms", "ms", meanMS(s0, s1, "cfsmdiag_jobs_run_seconds"))
	rep.set("jobs.wal_records_per_job", "count", ratio(delta(s0, s1, "cfsmdiag_jobs_wal_records_total"), jobsN))
	rep.set("jobs.cache_hit_ratio", "ratio", ratio(delta(s0, s1, "cfsmdiag_jobs_cache_hits_total"), jobsN))
	// Layers this workload does not reach: the per-mutant diagnoses run
	// inside the sweep, with no caller-supplied oracle to time.
	for _, name := range []string{"compiled.decode_ms", "core.analyze_ms", "core.localize_self_ms",
		"oracle.suite_ms", "oracle.step6_ms", "ports.analyze_ms", "ports.localize_ms"} {
		rep.set(name, "ms", 0)
	}
	for _, name := range []string{"oracle.queries_per_req", "oracle.inputs_per_req", "ports.interleavings_per_req"} {
		rep.set(name, "count", 0)
	}
	rep.set("core.tests_per_cleared", "ratio", 0)
	rep.set("ports.diagnose_p50_ms", "ms", 0)
	rep.set("ports.diagnose_p99_ms", "ms", 0)
	rep.set("jobs.cached_p50_ms", "ms", 1000*median(cached))
	rep.set("ports.locally_ambiguous_frac", "ratio", 0)
	return rep, traceSweeps(in, recs, rep)
}

// checkSweeps judges every job and returns the failure count, the mutants
// per second and times of the calmest half of the fresh jobs (those during
// which the least CPU time was stolen), and the cached jobs' times.
//
// A fresh job must report len(fault.Enumerate) mutants, the number the
// harness detects by plain simulation, and no inconsistent outcome; at the
// system the committed expected table covers, its outcome table must equal
// the table's row.
// A repeated submission must be answered from the result cache with the
// original's result.
func checkSweeps(in *sweepInputs, recs []jobRecord, rep *report) (failed int, rates, fresh, cached []float64, err error) {
	expected, err := loadExpected()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	// Ground truth for each distinct system, computed in parallel.
	truth := make(map[int]sweepAnswer)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	var firstErr error
	for _, r := range recs {
		if r.repeat {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			suite, _ := testgen.Tour(in.systems[i], 0)
			m, d, err := simulatedDetections(in.systems[i], suite)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			truth[i] = sweepAnswer{Mutants: m, Detected: d}
		}(r.system)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, nil, nil, nil, firstErr
	}
	original := map[int]json.RawMessage{}
	var steal []float64
	var freshRecs []jobRecord
	for _, r := range recs {
		if err := judgeSweep(r, truth[r.system], expected, original); err != nil {
			failed++
			rep.notef("wrong job answer (system %d): %v", r.system, err)
			continue
		}
		if r.repeat {
			cached = append(cached, r.elapsed.Seconds())
			continue
		}
		original[r.system] = r.result
		freshRecs = append(freshRecs, r)
		steal = append(steal, r.steal)
	}
	for _, i := range calmest(steal) {
		r := freshRecs[i]
		fresh = append(fresh, r.elapsed.Seconds())
		rates = append(rates, float64(truth[r.system].Mutants)/r.elapsed.Seconds())
	}
	return failed, rates, fresh, cached, nil
}

func judgeSweep(r jobRecord, truth sweepAnswer, expected map[int]expectedRow, original map[int]json.RawMessage) error {
	if r.err != nil {
		return r.err
	}
	if r.state != "succeeded" {
		return fmt.Errorf("job ended %s", r.state)
	}
	var got sweepAnswer
	if err := json.Unmarshal(r.result, &got); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if r.repeat {
		var first sweepAnswer
		if err := json.Unmarshal(original[r.system], &first); err != nil {
			return fmt.Errorf("repeat of a job that did not succeed")
		}
		if !r.cached {
			return fmt.Errorf("repeated payload was not answered from the result cache")
		}
		if !reflect.DeepEqual(got, first) {
			return fmt.Errorf("cached answer %+v differs from the original %+v", got, first)
		}
		return nil
	}
	if got.Mutants != truth.Mutants || got.Detected != truth.Detected {
		return fmt.Errorf("mutants/detected %d/%d, simulation says %d/%d", got.Mutants, got.Detected, truth.Mutants, truth.Detected)
	}
	if n := got.Outcomes["inconsistent"]; n > 0 {
		return fmt.Errorf("%d inconsistent outcomes", n)
	}
	if want, ok := expected[r.system]; ok {
		if want.Mutants != got.Mutants || want.Detected != got.Detected || !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
			return fmt.Errorf("outcome table %+v differs from the expected %+v", got, want)
		}
	}
	return nil
}

// sweepReplayJobs is how many fresh jobs the traced run replays.
const sweepReplayJobs = 2

// traceSweeps replays the first fresh jobs in-process: parse the inline
// spec, build the tour, run the sweep as the job executor does, and compare
// with the HTTP result.
func traceSweeps(in *sweepInputs, recs []jobRecord, rep *report) error {
	var jobs []jobRecord
	for _, r := range recs {
		if !r.repeat && r.err == nil && len(jobs) < sweepReplayJobs {
			jobs = append(jobs, r)
		}
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no successful sweep job to replay")
	}
	type sweepSpans struct {
		parse, tour, sweep, wall time.Duration
		busy                     float64 // worker-seconds spent on mutants
		mismatches               int
	}
	ctx := context.Background()
	replay := func(sp *sweepSpans) (time.Duration, error) {
		t0 := time.Now()
		for _, r := range jobs {
			j0 := time.Now()
			reg := obs.New()
			stage := func(into *time.Duration, fn func() error) error {
				if sp == nil {
					return fn()
				}
				t := time.Now()
				err := fn()
				*into += time.Since(t)
				return err
			}
			var spec *cfsm.System
			var suite []cfsm.TestCase
			var res experiments.SweepResult
			var sink sweepSpans
			acc := sp
			if acc == nil {
				acc = &sink
			}
			if err := stage(&acc.parse, func() (err error) { spec, err = cfsm.ParseSystem(in.docs[r.system]); return err }); err != nil {
				return 0, err
			}
			_ = stage(&acc.tour, func() error { suite, _ = testgen.Tour(spec, 0); return nil })
			if err := stage(&acc.sweep, func() (err error) {
				res, err = experiments.RunSweepContext(ctx, spec, suite, experiments.SweepOptions{Workers: in.workers, Registry: reg})
				return err
			}); err != nil {
				return 0, err
			}
			if sp == nil {
				continue
			}
			sp.wall += time.Since(j0)
			var buf strings.Builder
			if err := reg.WritePrometheus(&buf); err != nil {
				return 0, err
			}
			sc, err := parseScrape([]byte(buf.String()))
			if err != nil {
				return 0, err
			}
			sp.busy += sc.sum("cfsmdiag_sweep_mutant_seconds_sum")
			got := sweepAnswer{Mutants: len(res.Reports), Detected: res.Detected, Outcomes: map[string]int{}}
			for o, n := range res.Counts {
				got.Outcomes[o.String()] = n
			}
			var want sweepAnswer
			if json.Unmarshal(r.result, &want) != nil || !reflect.DeepEqual(got, want) {
				sp.mismatches++
			}
		}
		return time.Since(t0), nil
	}
	plain, err := replay(nil)
	if err != nil {
		return err
	}
	sp := &sweepSpans{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	traced, err := replay(sp)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	n := float64(len(jobs))
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	rep.set("cfsm.parse_ms", "ms", ms(sp.parse)/n)
	rep.set("testgen.tour_ms", "ms", ms(sp.tour)/n)
	rep.set("sweep.worker_busy_frac", "ratio", sp.busy/(float64(in.workers)*sp.sweep.Seconds()))
	rep.set("pipeline.allocs_per_req", "count", float64(after.Mallocs-before.Mallocs)/n)
	rep.set("pipeline.bytes_per_req", "B", float64(after.TotalAlloc-before.TotalAlloc)/n)
	rep.coverage = ratio((sp.parse + sp.tour + sp.sweep).Seconds(), sp.wall.Seconds())
	rep.set("trace.coverage_frac", "ratio", rep.coverage)
	rep.set("trace.overhead_frac", "ratio", traced.Seconds()/plain.Seconds()-1)
	if err := probes(in.systems[jobs[0].system], rep, false); err != nil {
		return err
	}
	rep.mismatches = sp.mismatches
	rep.notef("traced replay: %d sweep jobs, %d mismatches with the HTTP results, coverage %.3f", len(jobs), sp.mismatches, rep.coverage)
	if sp.mismatches > 0 {
		rep.Correct = false
	}
	return nil
}
