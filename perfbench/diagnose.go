package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Phase numbers seed the request draws of each phase independently.
const (
	phaseOpen   = 1
	phaseClosed = 2
	phaseWarmup = 3
)

// warmup is how long a diagnose run loads the service, untimed, before its
// first segment, so that connections, caches and the heap have settled.
const warmup = time.Second

// segments is how many open-loop/closed-loop cycles a diagnose run makes.
// Each end-to-end figure is the median over the calmest half of them: the
// segments during which the hypervisor stole the least CPU time from this
// machine (steal moved the median latency by 2x on a shared 2-CPU host).
const segments = 9

// answers interns response bodies: identical answers share one id, so a run
// of tens of thousands of requests keeps a few hundred bodies and the
// checker judges each distinct (variant, answer) pair once.
type answers struct {
	mu     sync.Mutex
	ids    map[string]int
	bodies [][]byte
}

func (a *answers) intern(body []byte) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.ids[string(body)]; ok {
		return id
	}
	if a.ids == nil {
		a.ids = map[string]int{}
	}
	a.ids[string(body)] = len(a.bodies)
	a.bodies = append(a.bodies, body)
	return len(a.bodies) - 1
}

// outcome is one request's result: the variant sent, the HTTP status (0 on
// a transport error), the interned answer and the time from send to answer.
type outcome struct {
	variant int
	status  int
	answer  int
	wire    time.Duration
	segment int
}

// runDiagnose runs a diagnose workload: set-up, then segments cycles of an
// open-loop phase at the workload's rate (2/3 of the time) and a
// closed-loop capacity phase with nproc clients (1/3), the answer check,
// and with --trace 1 the traced replay.
func runDiagnose(o options, build func(options) (*diagInputs, error)) (*report, error) {
	in, err := build(o)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	conns := runtime.NumCPU()
	ans := &answers{}

	svc, setup, err := timedSetup(o.dir, o.setupReps, func(s *service) error {
		for _, m := range in.uploads {
			if _, err := s.upload(m); err != nil {
				return err
			}
		}
		v := in.variants[in.draw(phaseWarmup, 0)]
		status, body, err := s.post("/v1/diagnose", v.body)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("first diagnosis: HTTP %d: %.200s", status, body)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer svc.close()

	send := func(phase int64, i, seg int) outcome {
		v := in.draw(phase, i)
		t0 := time.Now()
		status, body, err := svc.post("/v1/diagnose", in.variants[v].body)
		wire := time.Since(t0)
		if err != nil {
			status = 0
		}
		return outcome{variant: v, status: status, answer: ans.intern(body), wire: wire, segment: seg}
	}

	if o.requests == 0 {
		closedLoop(conns, warmup, func(i int) { send(phaseWarmup, i+1, 0) })
	}
	s0, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	rss := sampleRSS()
	var openOut, closedOut []outcome
	var times []timing
	closedWall := make([]time.Duration, segments)
	steal := make([]float64, segments)
	if o.requests > 0 {
		// Count-bounded: one segment, every request one at a time.
		openOut = make([]outcome, o.requests)
		sequential(o.requests, func(i int) { openOut[i] = send(phaseOpen, i, 0) })
		closedOut = make([]outcome, o.requests)
		closedWall[0] = sequential(o.requests, func(i int) { closedOut[i] = send(phaseClosed, i, 0) })
	} else {
		total := time.Duration(o.seconds * float64(time.Second))
		openFor, closedFor := total*2/3/segments, total/3/segments
		var mu sync.Mutex
		for seg := 0; seg < segments; seg++ {
			st := startSteal()
			due := poissonSchedule(rand.New(rand.NewSource(o.seed*7919+int64(seg))), in.rate, openFor)
			base := len(openOut)
			part := make([]outcome, len(due))
			times = append(times, openLoop(due, conns, func(i int) { part[i] = send(phaseOpen, base+i, seg) })...)
			openOut = append(openOut, part...)
			closedBase := len(closedOut)
			closedWall[seg] = closedLoop(conns, closedFor, func(i int) {
				out := send(phaseClosed, closedBase+i, seg)
				mu.Lock()
				closedOut = append(closedOut, out)
				mu.Unlock()
			})
			steal[seg] = st()
		}
	}
	rssMB := rss()
	s1, err := svc.scrape()
	if err != nil {
		return nil, err
	}
	rep.counts = workCounts(s0, s1)

	// Check every distinct (variant, answer) pair once.
	chk := newChecker(in)
	verdictErr := map[[2]int]error{}
	judge := func(out outcome) bool {
		if out.status == 0 {
			return false
		}
		key := [2]int{out.variant, out.answer}
		err, ok := verdictErr[key]
		if !ok {
			err = chk.check(in.variants[out.variant], out.status, ans.bodies[out.answer])
			verdictErr[key] = err
			if err != nil {
				rep.notef("wrong answer: %v", err)
			}
		}
		return err == nil
	}
	globalLat := make([][]float64, segments)
	var portLat, lags, wire []float64
	openFailed, portReqs := 0, 0
	for i, out := range openOut {
		ok := judge(out)
		if !ok {
			openFailed++
		}
		wire = append(wire, out.wire.Seconds()*1000)
		isPorts := in.variants[out.variant].ports
		if isPorts {
			portReqs++
		}
		if times == nil {
			continue
		}
		lat := times[i].latency().Seconds() * 1000
		if !ok {
			lat = math.Inf(1) // a failed or wrong answer misses any limit
		}
		if isPorts {
			portLat = append(portLat, lat)
		} else {
			globalLat[out.segment] = append(globalLat[out.segment], lat)
		}
		lags = append(lags, times[i].lag().Seconds()*1000)
	}
	closedOK := make([]float64, segments)
	closedFailed := 0
	for _, out := range closedOut {
		wire = append(wire, out.wire.Seconds()*1000)
		if in.variants[out.variant].ports {
			portReqs++
		}
		if judge(out) {
			closedOK[out.segment]++
		} else {
			closedFailed++
		}
	}
	rep.phase("open-loop", len(openOut), openFailed, fmt.Sprintf("rate=%g/s conns=%d segments=%d port-mapped=%d", in.rate, conns, segments, len(portLat)))
	rep.phase("closed-loop", len(closedOut), closedFailed, fmt.Sprintf("clients=%d segments=%d", conns, segments))
	rep.Correct = rep.Failed == 0
	if chk.inexact > 0 {
		rep.notef("checker: %d distinct answers localized the injected transition with a non-equivalent fault detail", chk.inexact)
	}

	var p50, tail, throughput []float64
	for _, seg := range calmest(steal) {
		p50 = append(p50, percentile(globalLat[seg], 0.50))
		tail = append(tail, percentile(globalLat[seg], in.tail))
		throughput = append(throughput, closedOK[seg]/closedWall[seg].Seconds())
	}
	rep.notef("calmest segments: steal=%.3f p50_ms=%.3f tail_ms=%.3f throughput_per_s=%.1f", steal, p50, tail, throughput)
	if !o.trace {
		rep.set("setup_s", "s", setup)
		rep.set("p50_ms", "ms", finite(median(p50)))
		rep.set("throughput_per_s", "1/s", median(throughput))
		rep.set("rss_mb", "MB", rssMB)
		return rep, nil
	}

	// Per-layer metrics: scrapes of the untraced run, then the traced replay.
	reqs := float64(len(openOut) + len(closedOut))
	handler := meanMS(s0, s1, "cfsmdiag_http_request_duration_seconds", `route="/v1/diagnose"`)
	rep.set("server.handler_mean_ms", "ms", handler)
	rep.set("server.client_gap_ms", "ms", mean(wire)-handler)
	rep.set("loadgen.lag_p99_ms", "ms", percentile(lags, 0.99))
	rep.set("loadgen.tail_ms", "ms", finite(median(tail)))
	hits := delta(s0, s1, "cfsmdiag_model_registry_hits_total")
	rep.set("server.registry_hit_ratio", "ratio", ratio(hits, hits+delta(s0, s1, "cfsmdiag_model_registry_misses_total")))
	rep.set("cfsm.sim_steps_per_req", "count", delta(s0, s1, "cfsmdiag_sim_steps_total")/reqs)
	rep.set("core.rounds_per_req", "count", delta(s0, s1, "cfsmdiag_localize_rounds_sum")/reqs)
	rep.set("core.escalations_per_req", "count", delta(s0, s1, "cfsmdiag_localize_escalations_total")/reqs)
	rep.set("ports.interleavings_per_req", "count", ratio(delta(s0, s1, "cfsmdiag_ports_interleavings_explored_total"), float64(portReqs)))
	// The port-mapped class's latency (fig1-diagnose only).
	rep.set("ports.diagnose_p50_ms", "ms", finite(percentile(portLat, 0.50)))
	rep.set("ports.diagnose_p99_ms", "ms", finite(percentile(portLat, 0.99)))
	// Layers this workload does not reach.
	for _, name := range []string{"sweep.mutant_mean_ms", "jobs.wait_mean_ms", "jobs.run_mean_ms", "jobs.cached_p50_ms"} {
		rep.set(name, "ms", 0)
	}
	for _, name := range []string{"sweep.worker_busy_frac", "jobs.cache_hit_ratio"} {
		rep.set(name, "ratio", 0)
	}
	rep.set("jobs.wal_records_per_job", "count", 0)

	// Replay a prefix of the open-loop requests in-process.
	n := min(len(openOut), replayLimit(in))
	return rep, traceDiagnose(in, openOut[:n], ans, handler, rep)
}

// finite maps an infinite percentile (a failed request sorted last) to a
// large finite number JSON can carry; such a run is already incorrect.
func finite(x float64) float64 {
	if math.IsInf(x, 0) {
		return 1e9
	}
	return x
}
