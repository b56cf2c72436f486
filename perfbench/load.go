package main

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request's schedule, as offsets from phase start.
// Latency is done-due: an arrival that waited for a free connection is
// charged the wait. Lag is sent-due: how late the generator dispatched it.
type timing struct {
	due, sent, done time.Duration
}

func (t timing) latency() time.Duration { return t.done - t.due }
func (t timing) lag() time.Duration     { return t.sent - t.due }

// poissonSchedule draws arrival offsets at the given rate until horizon.
func poissonSchedule(rng *rand.Rand, rate float64, horizon time.Duration) []time.Duration {
	var due []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return due
		}
		due = append(due, d)
	}
}

// openLoop dispatches request i at due[i] to one of conns connection
// workers. An arrival that finds every worker busy waits in the generator
// (the dispatcher blocks), and is still timed from its due time. do performs
// request i; it is called from worker goroutines. openLoop returns once
// every request has completed.
func openLoop(due []time.Duration, conns int, do func(i int)) []timing {
	times := make([]timing, len(due))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				times[i].sent = time.Since(start)
				do(i)
				times[i].done = time.Since(start)
			}
		}()
	}
	for i, d := range due {
		times[i].due = d
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return times
}

// closedLoop runs conns clients back to back for the given duration; each
// takes the next request number and performs it. It returns the wall time
// until the last request finished.
func closedLoop(conns int, d time.Duration, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sequential performs n requests one at a time (the count-bounded mode).
func sequential(n int, do func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		do(i)
	}
	return time.Since(start)
}

// startSteal starts measuring the share of this machine's CPU time the
// hypervisor stole (the steal column of /proc/stat); the returned function
// reports the share since the start, or 0 where /proc/stat is unavailable.
func startSteal() func() float64 {
	s0, t0 := readSteal()
	return func() float64 {
		s1, t1 := readSteal()
		return ratio(float64(s1-s0), float64(t1-t0))
	}
}

func readSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// calmest returns the indices of the half of the segments (rounded up) with
// the least stolen CPU time, in segment order.
func calmest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := idx[:(len(idx)+1)/2]
	sort.Ints(keep)
	return keep
}
