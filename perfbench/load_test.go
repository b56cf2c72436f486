package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStalls checks the open-loop contract: when the server
// stalls once, the requests that arrive during the stall are timed from
// their due times, so their latency and the generator's lag show the stall,
// while their time on the wire does not.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	client := srv.Client()

	// One connection, one arrival every 10ms for half a second.
	var due []time.Duration
	for i := 0; i < 50; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	times := openLoop(due, 1, func(i int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})

	// Request 1 was due at 10ms but could only be sent once request 0's
	// 300ms stall ended: it must be charged most of the stall.
	if lat := times[1].latency(); lat < stall-50*time.Millisecond {
		t.Errorf("request 1 latency %v does not show the %v stall", lat, stall)
	}
	if wire := times[1].done - times[1].sent; wire > 100*time.Millisecond {
		t.Errorf("request 1 spent %v on the wire; the stall belongs to the queue", wire)
	}
	var lags []float64
	for _, tm := range times {
		lags = append(lags, tm.lag().Seconds()*1000)
	}
	if p99 := percentile(lags, 0.99); p99 < 200 {
		t.Errorf("lag p99 %.1fms does not show the stall", p99)
	}
	// The generator catches up once the stall clears: the last requests are
	// sent close to their due times.
	if lag := times[len(times)-1].lag(); lag > 50*time.Millisecond {
		t.Errorf("last request still %v late", lag)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of one seed differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if n := len(a); n < 70 || n > 130 {
		t.Errorf("%d arrivals in one second at 100/s", n)
	}
}
