package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/server"
)

// service is one in-process instance of the production HTTP service behind
// a loopback listener.
type service struct {
	svc    *server.Service
	srv    *http.Server
	done   chan error
	base   string
	client *http.Client
}

// startService configures the service as `cfsmdiag serve -jobs-dir <dir>
// -quiet` does: simulator instrumentation on, tracing allowed, the durable
// jobs queue with its default worker count, and no access log.
func startService(dir string) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc, err := server.NewService(server.Config{
		Registry:            obs.New(),
		RequestTimeout:      time.Minute,
		EnableTracing:       true,
		InstrumentSimulator: true,
		EnableJobs:          true,
		JobsDir:             dir,
	})
	if err != nil {
		return nil, fmt.Errorf("start service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close(context.Background())
		return nil, err
	}
	s := &service{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener, drains the jobs queue and waits for the serve
// goroutine to return.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if e := <-s.done; e != http.ErrServerClosed && err == nil {
		err = e
	}
	if e := s.svc.Close(ctx); err == nil {
		err = e
	}
	s.client.CloseIdleConnections()
	return err
}

// post sends a JSON (or binary) body and returns the status and response.
func (s *service) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req)
}

func (s *service) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return s.do(req)
}

func (s *service) do(req *http.Request) (int, []byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// upload registers a model (JSON or CFSMBIN) and returns its content hash.
func (s *service) upload(model []byte) (string, error) {
	status, body, err := s.post("/v1/models", model)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("upload model: HTTP %d: %s", status, body)
	}
	var resp struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", fmt.Errorf("upload model: %w", err)
	}
	return resp.Hash, nil
}

// timedSetup starts a service reps times, each time running prepare on it
// (uploads and the first answer), and returns the last service together
// with the median set-up time. Earlier services are closed.
func timedSetup(dir string, reps int, prepare func(*service) error) (*service, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startService(filepath.Join(dir, fmt.Sprintf("jobs-%d", i)))
		if err != nil {
			return nil, 0, err
		}
		if err := prepare(s); err != nil {
			_ = s.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i+1 >= reps {
			return s, median(times), nil
		}
		if err := s.close(); err != nil {
			return nil, 0, err
		}
	}
}

// median of a sample, 0 when it is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile (q in (0,1]) of a sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
