package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cfsmdiag/internal/cluster"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
)

// newClusterService builds a full service with the coordinator mounted.
func newClusterService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.EnableCluster = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc, srv
}

// TestClusterThroughServer runs a distributed sweep end to end against the
// full server: the spec is uploaded to the model registry and referenced by
// content hash, two workers drain the ranges over HTTP, and the merged
// summary matches the local sweep.
func TestClusterThroughServer(t *testing.T) {
	svc, srv := newClusterService(t, Config{})

	// Upload the model, then create the sweep by specRef.
	doc, err := paper.MustFigure1().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/models", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("model upload: %d: %s", resp.StatusCode, body)
	}
	var model struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &model); err != nil || model.Hash == "" {
		t.Fatalf("model response: %s (err %v)", body, err)
	}

	createDoc, _ := json.Marshal(cluster.CreateRequest{SpecRef: model.Hash, RangeSize: 7})
	resp, err = http.Post(srv.URL+"/v1/cluster/sweeps", "application/json", bytes.NewReader(createDoc))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create sweep: %d: %s", resp.StatusCode, body)
	}
	var st cluster.SweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{
			Name:         "srvtest",
			Coordinators: []string{srv.URL},
			PollInterval: 5 * time.Millisecond,
		})
		w.Start()
		t.Cleanup(w.Stop)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, srv, "/v1/cluster/sweeps/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == cluster.SweepDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The merged result equals the local reference sweep. The suite was the
	// generated tour (no suite in the create request), so mirror that.
	res, ok := svc.Cluster().Result(st.ID)
	if !ok {
		t.Fatal("no merged result on the coordinator")
	}
	local, err := experiments.RunSweepContext(context.Background(),
		res.Spec, res.Suite, experiments.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Mutants != len(local.Reports) ||
		st.Result.Detected != local.Detected {
		t.Fatalf("summary %+v vs local detected=%d mutants=%d",
			st.Result, local.Detected, len(local.Reports))
	}
}

// TestClusterWorkerAttachRoute: a service configured with a ClusterWorker
// serves POST /v1/cluster/attach and hands the URL to the worker.
func TestClusterWorkerAttachRoute(t *testing.T) {
	w := cluster.NewWorker(cluster.WorkerConfig{Name: "attachee"})
	svc, err := NewService(Config{ClusterWorker: w})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close(context.Background())

	resp, err := http.Post(srv.URL+"/v1/cluster/attach", "application/json",
		bytes.NewReader([]byte(`{"coordinator":"http://127.0.0.1:59999"}`)))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: %d: %s", resp.StatusCode, body)
	}
	if got := w.Coordinators(); len(got) != 1 || got[0] != "http://127.0.0.1:59999" {
		t.Fatalf("coordinators = %v", got)
	}
}

// TestClusterSweepRejectsDuplicateTestCase: the cluster surface decodes
// suites with the shared codec, so a suite naming two cases alike answers
// 422 duplicate_test_case exactly as /v1/diagnose does.
func TestClusterSweepRejectsDuplicateTestCase(t *testing.T) {
	_, srv := newClusterService(t, Config{})
	resp, body := post(t, srv, cluster.Prefix+"/sweeps", cluster.CreateRequest{
		Spec: systemDoc(t, paper.MustFigure1()),
		Suite: []testCaseJSON{
			{Name: "T1", Inputs: []string{"R"}},
			{Name: "T1", Inputs: []string{"R"}},
		},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != codeDuplicateTestCase {
		t.Errorf("code = %q, want %q", code, codeDuplicateTestCase)
	}
}
