package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// The /v1/diagnose differential tests: the production handler runs on the
// default (compiled) engine, and its response bytes must equal those of the
// same pipeline forced onto the interpreted reference engine.

// newReferenceAPI returns a bare api whose registry holds the given systems
// under their content hashes, for interpretedResponse.
func newReferenceAPI(systems ...*cfsm.System) *api {
	cfg := Config{}.withDefaults()
	s := &api{cfg: cfg, m: newHTTPMetrics(nil), models: newModelRegistry(nil, 1024)}
	for _, sys := range systems {
		s.models.put(sys, compiled.ModelHash(sys))
	}
	return s
}

// interpretedResponse is runDiagnose with core.NewSystemEngine forced onto
// the pipeline, rendered exactly as the handler writes a 200 response.
func interpretedResponse(t *testing.T, s *api, req diagnoseRequest) []byte {
	t.Helper()
	spec, iut, suite, err := s.prepareDiagnose(req)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	pm, err := portMapFor(req.Ports, spec)
	if err != nil {
		t.Fatalf("port map: %v", err)
	}
	oracle, base := s.oracleFor(iut)
	loc, rep, err := ports.DiagnoseContext(context.Background(), spec, suite, oracle, pm,
		ports.WithCoreOptions(core.WithEngine(core.NewSystemEngine(spec))))
	if err != nil {
		t.Fatalf("interpreted diagnosis: %v", err)
	}
	resp := encodeLocalization(spec, suite, base, loc)
	if len(req.Ports) > 0 {
		resp.Ports = portsReport(rep)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// assertSameResponse posts req and compares the body with the interpreted
// reference.
func assertSameResponse(t *testing.T, srv *httptest.Server, ref *api, label string, req diagnoseRequest) {
	t.Helper()
	resp, got := post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", label, resp.StatusCode, got)
	}
	if want := interpretedResponse(t, ref, req); !bytes.Equal(got, want) {
		t.Errorf("%s: response diverges from the interpreted engine:\ncompiled    %s\ninterpreted %s", label, got, want)
	}
}

// figure1Requests returns one inline /v1/diagnose request per Figure 1
// mutant (145), with the given port map.
func figure1Requests(t *testing.T, pm map[string]string) ([]diagnoseRequest, []fault.Fault) {
	t.Helper()
	spec := paper.MustFigure1()
	specDoc := systemDoc(t, spec)
	suite := suiteDoc(paper.TestSuite())
	faults := fault.Enumerate(spec)
	reqs := make([]diagnoseRequest, len(faults))
	for i, f := range faults {
		mut, err := f.Apply(spec)
		if err != nil {
			t.Fatalf("apply %s: %v", f.Describe(spec), err)
		}
		reqs[i] = diagnoseRequest{Spec: specDoc, IUT: systemDoc(t, mut), Suite: suite, Ports: pm}
	}
	return reqs, faults
}

// TestDiagnoseMatchesInterpretedFigure1 covers every Figure 1 mutant under
// global observation and under the E18 one-port-per-machine map.
func TestDiagnoseMatchesInterpretedFigure1(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	ref := newReferenceAPI()
	for _, tc := range []struct {
		name  string
		ports map[string]string
	}{
		{"global", nil},
		{"per-machine-ports", perMachinePorts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs, faults := figure1Requests(t, tc.ports)
			if len(reqs) != 145 {
				t.Fatalf("%d Figure 1 mutants, want 145", len(reqs))
			}
			for i, req := range reqs {
				assertSameResponse(t, srv, ref, faults[i].Describe(paper.MustFigure1()), req)
			}
		})
	}
}

// TestDiagnoseMatchesInterpretedRandomSample covers the rand-diagnose
// benchmark sample: the 4-machine random system (randgen N=4, States=4,
// seed 1) and 128 of its mutants drawn with seed 1, uploaded to the model
// registry and diagnosed by reference with the transition tour.
func TestDiagnoseMatchesInterpretedRandomSample(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.N, cfg.States = 4, 4
	spec, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tour, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) > 0 {
		t.Fatalf("tour leaves %d transitions uncovered", len(uncovered))
	}
	suite := suiteDoc(tour)
	faults := fault.Enumerate(spec)
	perm := rand.New(rand.NewSource(1)).Perm(len(faults))

	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	upload := func(sys *cfsm.System) string {
		resp, body := postRaw(t, srv, "/v1/models", "application/octet-stream", compiled.EncodeSystem(sys))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
		}
		return compiled.ModelHash(sys)
	}
	specRef := upload(spec)
	ref := newReferenceAPI(spec)
	for _, k := range perm[:128] {
		mut, err := faults[k].Apply(spec)
		if err != nil {
			t.Fatalf("apply %s: %v", faults[k].Describe(spec), err)
		}
		ref.models.put(mut, upload(mut))
		req := diagnoseRequest{SpecRef: specRef, IUTRef: compiled.ModelHash(mut), Suite: suite}
		assertSameResponse(t, srv, ref, faults[k].Describe(spec), req)
	}
	if compiled.Cached(spec) != nil {
		t.Error("the interpreted reference compiled the specification")
	}
}

// TestConcurrentDiagnoseSharedProgram runs Figure 1 diagnoses by registry
// reference from several clients at once, half of them port-mapped, so the
// race detector covers the specification's shared memoised Program and its
// pooled search scratch. Every response must equal the interpreted one.
func TestConcurrentDiagnoseSharedProgram(t *testing.T) {
	spec := paper.MustFigure1()
	suite := suiteDoc(paper.TestSuite())
	faults := fault.Enumerate(spec)

	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	upload := func(sys *cfsm.System) string {
		resp, body := postRaw(t, srv, "/v1/models", "application/octet-stream", compiled.EncodeSystem(sys))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
		}
		return compiled.ModelHash(sys)
	}
	specRef := upload(spec)
	ref := newReferenceAPI(spec)
	type job struct {
		label string
		req   diagnoseRequest
		want  []byte
	}
	var jobs []job
	for i, f := range faults {
		mut, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.models.put(mut, upload(mut))
		req := diagnoseRequest{SpecRef: specRef, IUTRef: compiled.ModelHash(mut), Suite: suite}
		if i%2 == 1 {
			req.Ports = perMachinePorts
		}
		jobs = append(jobs, job{label: f.Describe(spec), req: req, want: interpretedResponse(t, ref, req)})
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += clients {
				data, err := json.Marshal(jobs[i].req)
				if err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(srv.URL+"/v1/diagnose", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(buf.Bytes(), jobs[i].want) {
					errs <- fmt.Errorf("%s: status %d, body diverges:\ngot  %s\nwant %s",
						jobs[i].label, resp.StatusCode, buf.Bytes(), jobs[i].want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
