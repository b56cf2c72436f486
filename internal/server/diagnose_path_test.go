package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
)

// TestOracleMetricsCountTheSuite: untraced, traced and multi-port diagnoses
// all execute the suite through core's metered oracle, so the oracle query
// and input counters agree with the response's totals on every path.
func TestOracleMetricsCountTheSuite(t *testing.T) {
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	for _, tc := range []struct {
		name, path string
		ports      map[string]string
	}{
		{"untraced", "/v1/diagnose", nil},
		{"traced", "/v1/diagnose?trace=1", nil},
		{"three-port", "/v1/diagnose", perMachinePorts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.New()
			srv := httptest.NewServer(New(Config{Registry: reg, EnableTracing: true}))
			defer srv.Close()
			resp, body := post(t, srv, tc.path, diagnoseRequest{
				Spec:  systemDoc(t, paper.MustFigure1()),
				IUT:   systemDoc(t, iut),
				Suite: suiteDoc(paper.TestSuite()),
				Ports: tc.ports,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			var dr diagnoseResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dr.TotalTests <= dr.SuiteCases {
				t.Fatalf("totalTests = %d for %d suite cases; the paper fault needs Step 6 tests", dr.TotalTests, dr.SuiteCases)
			}
			if got := reg.Counter("cfsmdiag_oracle_queries_total", "").Value(); got != int64(dr.TotalTests) {
				t.Errorf("cfsmdiag_oracle_queries_total = %d, want totalTests %d", got, dr.TotalTests)
			}
			if got := reg.Counter("cfsmdiag_oracle_inputs_total", "").Value(); got != int64(dr.TotalInputs) {
				t.Errorf("cfsmdiag_oracle_inputs_total = %d, want totalInputs %d", got, dr.TotalInputs)
			}
		})
	}
}
