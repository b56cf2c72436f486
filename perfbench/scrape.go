package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition: series name (with
// its label block, as printed) to value.
type scrape map[string]float64

func parseScrape(data []byte) (scrape, error) {
	sc := scrape{}
	s := bufio.NewScanner(bytes.NewReader(data))
	s.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for s.Scan() {
		line := s.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		sc[line[:i]] = v
	}
	return sc, s.Err()
}

func (s *service) scrape() (scrape, error) {
	status, body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scrape: HTTP %d", status)
	}
	return parseScrape(body)
}

// sum totals every series of the named metric whose label block contains
// each of the given `key="value"` pairs.
func (sc scrape) sum(name string, labels ...string) float64 {
	var t float64
	for series, v := range sc {
		base, block, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is the change of a summed series between two scrapes.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// meanMS is a histogram's mean in milliseconds over the interval between two
// scrapes (its families are in seconds).
func meanMS(before, after scrape, name string, labels ...string) float64 {
	return 1000 * ratio(delta(before, after, name+"_sum", labels...), delta(before, after, name+"_count", labels...))
}

// workCounts are the scraped work counters the determinism self-test
// compares between two runs at one seed.
func workCounts(before, after scrape) map[string]int64 {
	counts := map[string]int64{}
	for _, name := range []string{
		"cfsmdiag_oracle_queries_total",
		"cfsmdiag_oracle_inputs_total",
		"cfsmdiag_localize_rounds_sum",
		"cfsmdiag_localize_escalations_total",
		"cfsmdiag_sim_steps_total",
		"cfsmdiag_sim_resets_total",
		"cfsmdiag_ports_interleavings_explored_total",
		"cfsmdiag_model_registry_hits_total",
		"cfsmdiag_model_registry_misses_total",
		"cfsmdiag_jobs_wal_records_total",
		"cfsmdiag_jobs_cache_hits_total",
		"cfsmdiag_jobs_submitted_total",
	} {
		counts[name] = int64(delta(before, after, name))
	}
	for series := range after {
		if strings.HasPrefix(series, "cfsmdiag_sweep_mutants_total{") {
			counts[series] = int64(after[series] - before[series])
		}
	}
	return counts
}
