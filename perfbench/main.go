// Command perfbench is the repository's benchmark. It starts the production
// HTTP service in-process on a loopback listener, configured as
// `cfsmdiag serve -jobs -jobs-dir <tmp>` configures it, drives one seeded
// workload against it, checks every answer, and prints one JSON result line.
//
//	perfbench --workload fig1-diagnose --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the same HTTP run is followed by an in-process replay of its inputs through
// the public calls the server makes, timed call by call, and the result
// carries the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fig1Rate float64 // open-loop arrivals per second on fig1-diagnose
	randRate float64 // open-loop arrivals per second on rand-diagnose
	// requests > 0 switches to the count-bounded mode the self-tests use:
	// every phase sends exactly this many requests, one at a time, so that
	// two runs at one seed do identical work.
	requests int
	// setupReps is how many times set-up is timed; the reported setup_s is
	// the median.
	setupReps int
	// dir holds the jobs WAL of each in-process service.
	dir string
}

// setupReps is how many times a run times its set-up: set-up takes
// milliseconds, so a single sample would be mostly scheduling noise.
const setupReps = 21

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects everything a run measured: the result line plus the
// human-readable context printed above it.
type report struct {
	result
	notes  []string         // one line each: phases, rates, counts
	counts map[string]int64 // scraped work counts, compared by the determinism test
	// mismatches counts traced replays whose verdict or test and input
	// counts differ from the HTTP answer to the same request.
	mismatches int
	coverage   float64
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase records one phase's request accounting and folds it into the result.
func (r *report) phase(name string, attempted, failed int, extra string) {
	r.Attempted += attempted
	r.Failed += failed
	r.notef("phase %-12s attempted=%d succeeded=%d failed=%d %s", name, attempted, attempted-failed, failed, extra)
}

var workloads = map[string]func(options) (*report, error){
	"fig1-diagnose": func(o options) (*report, error) { return runDiagnose(o, fig1Inputs) },
	"rand-diagnose": func(o options) (*report, error) { return runDiagnose(o, randInputs) },
	"rand-sweep":    runSweep,
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{setupReps: setupReps}
	fs.StringVar(&o.workload, "workload", "", "workload name: fig1-diagnose, rand-diagnose or rand-sweep")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from a traced replay")
	fs.Float64Var(&o.fig1Rate, "fig1-rate", 1200, "fig1-diagnose open-loop arrival rate (requests/s)")
	fs.Float64Var(&o.randRate, "rand-rate", 45, "rand-diagnose open-loop arrival rate (requests/s)")
	expected := fs.String("write-expected", "", "regenerate the rand-sweep expected outcome table into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expected != "" {
		return writeExpected(*expected, expectedSystems)
	}
	run, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	if o.trace {
		o.setupReps = 1 // setup_s is not reported by a traced run
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.dir = dir

	start := time.Now()
	rep, err := run(o)
	if err != nil {
		return err
	}
	rep.notef("wall %.1fs", time.Since(start).Seconds())
	return writeReport(out, o, rep)
}

// writeReport writes the human-readable report and then the JSON result
// line.
func writeReport(out io.Writer, o options, rep *report) error {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sampleRSS samples the process's resident set size every 50ms until the
// returned function is called, which returns the samples' median in MB. A
// median over the measured phases is steadier than the peak, which depends
// on where garbage collections happen to fall.
func sampleRSS() func() float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			xs = append(xs, rssMB())
			select {
			case <-stop:
				done <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return median(<-done)
	}
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
