package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// cmdSweep runs the exhaustive single-transition mutant sweep (experiment
// E5) over a system, fanned out over a worker pool. The result is identical
// for any -workers value; only the wall-clock changes.
func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	suitePath := fs.String("suite", "", "test suite JSON (default: generated transition tour)")
	workers := fs.Int("workers", 0, "parallel diagnosis workers (0 = GOMAXPROCS)")
	equiv := fs.Bool("equiv", false, "check undetected/wrongly-localized mutants for observational equivalence (slow)")
	usePaper := fs.Bool("paper", false, "sweep the built-in Figure 1 paper system instead of a JSON file")
	stats := fs.Bool("stats", false, "append a cost report (oracle queries, per-mutant latency, simulator steps)")
	tracePath := fs.String("trace", "", "write a structured JSONL trace of the first traced failing mutants to this path")
	traceFailures := fs.Int("tracefailures", 1, "how many failing mutants to trace (with -trace)")
	distributed := fs.Bool("distributed", false, "shard the sweep over /v1/cluster workers instead of local goroutines")
	coordURL := fs.String("coordinator", "", "base URL of a running coordinator (with -distributed; default: embedded coordinator)")
	workersURLs := fs.String("workers-urls", "", "comma-separated worker base URLs to attach to the embedded coordinator (with -distributed)")
	rangeSize := fs.Int("range-size", 0, "mutant-index shard width per lease (with -distributed; <=0 = coordinator default)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if !*distributed && (*coordURL != "" || *workersURLs != "") {
		return fmt.Errorf("-coordinator and -workers-urls require -distributed")
	}
	var sys *cfsm.System
	var err error
	switch {
	case *usePaper:
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: cfsmdiag sweep -paper [-workers N] (no system file with -paper)")
		}
		sys = paper.MustFigure1()
	case fs.NArg() == 1:
		sys, err = loadSystem(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: cfsmdiag sweep <system.json> [-suite s.json] [-workers N] [-equiv] [-trace out.jsonl [-tracefailures N]]")
	}

	var suite []cfsm.TestCase
	if *suitePath != "" {
		data, err := os.ReadFile(*suitePath)
		if err != nil {
			return err
		}
		suite, err = parseSuite(data)
		if err != nil {
			return err
		}
	} else {
		var uncovered []cfsm.Ref
		suite, uncovered = testgen.Tour(sys, 0)
		if len(uncovered) > 0 {
			fmt.Fprintf(out, "note: %d unreachable transitions not covered by the generated tour\n", len(uncovered))
		}
	}

	effective := *workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
		// Note the fallback only when the user explicitly asked for a
		// non-positive count; the silent default is documented flag behavior.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				fmt.Fprintf(out, "note: -workers %d is not positive; using GOMAXPROCS (%d)\n", *workers, effective)
			}
		})
	}

	if *distributed {
		if *stats || *tracePath != "" {
			return fmt.Errorf("-stats and -trace are local-sweep features; drop them with -distributed")
		}
		return runDistributedSweep(sys, suite, distSweepConfig{
			coordinator: strings.TrimRight(*coordURL, "/"),
			workerURLs:  splitURLList(*workersURLs),
			rangeSize:   *rangeSize,
			equiv:       *equiv,
		}, out)
	}

	opts := experiments.SweepOptions{Workers: effective, CheckEquivalence: *equiv}
	var collector *statsCollector
	if *stats {
		collector = newStatsCollector()
		defer collector.close()
		opts.Registry = collector.reg
	}
	var tr *trace.Tracer
	if *tracePath != "" {
		tr = trace.New()
		opts.Trace = tr
		opts.TraceFailures = *traceFailures
	}
	start := time.Now()
	res, err := experiments.RunSweepOpts(sys, suite, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "swept %d mutants with %d workers in %v (%.0f mutants/sec)\n",
		len(res.Reports), effective, elapsed,
		float64(len(res.Reports))/elapsed.Seconds())
	for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
		if res.Counts[o] > 0 {
			fmt.Fprintf(out, "  %-26s %d\n", o.String()+":", res.Counts[o])
		}
	}
	if res.UndetectedEquivalent > 0 {
		fmt.Fprintf(out, "  (of the undetected, %d are provably equivalent to the spec)\n", res.UndetectedEquivalent)
	}
	if res.Detected > 0 {
		fmt.Fprintf(out, "adaptive cost: %.2f additional tests per detected mutant\n",
			float64(res.TotalAdditionalTests)/float64(res.Detected))
	}
	if collector != nil {
		collector.printSweep(out, res)
	}
	if tr != nil {
		if err := writeTraceFile(*tracePath, tr.Events(), trace.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote %d events for %d traced mutants to %s\n",
			tr.Len(), trace.CountKind(tr.Events(), trace.KindSweepMutant, trace.PhaseBegin), *tracePath)
	}
	return nil
}
