// Command simdbench is the end-to-end benchmark of the simd job service. It
// runs an in-process simd (a service.Service with a journal directory, served
// over httptest), plus fleet workers where the workload needs them, and
// drives it from closed-loop clients through service.Client: submit, stream
// the job to its terminal line, submit the next. It checks every admitted
// seed result against the direct engine and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash simdbench/run.sh --workload local-sf --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// second, traced window follows the untraced one and the result carries the
// per-layer metrics, while the spans are written under .bench_build/spans.
// DESIGN.md beside this file gives the workloads, the metrics and which
// per-layer metric should move which end-to-end metric on which workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build"

// setups is how many times a run sets the daemon up; setup_s is the median.
const setups = 5

// runLimit bounds a whole run: its context expires then, and five seconds
// later the process exits without a result.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// detail is printed on the line before the result: what the metrics rest on.
type detail struct {
	Workload     string      `json:"workload"`
	Seed         uint64      `json:"seed"`
	Jobs         int         `json:"jobs"`
	ErrorRate    float64     `json:"error_rate"`
	TailPercent  float64     `json:"job_latency_tail_percentile"`
	TailSamples  int         `json:"job_latency_tail_samples"`
	SetupSeconds []float64   `json:"setup_s_samples"`
	Redispatched float64     `json:"fleet_redispatched"`
	Calibration  calibration `json:"host_calibration"`
	FirstProblem string      `json:"first_problem,omitempty"`
	SpanFile     string      `json:"span_file,omitempty"`
	TracedRate   float64     `json:"traced_seeds_per_s,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload name: local-sf, fleet-verify or ssf-journal")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same jobs")
	seconds := flag.Int("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.Parse()
	w, err := lookupWorkload(*workload)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdbench:", err)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "simdbench: run exceeded", runLimit)
		os.Exit(3)
	})
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	det, res, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	cancel()
	watchdog.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err == nil {
		err = enc.Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simdbench:", err)
		os.Exit(1)
	}
}

// bench sets the daemon up, runs the timed window (and with traced set, a
// traced one after it), checks every output and computes the metrics.
func bench(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool) (*detail, *result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	root, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	det := &detail{Workload: w.name, Seed: seed}
	if det.Calibration, err = calibrate(root); err != nil {
		return nil, nil, fmt.Errorf("host calibration: %w", err)
	}

	// Set-up: daemon open, journal ready, fleet registered, one warm-up
	// job. The last rig set up carries the timed window.
	var jobs []*jobRecord
	var live *rig
	for i := 0; i < setups; i++ {
		start := time.Now()
		r, err := startRig(ctx, w, filepath.Join(root, "journal-"+strconv.Itoa(i)), nil)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, runJob(ctx, r.client, nil, w.jobSpec(jobSeeds(seed, streamWarmup, i, 1))))
		det.SetupSeconds = append(det.SetupSeconds, time.Since(start).Seconds())
		if i < setups-1 {
			r.close()
		} else {
			live = r
		}
	}
	logf("%s: set up in %.3fs (median of %v), timing %s", w.name, median(det.SetupSeconds), det.SetupSeconds, d)

	win := closedLoop(ctx, live, seed, 0, d)
	rss := peakRSSMB()
	after, err := live.scrape(ctx)
	live.close()
	if err != nil {
		return nil, nil, err
	}
	det.Redispatched = after["simd_fleet_seeds_redispatched_total"]
	jobs = append(jobs, win.jobs...)
	logf("%s: %d jobs, %.2f seeds/s", w.name, len(win.jobs), win.seedsPerSec())

	var tw *tracedWindow
	if traced {
		if tw, err = runTraced(ctx, w, seed, root, len(win.jobs), d); err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, tw.warmup)
		jobs = append(jobs, tw.win.jobs...)
		det.Redispatched += tw.after["simd_fleet_seeds_redispatched_total"]
		logf("%s: traced %d jobs, %.2f seeds/s", w.name, len(tw.win.jobs), tw.win.seedsPerSec())
	}

	// Output check, outside the timed windows.
	dr, err := runDirect(ctx, w.spec, admittedSeeds(jobs), runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, nil, err
	}
	tl := check(jobs, dr.results)
	selfErr := selfTest(jobs, dr.results)
	if selfErr != nil {
		tl.note("%v", selfErr)
	}
	det.Jobs = len(win.jobs)
	det.ErrorRate = float64(tl.failed()) / float64(max(tl.attempted, 1))
	det.FirstProblem = tl.first
	res := &result{
		Correct:   tl.failed() == 0 && selfErr == nil && det.Redispatched == 0,
		Attempted: tl.attempted,
		Failed:    tl.failed(),
		Metrics:   metrics{},
	}
	if !res.Correct {
		logf("%s: output check failed: %d job errors, %d mismatches, %v redispatched; first: %s",
			w.name, tl.jobErrors, tl.mismatches, det.Redispatched, tl.first)
	}

	jobLat, firstLat := win.latencies()
	tailV, tailP, tailN := tail(jobLat)
	det.TailPercent, det.TailSamples = tailP, tailN
	if !traced {
		m := res.Metrics
		m.set("seeds_per_s", win.seedsPerSec(), "1/s")
		m.set("job_latency_p50_ms", median(jobLat), "ms")
		m.set("job_latency_tail_ms", tailV, "ms")
		m.set("first_result_p50_ms", median(firstLat), "ms")
		m.set("setup_s", median(det.SetupSeconds), "s")
		m.set("peak_rss_mb", rss, "MB")
		return det, res, nil
	}

	if err := tw.layerMetrics(ctx, dr, det.Calibration, res.Metrics); err != nil {
		return nil, nil, err
	}
	res.Metrics.set("trace.overhead_seeds_per_s", tw.win.seedsPerSec()-win.seedsPerSec(), "1/s")
	res.Metrics.set("host.sf_seed_ms", det.Calibration.SFSeedMS, "ms")
	det.SpanFile = filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tw.t.write(det.SpanFile); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	return det, res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "simdbench: "+format+"\n", args...)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the Go
// runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
