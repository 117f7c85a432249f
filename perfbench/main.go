// Command perfbench is the repository's benchmark: it runs one named
// workload per process against the real engine on this host, checks the
// program's outputs against computations of its own, and prints one JSON
// line with the operations attempted and failed and the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload night_load --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, measured by timing calls into each layer's public
// functions. See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	checkErrs         []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed output check; the run reports correct=false.
func (r *result) check(err error) {
	if err != nil {
		r.checkErrs = append(r.checkErrs, err.Error())
	}
}

// op counts one operation and whether it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		logf("operation failed: %v", err)
	}
}

var workloads = map[string]func(runConfig) (*result, error){
	"night_load":      runNightLoad,
	"ingest_read_mix": runIngestReadMix,
	"shard_query":     runShardQuery,
	"durable_recover": runDurableRecover,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: night_load, ingest_read_mix, shard_query or durable_recover")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 18, "measured seconds the run is sized for")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		os.Exit(2)
	}
	start := time.Now()
	res, err := run(runConfig{Seed: *seed, Seconds: *seconds, Trace: *traced == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.e2e["peak_rss_mb"] = peakRSSMB()
	for _, e := range res.checkErrs {
		logf("CHECK FAILED: %s", e)
	}
	logf("%s seed=%d: %d operations, %d failed, %d check failures, %.1fs",
		*name, *seed, res.attempted, res.failed, len(res.checkErrs), time.Since(start).Seconds())

	defs, values := endToEnd, res.e2e
	if *traced == 1 {
		for _, d := range endToEnd {
			logf("traced run end-to-end %s = %.6g %s", d.Name, res.e2e[d.Name], d.Unit)
		}
		defs, values = perLayer, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.checkErrs) == 0, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// logf writes a progress line to standard error; standard output carries
// only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
