package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is one reported metric. The lists below are the benchmark's
// contract; BENCHMARK.json at the repository root repeats them and a test
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the median
}

// endToEnd metrics are what a user of the repository sees. Every workload
// reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"load_rows_per_s", "rows/s", "higher", 0.25},
	{"load_rows_per_cpu_s", "rows/cpu-s", "higher", 0.25},
	{"cone_p50_ms", "ms", "lower", 0.25},
	{"lookup_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
}

// perLayer metrics come from a traced run, timed around calls into each
// layer's public functions from the benchmark's own code. A layer that does
// no work on a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "catalog.generate_s", Unit: "s", Better: "lower"},
	{Name: "catalog.transform_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "catalog.transform_allocs_per_row", Unit: "allocs", Better: "lower"},
	{Name: "arrayset.add_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "arrayset.add_allocs_per_row", Unit: "allocs", Better: "lower"},
	{Name: "core.loader_self_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "core.db_calls_per_krow", Unit: "calls", Better: "lower"},
	{Name: "sqlbatch.call_self_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "sqlbatch.commit_us", Unit: "us", Better: "lower"},
	{Name: "relstore.insert_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relstore.insert_batch_allocs_per_row", Unit: "allocs", Better: "lower"},
	{Name: "relstore.index_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relstore.index_nodes_per_row", Unit: "nodes", Better: "lower"},
	{Name: "relstore.wal_append_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relstore.wal_syncs", Unit: "count", Better: "lower"},
	{Name: "relstore.wal_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "relstore.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "relstore.replay_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "relstore.recover_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "parallel.node_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "parallel.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "serve.admission_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.execute_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.execute_us_p99", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "httpserve.encode_us_p50", Unit: "us", Better: "lower"},
	{Name: "httpserve.transport_us_p50", Unit: "us", Better: "lower"},
	{Name: "queries.cone_rows_examined_per_returned", Unit: "ratio", Better: "lower"},
	{Name: "htm.cone_cover_us", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_us_p50", Unit: "us", Better: "lower"},
	{Name: "shard.scatter_us_p99", Unit: "us", Better: "lower"},
	{Name: "shard.gather_us_p50", Unit: "us", Better: "lower"},
	{Name: "shard.agent_handle_us_p50", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_per_query", Unit: "shards", Better: "lower"},
	{Name: "shard.wire_codec_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "shard.wire_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "shard.load_rows_per_s", Unit: "rows/s", Better: "higher"},
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcCPU samples the runtime's cumulative GC and total CPU estimates; the
// difference of two samples gives the GC's share of CPU over a window.
type gcCPU struct{ gc, total float64 }

func sampleGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// fractionSince is the GC share of CPU between an earlier sample and now.
// The runtime refreshes its estimates at each collection, so a window that
// spans many collections (a night load does) is accurate to one cycle.
func (a gcCPU) fractionSince() float64 {
	b := sampleGCCPU()
	return ratio(b.gc-a.gc, b.total-a.total)
}

// settle returns the heap to the operating system before a timed phase,
// so every phase starts from the same state: with no garbage to collect
// and no freed pages to reuse, the first and the fifth load of a run pay
// the same collection and page-fault costs.
func settle() { debug.FreeOSMemory() }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
