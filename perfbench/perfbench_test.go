package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"skyloader/internal/queries"
)

func TestPercentileRefusesP99OnFewSamples(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 over %d samples: err = %v, want errTooFewSamples", len(xs), err)
	}
	if _, err := percentile(xs, 0.5); err != nil {
		t.Fatalf("p50 over %d samples: %v", len(xs), err)
	}
	xs = append(xs, float64(len(xs)))
	got, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over %d samples: %v", len(xs), err)
	}
	if got != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (nearest rank)", got)
	}
}

// coneFixture is a set of objects around (10, 20): some inside a 0.5 deg
// cone, some outside.
func coneFixture() (queries.Cone, *objectSet, []queries.Object) {
	q := queries.Cone{RA: 10, Dec: 20, RadiusDeg: 0.5}
	set := &objectSet{byID: map[int64]obj{}, byFrame: map[int64][]int64{}}
	var g objGroup
	positions := [][2]float64{{10, 20}, {10.2, 20.1}, {10, 20.45}, {10, 20.6}, {11, 20}, {9.4, 19.9}}
	var inside []queries.Object
	for i, p := range positions {
		o := obj{ID: int64(i + 1), Frame: 7, RA: p[0], Dec: p[1]}
		set.byID[o.ID] = o
		set.order = append(set.order, o.ID)
		if i == 0 {
			g.RA, g.Dec = o.RA, o.Dec
		}
		if d := separationDeg(g.RA, g.Dec, o.RA, o.Dec); d > g.Radius {
			g.Radius = d
		}
		g.IDs = append(g.IDs, o.ID)
		if separationDeg(q.RA, q.Dec, o.RA, o.Dec) <= q.RadiusDeg {
			inside = append(inside, queries.Object{ObjectID: o.ID, FrameID: o.Frame, RA: o.RA, Dec: o.Dec})
		}
	}
	set.groups = []objGroup{g}
	return q, set, inside
}

func TestConeCheckerCatchesDroppedAndExtraObjects(t *testing.T) {
	q, set, inside := coneFixture()
	if len(inside) != 3 {
		t.Fatalf("fixture: %d objects inside, want 3", len(inside))
	}
	if err := checkCone(q, inside, set, nil); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := checkCone(q, inside[1:], set, nil); err == nil {
		t.Fatal("answer missing an object inside the cone was accepted")
	}
	outside := set.byID[4]
	extra := append(append([]queries.Object(nil), inside...),
		queries.Object{ObjectID: outside.ID, FrameID: outside.Frame, RA: outside.RA, Dec: outside.Dec})
	if err := checkCone(q, extra, set, nil); err == nil {
		t.Fatal("answer with an object outside the cone was accepted")
	}
	unknown := append(append([]queries.Object(nil), inside...), queries.Object{ObjectID: 99, RA: 10, Dec: 20})
	if err := checkCone(q, unknown, set, nil); err == nil {
		t.Fatal("answer with an object the night never generated was accepted")
	}
	moved := append([]queries.Object(nil), inside...)
	moved[0].Dec += 0.001
	if err := checkCone(q, moved, set, nil); err == nil {
		t.Fatal("answer with a moved object was accepted")
	}
}

func TestAnswerMemoChecksRepeatsAgainstFirstAnswer(t *testing.T) {
	q, set, inside := coneFixture()
	memo := answerMemo{}
	if err := memo.check(q, inside[1:], set); err == nil {
		t.Fatal("first answer missing an object inside the cone was accepted")
	}
	if err := memo.check(q, inside, set); err != nil {
		t.Fatalf("correct first answer rejected: %v", err)
	}
	if err := memo.check(q, inside, set); err != nil {
		t.Fatalf("repeat of the correct answer rejected: %v", err)
	}
	if err := memo.check(q, inside[1:], set); err == nil {
		t.Fatal("repeat missing an object was accepted")
	}
	moved := append([]queries.Object(nil), inside...)
	moved[0].RA += 1e-9
	if err := memo.check(q, moved, set); err == nil {
		t.Fatal("repeat with a moved object was accepted")
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Work), len(workloads))
	}
	for _, w := range doc.Work {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", w.Name)
		}
	}
}

// TestTinyRuns runs every workload, untraced and traced, on inputs a few
// percent of their benchmark size, and requires every output check to
// pass with no failed operation.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny runs take about a minute")
	}
	defer func(a, b, c, d, e nightSpec, pm, mr, sr readMix) {
		nightLoadSpec, mixPreloadSpec, mixIngestSpec, shardNightSpec, durableSpec = a, b, c, d, e
		probeMix, mixReads, shardReads = pm, mr, sr
	}(nightLoadSpec, mixPreloadSpec, mixIngestSpec, shardNightSpec, durableSpec, probeMix, mixReads, shardReads)
	nightLoadSpec.Rows, nightLoadSpec.Files = 40_000, 6
	mixPreloadSpec.Rows, mixPreloadSpec.Files = 20_000, 4
	mixIngestSpec.Rows, mixIngestSpec.Files = 60_000, 6
	shardNightSpec.Rows, shardNightSpec.Files = 30_000, 6
	durableSpec.Rows, durableSpec.Files = 30_000, 6
	probeMix.Reads, mixReads.Reads, shardReads.Reads = 120, 20, 70

	for _, name := range []string{"night_load", "ingest_read_mix", "shard_query", "durable_recover"} {
		for _, traced := range []bool{false, true} {
			res, err := workloads[name](runConfig{Seed: 3, Seconds: 1, Trace: traced})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if len(res.checkErrs) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("%s (traced %v): %d attempted, %d failed, check failures %v",
					name, traced, res.attempted, res.failed, res.checkErrs)
			}
			for _, d := range endToEnd {
				if d.Name != "peak_rss_mb" && !(res.e2e[d.Name] > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, res.e2e[d.Name])
				}
			}
			for k := range res.layer {
				if !isPerLayer(k) {
					t.Errorf("%s: reports undeclared per-layer metric %s", name, k)
				}
			}
		}
	}
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.Name == name {
			return true
		}
	}
	return false
}
