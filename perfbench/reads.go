package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/exec"
	"skyloader/internal/htm"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/serve"
	"skyloader/internal/trace"
)

// readMix sizes a read plan for serve.GenTrace: how many reads, the share
// that are cones, whether frame queries are mixed in, the mean arrival rate
// (only the mix's open loop keeps the arrival times), and how many traces
// of equal length the plan joins (one when 0).
type readMix struct {
	Reads    int
	ConeFrac float64
	Frames   bool
	Rate     float64
	Traces   int
}

// planReads builds a seeded read plan aimed at a night with the serving
// layer's own trace generator under its defaults: Poisson arrivals, cones
// on Zipf(1.2)-popular field centres inside the files' footprints
// (WithFootprint) at the default radius mix, so popular cones repeat
// exactly, and Zipf(1.2) lookups. GenTrace draws lookup and frame targets
// as ranks 1..N above one IDBase, while a night gives every file its own
// key range, so rank k is mapped onto the night's k-th loadable object, or
// k-th frame holding one, in file order. GenTrace puts field k in the k-th
// footprint, so each trace shuffles the files first: otherwise the most
// popular fields would lie on the night's first files in every trace, and
// the cone latencies of a seed would hang on those files' sizes. A plan
// that joins several traces, each starting where the last one ended, pools
// several draws of popular fields.
func planReads(seed int64, n *night, mix readMix) []serve.Request {
	frames := make([]int64, 0, len(n.Objects.byFrame))
	for f := range n.Objects.byFrame {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	traces := max(mix.Traces, 1)
	var out []serve.Request
	var start time.Duration
	for t := 0; t < traces; t++ {
		traceSeed := seed*31 + 7 + int64(t)*1_000_003
		files := append([]*catalog.File(nil), n.Files...)
		rng := rand.New(rand.NewSource(traceSeed))
		rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
		spec := serve.TraceSpec{
			Queries:    mix.Reads / traces,
			Seed:       traceSeed,
			ConeFrac:   mix.ConeFrac,
			Objects:    int64(len(n.Objects.order)),
			RatePerSec: mix.Rate,
		}.WithFootprint(files)
		if mix.Frames {
			spec.Frames = int64(len(frames))
		}
		for _, req := range serve.GenTrace(spec) {
			switch q := req.Query.(type) {
			case queries.ObjectLookup:
				req.Query = queries.ObjectLookup{ObjectID: n.Objects.order[q.ObjectID-1]}
			case queries.FrameObjects:
				req.Query = queries.FrameObjects{FrameID: frames[q.FrameID-1]}
			}
			req.Arrival += start
			out = append(out, req)
		}
		start = out[len(out)-1].Arrival
	}
	return out
}

// queriesOf drops a plan's arrival times, for the closed loops.
func queriesOf(reqs []serve.Request) []queries.Query {
	out := make([]queries.Query, len(reqs))
	for i, r := range reqs {
		out[i] = r.Query
	}
	return out
}

// checkAnswer verifies one answer against the objects the repository must
// hold (and may hold, during an ingest).
func checkAnswer(q queries.Query, got []queries.Object, must, may *objectSet) error {
	switch q := q.(type) {
	case queries.Cone:
		return checkCone(q, got, must, may)
	case queries.ObjectLookup:
		return checkLookup(q.ObjectID, got, must)
	case queries.FrameObjects:
		return checkFrame(q.FrameID, got, must)
	}
	return fmt.Errorf("no checker for query class %s", q.Class())
}

// readStats collects client-side latencies and per-layer spans of reads.
type readStats struct {
	cone, lookup, frame []time.Duration
	busy                time.Duration // summed client-observed latency
	n                   int

	admission, execute []time.Duration // traced: serve spans
	encode, transport  []time.Duration // traced: httpserve spans
	examined, returned int             // cone work
	hits, requests     int64           // serve result cache
}

func (s *readStats) add(q queries.Query, lat time.Duration) {
	s.n++
	s.busy += lat
	switch q.(type) {
	case queries.Cone:
		s.cone = append(s.cone, lat)
	case queries.ObjectLookup:
		s.lookup = append(s.lookup, lat)
	default:
		s.frame = append(s.frame, lat)
	}
}

// noteCone adds a served cone's work counters.
func (s *readStats) noteCone(q queries.Query, st queries.Stats) {
	if _, ok := q.(queries.Cone); ok {
		s.examined += st.RowsExamined
		s.returned += st.RowsReturned
	}
}

// noteCache adds a serving layer's per-class cache accounting.
func (s *readStats) noteCache(qs *serve.Server) {
	for _, c := range qs.Classes() {
		s.hits += c.CacheHits
		s.requests += c.Requests
	}
}

// report fills the per-class read medians. The p99s go to the log with
// their sample counts: on this host they move too much from run to run to
// gate a change (see README.md, reference figures).
func (s *readStats) report(r *result) error {
	for _, c := range []struct {
		name string
		lat  []time.Duration
	}{{"cone", s.cone}, {"lookup", s.lookup}} {
		ms := durationsMs(c.lat)
		p50v, err := percentile(ms, 0.5)
		if err != nil {
			return fmt.Errorf("%s p50: %w", c.name, err)
		}
		r.e2e[c.name+"_p50_ms"] = p50v
		if p99v, err := percentile(ms, 0.99); err == nil {
			logf("%s: p50 %.4f ms, p99 %.4f ms over %d reads", c.name, p50v, p99v, len(ms))
		} else {
			p95v, _ := percentile(ms, 0.95)
			logf("%s: p50 %.4f ms, p95 %.4f ms over %d reads; no p99: %v", c.name, p50v, p95v, len(ms), err)
		}
	}
	return nil
}

// reportLayers fills the serve and queries per-layer metrics.
func (s *readStats) reportLayers(r *result) {
	r.layer["serve.admission_us_p50"] = p50(durationsUs(s.admission))
	r.layer["serve.execute_us_p50"] = p50(durationsUs(s.execute))
	r.layer["serve.execute_us_p99"] = p99OrZero(durationsUs(s.execute))
	r.layer["serve.cache_hit_rate"] = ratio(float64(s.hits), float64(s.requests))
	r.layer["httpserve.encode_us_p50"] = p50(durationsUs(s.encode))
	r.layer["httpserve.transport_us_p50"] = p50(durationsUs(s.transport))
	r.layer["queries.cone_rows_examined_per_returned"] = ratio(float64(s.examined), float64(s.returned))
}

// probe runs part of a read plan closed-loop, one client, through the
// serving path (admission, result cache, engine) of a quiescent repository
// right after a garbage collection,
// and checks every answer. With traced, each read carries a trace.Req and
// the serve spans are collected.
func probe(r *result, st *readStats, db *relstore.DB, plan []queries.Query, must *objectSet, traced bool) {
	settle()
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: 1})
	qs := serve.NewServer(sched, db, serve.DefaultConfig())
	checked := answerMemo{}
	sched.RunInline("probe", func(w exec.Worker) {
		for i, q := range plan {
			var tr *trace.Req
			if traced {
				tr = &trace.Req{}
				tr.Begin(uint64(i), q.Class(), w.Now())
			}
			start := time.Now()
			res, outcome, err := qs.Execute(w, q, tr)
			lat := time.Since(start)
			if err == nil && outcome != serve.OutcomeServed && outcome != serve.OutcomeCacheHit {
				err = fmt.Errorf("%s: outcome %s", q.Signature(), outcome)
			}
			r.op(err)
			if err != nil {
				continue
			}
			st.add(q, lat)
			if outcome == serve.OutcomeServed {
				st.noteCone(q, res.Stats)
			}
			if traced {
				tr.Finish(outcome.String(), trace.StageExecute, w.Now())
				st.admission = append(st.admission, tr.Stages[trace.StageAdmission])
				if outcome == serve.OutcomeServed {
					st.execute = append(st.execute, tr.Stages[trace.StageExecute])
				}
			}
			r.check(checked.check(q, res.Objects, must))
		}
	})
	st.noteCache(qs)
}

// answerMemo checks the first answer to each query of a probe against the
// brute-force computation, and every later answer to the same query
// against that first one: as strict on a quiescent repository, and cheap
// enough for the thousands of repeated cones a probe sends.
type answerMemo map[string]uint64

func (m answerMemo) check(q queries.Query, got []queries.Object, must *objectSet) error {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range got {
		for _, v := range []uint64{uint64(o.ObjectID), math.Float64bits(o.RA), math.Float64bits(o.Dec)} {
			binary.LittleEndian.PutUint64(b[:], v)
			_, _ = h.Write(b[:])
		}
	}
	sum := h.Sum64()
	sig := q.Signature()
	if first, seen := m[sig]; seen {
		if sum != first {
			return fmt.Errorf("%s: answer differs from the first answer to the same query", sig)
		}
		return nil
	}
	if err := checkAnswer(q, got, must, nil); err != nil {
		return err
	}
	m[sig] = sum
	return nil
}

// part returns the i-th of k nearly equal consecutive parts of plan, so a
// run can spread one read plan over its repeats.
func part(plan []queries.Query, i, k int) []queries.Query {
	return plan[i*len(plan)/k : (i+1)*len(plan)/k]
}

// split divides total repeats over k set-ups, as evenly as possible.
func split(total, k int) []int {
	out := make([]int, k)
	for i := 0; i < total; i++ {
		out[i%k]++
	}
	return out
}

// coverMicros times htm.ConeCover at htm.CoverDepth(r) for every cone of a
// plan, best of three passes, and returns the mean per cone.
func coverMicros(plan []queries.Query) (float64, error) {
	var cones []queries.Cone
	for _, q := range plan {
		if c, ok := q.(queries.Cone); ok {
			cones = append(cones, c)
		}
	}
	if len(cones) == 0 {
		return 0, nil
	}
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, c := range cones {
			if _, err := htm.ConeCover(c.RA, c.Dec, c.RadiusDeg, htm.CoverDepth(c.RadiusDeg)); err != nil {
				return 0, fmt.Errorf("cone cover: %w", err)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / 1e3 / float64(len(cones)), nil
}
