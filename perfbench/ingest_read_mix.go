package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"skyloader/internal/httpserve"
	"skyloader/internal/parallel"
	"skyloader/internal/queries"
	"skyloader/internal/serve"
	"skyloader/internal/trace"
)

// The ingest_read_mix inputs: a preloaded night, and a second night with
// disjoint keys ingested by one loader while reads arrive on a fixed
// seeded schedule over one keep-alive HTTP connection.
var (
	mixPreloadSpec = nightSpec{Index: 0, Files: 30, Rows: 100_000, ErrorRate: 0.002}
	mixIngestSpec  = nightSpec{Index: 1, Files: 30, Rows: 900_000, ErrorRate: 0.002}
	// mixReads per round, about half cones and half lookups, arriving at
	// 250 per second: the schedule lasts about 1.1 s, a third of the ~3.5 s
	// ingest, so the ingest can get much faster before the last reads would
	// find an idle repository. At 500 per second each stall of the reader
	// queues twice as many reads, and the medians spread 17-20% from run to
	// run; four rounds then give each class about 560 samples, too few for
	// a p99. A round's schedule joins four traces, so a run pools sixteen
	// draws of popular cone fields.
	mixReads = readMix{Reads: 280, ConeFrac: 0.5, Rate: 250, Traces: 4}
)

// sentRead is one read of the open-loop schedule.
type sentRead struct {
	q         queries.Query
	due, sent time.Duration // scheduler clock
	done      time.Duration
	status    int
	body      []byte
	err       error
}

// runIngestReadMix: per round, set up a repository holding the preloaded
// night behind the HTTP front door, then ingest the second night with one
// loader while the read schedule runs.
func runIngestReadMix(cfg runConfig) (*result, error) {
	r := newResult()
	rounds := repeatsFor(cfg.Seconds, 4.5)
	var setups, gens, rates, cpuRates, gcFrac, scheduleShare, served []float64
	all := &readStats{}
	fromDue := &readStats{} // the same reads, timed from when each was due
	var lateMax, lateSum time.Duration
	afterIngest := 0
	svc, svcN := map[string]time.Duration{}, map[string]int{} // per class: summed service time, reads
	var planned []queries.Query
	for round := 0; round < rounds; round++ {
		runtime.GC()
		start := time.Now()
		pre := genNight(cfg.Seed, mixPreloadSpec)
		ing := genNight(cfg.Seed, mixIngestSpec)
		db, err := openRepo()
		if err != nil {
			return nil, err
		}
		srv, sched := loadServer(db, cfg.Seed)
		if _, err := parallel.Run(srv, pre.Files, clusterConfig(2)); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		qs := serve.NewServer(sched, db, serve.DefaultConfig())
		hcfg := httpserve.Config{}
		if cfg.Trace {
			hcfg.TraceEvery, hcfg.TraceRing = 1, mixReads.Reads
		}
		front, err := httpserve.New(qs, hcfg)
		if err != nil {
			return nil, err
		}
		addr, err := front.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		client := &http.Client{Transport: tr}
		base := "http://" + addr.String()
		plan := planReads(cfg.Seed*1000+int64(round), pre, mixReads)
		reads := make([]sentRead, len(plan))
		for i, req := range plan {
			reads[i] = sentRead{q: req.Query, due: req.Arrival}
		}
		planned = append(planned, queriesOf(plan)...)
		// One request before the clock starts opens the connection.
		if err := warmUp(client, base); err != nil {
			return nil, err
		}
		baseCounts := db.RowCounts()
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, pre.GenSeconds+ing.GenSeconds)

		settle()
		gc0 := sampleGCCPU()
		cpu0 := cpuSeconds()
		cl, err := parallel.Spawn(srv, ing.Files, clusterConfig(1))
		if err != nil {
			return nil, fmt.Errorf("spawn ingest: %w", err)
		}
		ranDone := make(chan struct{})
		go func() {
			sched.Run()
			close(ranDone)
		}()
		// The read clock starts once the loader goroutine is running.
		for !cl.Busy() && !closed(ranDone) {
			runtime.Gosched()
		}
		t0 := sched.Now()
		for i := range reads {
			rd := &reads[i]
			rd.due += t0
			if wait := rd.due - sched.Now(); wait > 0 {
				time.Sleep(wait)
			}
			rd.sent = sched.Now()
			rd.status, rd.body, rd.err = get(client, base, rd.q)
			rd.done = sched.Now()
		}
		<-ranDone
		res, err := cl.Collect()
		cpu := cpuSeconds() - cpu0
		gcFrac = append(gcFrac, gc0.fractionSince())
		countFiles(r, len(ing.Files), loadMeasure{Res: res})
		if err != nil {
			r.check(fmt.Errorf("ingest: %w", err))
		}
		var ingestEnd time.Duration
		for _, n := range res.Nodes {
			if n.FinishedAt > ingestEnd {
				ingestEnd = n.FinishedAt
			}
		}
		added := db.TotalRows()
		for _, c := range baseCounts {
			added -= c
		}
		rates = append(rates, ratio(float64(added), res.WallTime.Seconds()))
		cpuRates = append(cpuRates, ratio(float64(added), cpu))
		r.check(checkConservation(db, ing, res.Total, baseCounts, pre.Objects))

		var spans []trace.Req
		if cfg.Trace {
			spans = front.Tracer().Snapshot()
		}
		// A read that completes after the ingest ended no longer measures
		// reading beside an ingest: the schedule must then be re-sized.
		afterEnd := 0
		for _, rd := range reads {
			if rd.done > ingestEnd {
				afterEnd++
			}
		}
		afterIngest += afterEnd
		if afterEnd > 0 {
			r.check(fmt.Errorf("round %d: %d of %d reads completed after the ingest ended (schedule %v, ingest %v)",
				round, afterEnd, len(reads), reads[len(reads)-1].done-t0, ingestEnd-t0))
		}
		scheduleShare = append(scheduleShare, ratio((reads[len(reads)-1].done-t0).Seconds(), (ingestEnd-t0).Seconds()))
		for i := range reads {
			rd := &reads[i]
			late := rd.sent - rd.due
			lateSum += late
			if late > lateMax {
				lateMax = late
			}
			svc[rd.q.Class()] += rd.done - rd.sent
			svcN[rd.q.Class()]++
			resp, err := decodeRead(rd)
			r.op(err)
			if err != nil {
				continue
			}
			all.add(rd.q, rd.done-rd.sent)
			fromDue.add(rd.q, rd.done-rd.due)
			if resp.Outcome == serve.OutcomeServed.String() {
				all.noteCone(rd.q, resp.Stats)
			}
			if cfg.Trace {
				all.transport = append(all.transport, rd.done-rd.sent-time.Duration(resp.ElapsedNS))
			}
			r.check(checkAnswer(rd.q, resp.Objects, pre.Objects, ing.Objects))
		}
		for _, s := range spans {
			all.admission = append(all.admission, s.Stages[trace.StageAdmission])
			if s.Outcome == serve.OutcomeServed.String() {
				all.execute = append(all.execute, s.Stages[trace.StageExecute])
			}
			all.encode = append(all.encode, s.Stages[trace.StageEncode])
		}
		if cfg.Trace && round == rounds-1 {
			for _, s := range front.Tracer().Slowest(3) {
				logf("slow read %s %s: total %v, stages %v", s.Class, s.Outcome, s.Total(), s.Stages)
			}
		}
		all.noteCache(qs)
		first, last := reads[0].due, reads[len(reads)-1].done
		served = append(served, ratio(float64(len(reads)), (last-first).Seconds()))
		tr.CloseIdleConnections()
		if err := front.Close(); err != nil {
			return nil, fmt.Errorf("close front door: %w", err)
		}
		if round == rounds-1 {
			r.check(checkIntegrity(db))
			logf("preload %d rows/%d bytes, ingest %d rows/%d bytes; %d reads per round at %.0f/s",
				pre.Rows, pre.ActualBytes, ing.Rows, ing.ActualBytes, len(reads), mixReads.Rate)
		}
	}
	nReads := all.n
	logf("ingest rows/s per round: %.0f", rates)
	logf("reads: %d, %d completed after the ingest ended; the schedule took %.2f of the ingest (median); generator lateness mean %v, max %v",
		nReads, afterIngest, median(scheduleShare), lateSum/time.Duration(max(nReads, 1)), lateMax)
	for c, d := range svc {
		logf("%s: mean service time %v over %d reads", c, d/time.Duration(svcN[c]), svcN[c])
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["load_rows_per_s"] = median(rates)
	r.e2e["load_rows_per_cpu_s"] = median(cpuRates)
	// The gated medians time each read from its send. Timed from when it
	// was due they add the generator's lateness, which on this host grows
	// faster than the host slows: in a set of ten runs, three on a slow
	// stretch of the host doubled the cone median and spread it 57%. Those
	// figures are logged.
	for _, c := range []struct {
		name string
		lat  []time.Duration
	}{{"cone", fromDue.cone}, {"lookup", fromDue.lookup}} {
		ms := durationsMs(c.lat)
		p50v, _ := percentile(ms, 0.5)
		p95v, _ := percentile(ms, 0.95)
		logf("%s from the due time: p50 %.4f ms, p95 %.4f ms over %d reads", c.name, p50v, p95v, len(ms))
	}
	if err := all.report(r); err != nil {
		return nil, err
	}
	// The schedule is open-loop: the rate served is the reads completed
	// over the time from the first read's due time to the last completion.
	// The offered rate caps it, so it shows a backlog, not a faster reader.
	// Reads per second of the reader's busy time, as the closed loops
	// report, spread 24% from seed to seed here: the busy time is mostly
	// the few reads caught in a stall.
	r.e2e["queries_per_s"] = median(served)
	if cfg.Trace {
		all.reportLayers(r)
		r.layer["catalog.generate_s"] = median(gens)
		r.layer["parallel.gc_cpu_fraction"] = median(gcFrac)
		r.layer["parallel.node_imbalance"] = 1 // one loader
		cover, err := coverMicros(planned)
		if err != nil {
			return nil, err
		}
		r.layer["htm.cone_cover_us"] = cover
		if err := replayLayers(r, cfg.Seed, mixIngestSpec, ""); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// get sends one read over the keep-alive connection and reads the whole
// response; decoding waits until the schedule has ended.
func get(client *http.Client, base string, q queries.Query) (int, []byte, error) {
	path, err := httpserve.QueryURL(q)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// warmUp opens the keep-alive connection with a health probe.
func warmUp(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// decodeRead turns a finished read into its response, or the reason it
// failed.
func decodeRead(rd *sentRead) (httpserve.QueryResponse, error) {
	var resp httpserve.QueryResponse
	if rd.err != nil {
		return resp, fmt.Errorf("%s: %w", rd.q.Signature(), rd.err)
	}
	if err := json.NewDecoder(bytes.NewReader(rd.body)).Decode(&resp); err != nil {
		return resp, fmt.Errorf("%s: decode: %w", rd.q.Signature(), err)
	}
	rd.body = nil
	if rd.status != http.StatusOK {
		return resp, fmt.Errorf("%s: HTTP %d (%s) %s", rd.q.Signature(), rd.status, resp.Outcome, resp.Error)
	}
	return resp, nil
}

// closed reports whether ch has been closed.
func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
