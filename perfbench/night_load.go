package main

import (
	"math"
	"runtime"
	"time"

	"skyloader/internal/queries"
)

// setupRounds is how many times a workload sets up at least; setup_s is
// the median, so one slow set-up does not move it.
const setupRounds = 3

// repeatsFor sizes the timed work of a run: how many timed phases of about
// nominal seconds make up seconds, and never fewer than setupRounds. The
// count depends only on seconds, never on this host's speed, so every run
// with the same --seconds does the same work.
func repeatsFor(seconds, nominal float64) int {
	k := int(math.Round(seconds / nominal))
	if k < setupRounds {
		k = setupRounds
	}
	return k
}

// nightLoadSpec is the night_load input: one night of about a million
// rows over 30 files of skewed sizes with 0.2% injected errors.
var nightLoadSpec = nightSpec{Index: 0, Files: 30, Rows: 1_000_000, ErrorRate: 0.002}

// probeMix is the read plan a run spreads over its loaded repositories.
// Most reads are result-cache hits of a few microseconds, so a part holds
// thousands of them: enough to keep the lookup hit share well above one
// half, where the median would jump between hits and misses, and to
// measure reads for longer than a moment of this host's noise.
var probeMix = readMix{Reads: 30_000, ConeFrac: 1.0 / 3}

// runNightLoad: two loaders bulk-load one night into a fresh repository
// under the production-loading profile, several times; each loaded
// repository is checked and then read by a part of the closed-loop probe.
func runNightLoad(cfg runConfig) (*result, error) {
	r := newResult()
	loads := repeatsFor(cfg.Seconds, 3.3)
	var setups, gens, rates, cpuRates, imbal, gcFrac []float64
	var dbCalls, rowsRead int
	st := &readStats{}
	var plan []queries.Query
	done := 0
	for round, perRound := range split(loads, setupRounds) {
		runtime.GC()
		start := time.Now()
		n := genNight(cfg.Seed, nightLoadSpec)
		db, err := openRepo()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, n.GenSeconds)
		if plan == nil {
			plan = queriesOf(planReads(cfg.Seed, n, probeMix))
		}
		for rep := 0; rep < perRound; rep++ {
			if rep > 0 {
				if db, err = openRepo(); err != nil {
					return nil, err
				}
			}
			base := db.RowCounts()
			srv, _ := loadServer(db, cfg.Seed)
			settle()
			m, err := timedLoad(srv, n.Files, 2)
			countFiles(r, len(n.Files), m)
			if err != nil {
				r.check(err)
				continue
			}
			r.check(checkConservation(db, n, m.Res.Total, base, nil))
			rates = append(rates, m.rowsPerS())
			cpuRates = append(cpuRates, m.rowsPerCPUS())
			imbal = append(imbal, m.Imbal)
			gcFrac = append(gcFrac, m.GCFrac)
			dbCalls += m.Res.Total.DBCalls
			rowsRead += m.Res.Total.RowsRead
			if round == 0 && rep == 0 {
				logf("night: %d files, %d rows, %d bytes, %d corruptions injected; %d rows loaded, %d rejected, %d parse errors",
					len(n.Files), n.Rows, n.ActualBytes, n.Injected, m.Rows, m.Res.Total.RowsSkipped, m.Res.Total.ParseErrors)
				r.check(checkIntegrity(db))
				r.check(checkObjectSample(db, n, cfg.Seed, 500))
			}
			probe(r, st, db, part(plan, done, loads), n.Objects, cfg.Trace)
			done++
		}
	}
	logf("load rows/s per repeat: %.0f", rates)
	r.e2e["setup_s"] = median(setups)
	r.e2e["load_rows_per_s"] = median(rates)
	r.e2e["load_rows_per_cpu_s"] = median(cpuRates)
	if err := st.report(r); err != nil {
		return nil, err
	}
	r.e2e["queries_per_s"] = ratio(float64(st.n), st.busy.Seconds())

	if cfg.Trace {
		st.reportLayers(r)
		cover, err := coverMicros(plan)
		if err != nil {
			return nil, err
		}
		r.layer["htm.cone_cover_us"] = cover
		r.layer["catalog.generate_s"] = median(gens)
		r.layer["parallel.node_imbalance"] = median(imbal)
		r.layer["parallel.gc_cpu_fraction"] = median(gcFrac)
		if err := replayLayers(r, cfg.Seed, nightLoadSpec, ""); err != nil {
			return nil, err
		}
		// The loader's database calls come from the cluster loads themselves.
		r.layer["core.db_calls_per_krow"] = 1000 * float64(dbCalls) / float64(rowsRead)
	}
	return r, nil
}

// countFiles counts a load's files as operations: a file counts as failed
// unless a loader finished it.
func countFiles(r *result, files int, m loadMeasure) {
	r.attempted += files
	if done := m.Res.Total.Files; done < files {
		r.failed += files - done
	}
}
