package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/tuning"
)

// The durable_recover input: an error-free night loaded by two loaders
// into a repository whose WAL lives in a directory, with automatic
// checkpoints at an interval below the log's size. The night is loaded in
// two phases: the files holding the first durableFirstShare of its rows,
// then the rest.
var (
	durableSpec       = nightSpec{Index: 0, Files: 30, Rows: 500_000}
	durableFirstShare = 0.7
	// durableCheckpointBytes is below the first phase's log (~23 MB of the
	// night's ~33 MB), so the automatic checkpoint falls due in the first
	// phase and fires there once, at the latest at its last commit, when
	// no other loader holds uncommitted rows. What follows it plus the
	// second phase's ~10 MB stays below the interval, so no checkpoint
	// fires in the second phase and recovery replays at least all of it.
	durableCheckpointBytes int64 = 18 << 20
)

// walRoot is where the benchmark keeps its durable logs: under the build
// directory of the checkout it runs in, never outside it. The engine's
// flush policy is unchanged: every commit is fsynced.
const walRoot = ".bench_build/perfbench-wal"

// runDurableRecover: per round, load the night durably, close the
// repository, recover it from its directory, compare the two row for row,
// and read the recovered repository with a part of the closed-loop probe.
func runDurableRecover(cfg runConfig) (*result, error) {
	r := newResult()
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, fmt.Errorf("wal root: %w", err)
	}
	defer os.RemoveAll(walRoot)
	rounds := repeatsFor(cfg.Seconds, 5)
	var setups, gens, rates, cpuRates, recRates, replayPerRow, walPerRow, syncs, imbal, gcFrac []float64
	st := &readStats{}
	var plan []queries.Query
	for round := 0; round < rounds; round++ {
		runtime.GC()
		start := time.Now()
		n := genNight(cfg.Seed, durableSpec)
		dir, err := os.MkdirTemp(walRoot, "round-*")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		db, err := openRepo(relstore.WithWALDir(dir), relstore.WithCheckpointEvery(durableCheckpointBytes))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, n.GenSeconds)
		if plan == nil {
			plan = queriesOf(planReads(cfg.Seed, n, probeMix))
			logf("night: %d files, %d rows, %d bytes, error-free", len(n.Files), n.Rows, n.ActualBytes)
		}

		base := db.RowCounts()
		wal0 := db.StatsSnapshot().WAL
		srv, _ := loadServer(db, cfg.Seed)
		k := firstPhaseFiles(n, durableFirstShare)
		settle()
		m, err := timedLoad(srv, n.Files[:k], 2)
		if err != nil {
			countFiles(r, len(n.Files), m)
			return nil, err
		}
		ckpts := db.StatsSnapshot().WAL.Checkpoints - wal0.Checkpoints
		tail, err := timedLoad(srv, n.Files[k:], 2)
		m = m.then(tail)
		countFiles(r, len(n.Files), m)
		if err != nil {
			return nil, err
		}
		wal1 := db.StatsSnapshot().WAL
		rates = append(rates, m.rowsPerS())
		cpuRates = append(cpuRates, m.rowsPerCPUS())
		imbal = append(imbal, m.Imbal)
		gcFrac = append(gcFrac, m.GCFrac)
		walPerRow = append(walPerRow, ratio(float64(wal1.DurableBytes-wal0.DurableBytes), float64(m.Rows)))
		syncs = append(syncs, float64(wal1.DurableSyncs-wal0.DurableSyncs))
		r.check(checkConservation(db, n, m.Res.Total, base, nil))
		if m.Res.Total.RowsSkipped+m.Res.Total.ParseErrors != 0 {
			r.check(fmt.Errorf("error-free night: %d rows rejected, %d parse errors",
				m.Res.Total.RowsSkipped, m.Res.Total.ParseErrors))
		}
		want, err := digestDB(db)
		if err != nil {
			return nil, err
		}
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		db, srv = nil, nil

		settle()
		t0 := time.Now()
		rdb, rep, err := relstore.Recover(catalog.NewSchema(), dir, tuning.ProductionLoading().Options()...)
		wall := time.Since(t0)
		r.op(err)
		if err != nil {
			continue
		}
		// Secondary indexes live outside the log; the repository is back in
		// service once its profile's index is rebuilt.
		prof := tuning.ProductionLoading()
		if err := tuning.ApplyIndexPolicyWith(rdb, prof.Indexes, prof.BuildPolicy()); err != nil {
			return nil, fmt.Errorf("rebuild index: %w", err)
		}
		recRates = append(recRates, ratio(float64(rdb.TotalRows()), wall.Seconds()))
		replayPerRow = append(replayPerRow, ratio(float64(rep.ReplayedBytes), float64(rep.ReplayedRows)))
		got, err := digestDB(rdb)
		if err != nil {
			return nil, err
		}
		r.check(compareDigests(want, got))
		logf("round %d: load %.0f rows/s, checkpoints %d in the first phase and %d in the second (%d rows); recover %d rows in %v (checkpoint rows %d, replayed %d rows)",
			round, m.rowsPerS(), ckpts, wal1.Checkpoints-wal0.Checkpoints-ckpts, tail.Rows,
			rdb.TotalRows(), wall.Round(time.Millisecond), rep.CheckpointRows, rep.ReplayedRows)
		if round == 0 {
			r.check(checkIntegrity(rdb))
			r.check(checkObjectSample(rdb, n, cfg.Seed, 500))
		}
		probe(r, st, rdb, part(plan, round, rounds), n.Objects, cfg.Trace)
		if err := rdb.Close(); err != nil {
			return nil, fmt.Errorf("close recovered: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("remove wal dir: %w", err)
		}
	}

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
		r.layer["relstore.recover_rows_per_s"] = median(recRates)
		r.layer["relstore.replay_bytes_per_row"] = median(replayPerRow)
		r.layer["relstore.wal_bytes_per_row"] = median(walPerRow)
		r.layer["relstore.wal_syncs"] = median(syncs)
		if err := replayLayers(r, cfg.Seed, durableSpec, walRoot); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// firstPhaseFiles is how many leading files of a night hold at least share
// of its rows, leaving at least one file for the second phase.
func firstPhaseFiles(n *night, share float64) int {
	rows := 0
	for i, f := range n.Files[:len(n.Files)-1] {
		rows += f.DataRows
		if float64(rows) >= share*float64(n.Rows) {
			return i + 1
		}
	}
	return len(n.Files) - 1
}
