package main

import (
	"fmt"
	"runtime"
	"time"

	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/parallel"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// openRepo opens a fresh repository under the production-loading profile:
// reference tables seeded, the htmid index maintained per batch, the WAL in
// memory unless extra options give it a directory.
func openRepo(extra ...relstore.Option) (*relstore.DB, error) {
	prof := tuning.ProductionLoading()
	opts := append(prof.Options(), extra...)
	db, err := relstore.Open(catalog.NewSchema(), opts...)
	if err != nil {
		return nil, fmt.Errorf("open repository: %w", err)
	}
	if err := seedRepo(db); err != nil {
		return nil, err
	}
	return db, nil
}

// seedRepo adds the reference rows and the profile's secondary index.
func seedRepo(db *relstore.DB) error {
	prof := tuning.ProductionLoading()
	txn, err := db.Begin()
	if err != nil {
		return fmt.Errorf("seed repository: %w", err)
	}
	if err := catalog.SeedReference(txn, 32); err != nil {
		return fmt.Errorf("seed repository: %w", err)
	}
	if _, err := txn.Commit(); err != nil {
		return fmt.Errorf("seed repository: %w", err)
	}
	if err := tuning.ApplyIndexPolicyWith(db, prof.Indexes, prof.BuildPolicy()); err != nil {
		return fmt.Errorf("index repository: %w", err)
	}
	return nil
}

// loadServer puts a database behind the batch server on a fresh realtime
// scheduler: loaders are real goroutines and simulated service costs are
// skipped, so every measured second is this host's.
func loadServer(db *relstore.DB, seed int64) (*sqlbatch.Server, *exec.Realtime) {
	sched := exec.NewRealtime(exec.RealtimeConfig{Seed: seed})
	return sqlbatch.NewServerOn(sched, db, tuning.ProductionLoading().ServerConfig(), sqlbatch.DefaultCostModel()), sched
}

// clusterConfig is the paper's loader setup with dynamic file assignment,
// with no more loaders than the host has CPUs.
func clusterConfig(loaders int) parallel.Config {
	loaders = min(loaders, runtime.NumCPU())
	return parallel.Config{Loaders: loaders, Assignment: parallel.Dynamic, Loader: core.DefaultConfig()}
}

// loadMeasure is one timed load of a night.
type loadMeasure struct {
	Res    parallel.Result
	Rows   int64 // rows the load added to the database
	Wall   time.Duration
	CPU    float64
	GCFrac float64
	Imbal  float64
}

func (m loadMeasure) rowsPerS() float64    { return ratio(float64(m.Rows), m.Wall.Seconds()) }
func (m loadMeasure) rowsPerCPUS() float64 { return ratio(float64(m.Rows), m.CPU) }

// then combines two loads that ran one after the other: counts, wall and
// CPU time add up, and the ratios are weighted by wall time.
func (m loadMeasure) then(o loadMeasure) loadMeasure {
	w1, w2 := m.Wall.Seconds(), o.Wall.Seconds()
	m.Res.Total.Merge(o.Res.Total)
	m.Res.Nodes = append(m.Res.Nodes, o.Res.Nodes...)
	m.Res.WallTime += o.Res.WallTime
	m.GCFrac = ratio(m.GCFrac*w1+o.GCFrac*w2, w1+w2)
	m.Imbal = ratio(m.Imbal*w1+o.Imbal*w2, w1+w2)
	m.Rows += o.Rows
	m.Wall += o.Wall
	m.CPU += o.CPU
	return m
}

// timedLoad runs a cluster load of files and measures it from outside:
// wall time from the first loader's start to the last loader's finish is
// parallel.Run's own makespan, rows are counted in the database.
func timedLoad(srv *sqlbatch.Server, files []*catalog.File, loaders int) (loadMeasure, error) {
	db := srv.DB()
	before := db.TotalRows()
	gc0 := sampleGCCPU()
	cpu0 := cpuSeconds()
	res, err := parallel.Run(srv, files, clusterConfig(loaders))
	m := loadMeasure{Res: res, CPU: cpuSeconds() - cpu0, Wall: res.WallTime}
	m.GCFrac = gc0.fractionSince()
	m.Rows = db.TotalRows() - before
	m.Imbal = nodeImbalance(res.Nodes)
	if err != nil {
		return m, fmt.Errorf("cluster load: %w", err)
	}
	return m, nil
}

// nodeImbalance is the busiest loader's busy time over the mean.
func nodeImbalance(nodes []parallel.NodeResult) float64 {
	var max, sum float64
	for _, n := range nodes {
		busy := float64(n.FinishedAt - n.StartedAt)
		sum += busy
		if busy > max {
			max = busy
		}
	}
	if len(nodes) == 0 {
		return 0
	}
	return ratio(max, sum/float64(len(nodes)))
}
