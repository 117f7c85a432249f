package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"skyloader/internal/arrayset"
	"skyloader/internal/catalog"
	"skyloader/internal/core"
	"skyloader/internal/exec"
	"skyloader/internal/relstore"
	"skyloader/internal/sqlbatch"
	"skyloader/internal/tuning"
)

// The traced mode replays a sample of a workload's input stage by stage,
// single-threaded, through each loader-side layer's public functions, on
// twin repositories that differ in one respect each. A layer's self time is
// the difference between a call and the calls it makes: the batch server's
// self time is ExecuteBatchRows minus InsertBatch of the same batches, the
// index's cost is InsertBatch with the htmid index minus without it, the
// durable log's cost is a WAL-directory twin minus the in-memory one, and
// the loader's self time is LoadFile minus every stage below it. The twins
// take each batch in turn, in rotating order, so every twin is timed in the
// same moments of the host's noise and with the batch equally often cold;
// a difference of a few tens of nanoseconds per row then keeps its sign.

// fileArrays is one file's drained array-set cycles, in flush order.
type fileArrays [][]*arrayset.Array

// batchSize is the rows per database call (the paper's optimum, and the
// loader's default).
const batchSize = 40

// replayPasses is how many times the replay runs; each metric is the
// median of its passes. A pass runs with the collector off: a collection
// set off by one twin's allocations would otherwise be charged to
// whichever call is running, and two identical twins then differed by up
// to 10%; with it off, by under 4%. The cost of collection shows in
// parallel.gc_cpu_fraction instead.
const replayPasses = 5

// replayFiles is the sample the replay loads: the first files of a night.
const replayFiles = 3

// stageTimes is what one replay pass measured.
type stageTimes struct {
	records, rows, files int
	transform, add       time.Duration
	transformAllocs      uint64
	addAllocs            uint64
	withIx, noIx         applyResult
	call                 applyResult // through the batch server
	durable              applyResult // WAL-directory twin
	load                 time.Duration
	dbCalls              int
}

// replayLayers generates the first replayFiles files of a night, replays
// them replayPasses times stage by stage, and fills r's loader-side
// per-layer metrics. The caller drops its own large state first, so the
// timings are not taxed by collecting it. walRoot, when non-empty, adds
// the durable twin, with a fresh log directory under it per pass.
func replayLayers(r *result, seed int64, spec nightSpec, walRoot string) error {
	files := genFiles(seed, spec, replayFiles).Files
	passes := map[string][]float64{}
	for pass := 0; pass < replayPasses; pass++ {
		dir := ""
		if walRoot != "" {
			var err error
			if dir, err = os.MkdirTemp(walRoot, "replay-*"); err != nil {
				return fmt.Errorf("wal dir: %w", err)
			}
		}
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		st, err := replayStages(files, dir)
		debug.SetGCPercent(gc)
		if err != nil {
			return err
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return fmt.Errorf("remove wal dir: %w", err)
			}
		}
		for k, v := range st.metrics(walRoot != "") {
			passes[k] = append(passes[k], v)
		}
	}
	for k, vs := range passes {
		r.layer[k] = median(vs)
	}
	return nil
}

// metrics turns one pass's stage times into the loader-side per-layer
// metrics; durable adds the durable log's.
func (st stageTimes) metrics(durable bool) map[string]float64 {
	perRow := func(d time.Duration) float64 { return float64(d) / float64(st.rows) }
	m := map[string]float64{
		"catalog.transform_ns_per_row":         float64(st.transform) / float64(st.records),
		"catalog.transform_allocs_per_row":     float64(st.transformAllocs) / float64(st.records),
		"arrayset.add_ns_per_row":              perRow(st.add),
		"arrayset.add_allocs_per_row":          float64(st.addAllocs) / float64(st.rows),
		"relstore.insert_batch_ns_per_row":     perRow(st.withIx.insert),
		"relstore.insert_batch_allocs_per_row": float64(st.withIx.allocs) / float64(st.rows),
		"relstore.index_ns_per_row":            perRow(st.withIx.insert - st.noIx.insert),
		"relstore.index_nodes_per_row":         float64(st.withIx.indexNodes) / float64(st.rows),
		"sqlbatch.call_self_ns_per_row":        perRow(st.call.insert - st.withIx.insert),
		"sqlbatch.commit_us":                   float64(st.call.commit) / 1e3 / float64(st.files),
		"core.loader_self_ns_per_row":          perRow(st.load - (st.transform + st.add + st.call.insert + st.call.commit)),
		"core.db_calls_per_krow":               1000 * float64(st.dbCalls) / float64(st.rows),
	}
	if durable {
		m["relstore.wal_append_ns_per_row"] = perRow((st.durable.insert + st.durable.commit) -
			(st.withIx.insert + st.withIx.commit))
		m["relstore.checkpoint_ms"] = float64(st.durable.checkpoint) / 1e6
	}
	return m
}

// replayStages runs one stage-by-stage replay of files. walDir, when
// non-empty, adds the durable twin and its checkpoint.
func replayStages(files []*catalog.File, walDir string) (stageTimes, error) {
	st := stageTimes{files: len(files)}
	schema := catalog.NewSchema()
	for _, f := range files {
		st.records += len(f.Records)
	}

	// Transform every record.
	xf := catalog.NewTransformer(schema)
	type keptRow struct {
		row  catalog.TransformedRow
		line int
	}
	kept := make([][]keptRow, len(files))
	for i, f := range files {
		kept[i] = make([]keptRow, 0, len(f.Records))
	}
	m0 := mallocs()
	start := time.Now()
	for i, f := range files {
		for _, rec := range f.Records {
			row, err := xf.Transform(rec)
			if err == nil {
				kept[i] = append(kept[i], keptRow{row, rec.Line})
			}
		}
	}
	st.transform = time.Since(start)
	st.transformAllocs = mallocs() - m0

	// Buffer the rows into the array-set; a full set is drained the way the
	// loader flushes it, and drain time is kept out of the add time.
	set, err := arrayset.New(schema, arrayset.Config{
		ArraySize:        core.DefaultConfig().ArraySize,
		RowOverheadBytes: sqlbatch.DefaultCostModel().BufferedRowOverheadBytes,
	})
	if err != nil {
		return st, fmt.Errorf("array set: %w", err)
	}
	cycles := make([]fileArrays, len(files))
	var drainTime time.Duration
	m0 = mallocs()
	start = time.Now()
	for i := range files {
		for _, k := range kept[i] {
			full, _, err := set.Add(k.row.Table, k.row.Columns, k.row.Values, k.line)
			if err != nil {
				return st, fmt.Errorf("array set add: %w", err)
			}
			st.rows++
			if full {
				d0 := time.Now()
				cycles[i] = append(cycles[i], set.Drain())
				drainTime += time.Since(d0)
			}
		}
		if set.Len() > 0 {
			d0 := time.Now()
			cycles[i] = append(cycles[i], set.Drain())
			drainTime += time.Since(d0)
		}
	}
	st.add = time.Since(start) - drainTime
	st.addAllocs = mallocs() - m0

	// An unmeasured engine apply first: it counts the engine's allocations
	// and index node visits, and warms the heap and the caches, since the
	// first apply of a pass ran slower than the same apply after it. Then
	// the twins, then the whole loader over the same files.
	if st.withIx, err = applyDirect(cycles); err != nil {
		return st, err
	}
	if err := applyTwins(cycles, walDir, &st); err != nil {
		return st, err
	}
	var ls core.Stats
	if st.load, ls, err = applyLoader(files); err != nil {
		return st, err
	}
	st.dbCalls = ls.DBCalls
	return st, nil
}

// applyResult is what one twin's apply measured.
type applyResult struct {
	insert, commit, checkpoint time.Duration
	allocs                     uint64
	indexNodes                 int
}

// forBatches walks the cycles the way the loader's batchRow does: batches
// of batchSize rows; after a failed row, the batch restarts just past it.
// exec returns the failed index within the batch, or -1.
func forBatches(arrays []*arrayset.Array, exec func(a *arrayset.Array, rows [][]relstore.Value) (int, error)) error {
	for _, a := range arrays {
		idx := 0
		for idx < len(a.Rows) {
			end := idx + batchSize
			if end > len(a.Rows) {
				end = len(a.Rows)
			}
			failed, err := exec(a, a.Rows[idx:end])
			if err != nil {
				return err
			}
			if failed >= 0 {
				idx += failed + 1
				continue
			}
			idx = end
		}
	}
	return nil
}

// applyDirect applies the cycles with Txn.InsertBatch, one transaction per
// file, on a fresh repository with the htmid index, and counts the
// allocations and index node visits.
func applyDirect(cycles []fileArrays) (applyResult, error) {
	var res applyResult
	db, err := openRepo()
	if err != nil {
		return res, err
	}
	defer db.Close()
	t := directTwin(db)
	m0 := mallocs()
	for _, file := range cycles {
		if err := t.begin(); err != nil {
			return res, err
		}
		for _, arrays := range file {
			if err := forBatches(arrays, t.insert); err != nil {
				return res, err
			}
		}
		if err := t.commit(); err != nil {
			return res, err
		}
	}
	res.allocs = mallocs() - m0
	res.indexNodes = t.indexNodes
	return res, nil
}

// twin is one repository of the interleaved apply and what it measured.
type twin struct {
	res        applyResult
	indexNodes int
	begin      func() error
	insert     func(a *arrayset.Array, rows [][]relstore.Value) (int, error) // failed index, or -1
	commit     func() error
}

// directTwin applies through Txn.InsertBatch, one transaction per file.
func directTwin(db *relstore.DB) *twin {
	t := &twin{}
	var txn *relstore.Txn
	t.begin = func() (err error) {
		if txn, err = db.Begin(); err != nil {
			return fmt.Errorf("begin: %w", err)
		}
		return nil
	}
	t.insert = func(a *arrayset.Array, rows [][]relstore.Value) (int, error) {
		rep, err := txn.InsertBatch(a.Table, a.Columns, rows)
		t.indexNodes += rep.Report.IndexNodesVisited
		if err != nil && !relstore.IsConstraintViolation(err) {
			return 0, fmt.Errorf("insert batch into %s: %w", a.Table, err)
		}
		if err != nil {
			return rep.FailedIndex, nil
		}
		return -1, nil
	}
	t.commit = func() error {
		if _, err := txn.Commit(); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		return nil
	}
	return t
}

// serverTwin applies through the batch server: Stmt.ExecuteBatchRows per
// batch, one prepared statement per table, and Conn.Commit per file.
func serverTwin(conn *sqlbatch.Conn) *twin {
	stmts := map[string]*sqlbatch.Stmt{}
	return &twin{
		begin: conn.Begin,
		insert: func(a *arrayset.Array, rows [][]relstore.Value) (int, error) {
			stmt := stmts[a.Table]
			if stmt == nil {
				stmt = conn.Prepare(a.Table, a.Columns)
				stmts[a.Table] = stmt
			}
			br, err := stmt.ExecuteBatchRows(rows)
			if err != nil {
				return 0, fmt.Errorf("execute batch on %s: %w", a.Table, err)
			}
			if br.Err != nil {
				return br.FailedIndex, nil
			}
			return -1, nil
		},
		commit: conn.Commit,
	}
}

// applyTwins applies the cycles to fresh twins batch by batch: the engine
// with and without the htmid index, the batch server, and, with walDir,
// the engine on a repository whose log lives there, followed by its
// checkpoint. Each batch goes to every twin in turn, starting one twin
// later than the batch before, and the twins must reject the same rows.
func applyTwins(cycles []fileArrays, walDir string, st *stageTimes) error {
	withIx, err := openRepo()
	if err != nil {
		return err
	}
	defer withIx.Close()
	noIx, err := openRepo()
	if err != nil {
		return err
	}
	defer noIx.Close()
	if err := noIx.DropIndex(catalog.TObjects, tuning.HTMIDIndexName); err != nil {
		return fmt.Errorf("drop index: %w", err)
	}
	callDB, err := openRepo()
	if err != nil {
		return err
	}
	defer callDB.Close()
	var durable *relstore.DB
	if walDir != "" {
		if durable, err = openRepo(relstore.WithWALDir(walDir)); err != nil {
			return err
		}
		defer durable.Close()
	}
	srv, sched := loadServer(callDB, 1)
	var runErr error
	sched.RunInline("replay-twins", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		twins := []*twin{directTwin(withIx), directTwin(noIx), serverTwin(conn)}
		if durable != nil {
			twins = append(twins, directTwin(durable))
		}
		runErr = interleave(cycles, twins)
		st.withIx.insert, st.withIx.commit = twins[0].res.insert, twins[0].res.commit
		st.noIx = twins[1].res
		st.call = twins[2].res
		if durable != nil {
			st.durable = twins[3].res
		}
	})
	if runErr != nil || durable == nil {
		return runErr
	}
	start := time.Now()
	if err := durable.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	st.durable.checkpoint = time.Since(start)
	return nil
}

// interleave walks the cycles once, giving every batch and every commit to
// each twin in turn in rotating order, and adds each call's time to its
// twin.
func interleave(cycles []fileArrays, twins []*twin) error {
	turn := 0
	each := func(f func(t *twin) error) error {
		for i := range twins {
			if err := f(twins[(turn+i)%len(twins)]); err != nil {
				return err
			}
		}
		turn++
		return nil
	}
	for _, file := range cycles {
		if err := each(func(t *twin) error { return t.begin() }); err != nil {
			return err
		}
		for _, arrays := range file {
			err := forBatches(arrays, func(a *arrayset.Array, rows [][]relstore.Value) (int, error) {
				failed, first := 0, true
				err := each(func(t *twin) error {
					start := time.Now()
					f, err := t.insert(a, rows)
					t.res.insert += time.Since(start)
					if err != nil {
						return err
					}
					if !first && f != failed {
						return fmt.Errorf("twins disagree on the rows of a batch of %s they reject", a.Table)
					}
					failed, first = f, false
					return nil
				})
				return failed, err
			})
			if err != nil {
				return err
			}
		}
		err := each(func(t *twin) error {
			start := time.Now()
			err := t.commit()
			t.res.commit += time.Since(start)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// applyLoader loads the files with one core.Loader, LoadFile per file.
func applyLoader(files []*catalog.File) (time.Duration, core.Stats, error) {
	db, err := openRepo()
	if err != nil {
		return 0, core.Stats{}, err
	}
	srv, sched := loadServer(db, 1)
	var (
		total  time.Duration
		st     core.Stats
		runErr error
	)
	sched.RunInline("replay-loader", func(w exec.Worker) {
		conn := srv.ConnectWorker(w)
		defer conn.Close()
		l, err := core.NewLoader(conn, core.DefaultConfig())
		if err != nil {
			runErr = err
			return
		}
		for _, f := range files {
			start := time.Now()
			if err := l.LoadFile(f); err != nil {
				runErr = fmt.Errorf("load %s: %w", f.Name, err)
				return
			}
			total += time.Since(start)
		}
		st = l.Stats()
	})
	return total, st, runErr
}
