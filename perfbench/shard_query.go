package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"skyloader/internal/exec"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
	"skyloader/internal/shard"
	"skyloader/internal/shard/wire"
	"skyloader/internal/trace"
)

// The shard_query inputs: a night loaded into a 3-agent fleet, and a
// seeded trace of cones, lookups and frame queries run by one closed-loop
// client through the coordinator.
var (
	shardNightSpec = nightSpec{Index: 0, Files: 30, Rows: 300_000}
	// shardReads joins short traces: the coordinator has no result cache,
	// so every cone is executed and a trace's cone latencies hang on the
	// few popular fields it draws.
	shardReads = readMix{Reads: 1320, ConeFrac: 0.45, Frames: true, Traces: 8}
)

const shardAgents = 3

// fleet is an in-process shard fleet: agents behind in-process clients
// that still encode every message with the real wire codec.
type fleet struct {
	sched  *exec.Realtime
	co     *shard.Coordinator
	agents []*shard.Agent
	load   shard.LoadReport
	cpu    float64
}

// buildFleet starts the agents, partitions the sky by the files' footprint
// and loads the files through Coordinator.LoadFiles.
func buildFleet(seed int64, n *night) (*fleet, error) {
	f := &fleet{sched: exec.NewRealtime(exec.RealtimeConfig{Seed: seed})}
	clients := make([]shard.Client, shardAgents)
	for i := range clients {
		a, err := shard.NewAgent(f.sched, shard.DefaultAgentConfig())
		if err != nil {
			return nil, fmt.Errorf("agent: %w", err)
		}
		f.agents = append(f.agents, a)
		clients[i] = shard.NewMemClient(f.sched, a, shard.NetModel{})
	}
	pm, err := shard.PartitionFromFiles(n.Files, shardAgents)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if f.co, err = shard.New(f.sched, pm, clients, shard.Config{}); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	var runErr error
	f.sched.RunInline("fleet-load", func(w exec.Worker) {
		if runErr = f.co.Hello(w); runErr != nil {
			return
		}
		cpu0 := cpuSeconds()
		f.load, runErr = f.co.LoadFiles(w, n.Files)
		f.cpu = cpuSeconds() - cpu0
	})
	if runErr != nil {
		return nil, fmt.Errorf("fleet load: %w", runErr)
	}
	return f, nil
}

// runShardQuery: per round, build and load a fleet, then run the query
// trace closed-loop through Coordinator.Execute, twice.
func runShardQuery(cfg runConfig) (*result, error) {
	r := newResult()
	rounds := repeatsFor(cfg.Seconds, 3.5)
	var setups, gens, rates, cpuRates []float64
	st := &readStats{}
	var scatter, gather []time.Duration
	var fanout, queriesRun, wireBytes int64
	var (
		n    *night
		f    *fleet
		plan []queries.Query
	)
	for round := 0; round < rounds; round++ {
		if f != nil {
			if err := f.co.Close(); err != nil {
				return nil, fmt.Errorf("close fleet: %w", err)
			}
		}
		n, f = nil, nil
		runtime.GC()
		start := time.Now()
		n = genNight(cfg.Seed, shardNightSpec)
		var err error
		if f, err = buildFleet(cfg.Seed, n); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, n.GenSeconds)
		r.attempted += len(n.Files)
		rates = append(rates, ratio(float64(f.load.RowsLoaded), f.load.Elapsed.Seconds()))
		cpuRates = append(cpuRates, ratio(float64(f.load.RowsLoaded), f.cpu))
		r.check(checkFleetObjects(f, n))
		plan = queriesOf(planReads(cfg.Seed*1000+int64(round), n, shardReads))

		settle()
		snap0 := f.co.Snapshot()
		for pass := 0; pass < 2; pass++ {
			f.sched.RunInline("trace", func(w exec.Worker) {
				for i, q := range plan {
					var tr *trace.Req
					if cfg.Trace {
						tr = &trace.Req{}
						tr.Begin(uint64(i), q.Class(), w.Now())
					}
					t0 := time.Now()
					res, err := f.co.Execute(w, q, tr)
					lat := time.Since(t0)
					r.op(err)
					if err != nil {
						continue
					}
					st.add(q, lat)
					st.noteCone(q, res.Stats)
					if cfg.Trace {
						scatter = append(scatter, tr.Stages[trace.StageScatter])
						gather = append(gather, tr.Stages[trace.StageGather])
					}
					if pass == 0 {
						r.check(checkAnswer(q, res.Objects, n.Objects, nil))
					}
				}
			})
		}
		snap1 := f.co.Snapshot()
		queriesRun += snap1.Queries - snap0.Queries
		for s := range snap1.ShardRequests {
			fanout += snap1.ShardRequests[s] - snap0.ShardRequests[s]
		}
		wireBytes += (snap1.BytesSent + snap1.BytesReceived) - (snap0.BytesSent + snap0.BytesReceived)
	}
	defer f.co.Close()
	logf("night: %d files, %d rows, %d bytes, error-free; fleet of %d agents loaded %d rows (reference rows once per agent), %d records filtered to other agents",
		len(n.Files), n.Rows, n.ActualBytes, shardAgents, f.load.RowsLoaded, f.load.RowsSkipped)
	logf("fleet load rows/s per round: %.0f", rates)

	// The fleet must answer exactly as one node holding the whole night.
	oracle, err := openRepo()
	if err != nil {
		return nil, err
	}
	srv, _ := loadServer(oracle, cfg.Seed)
	if _, err := timedLoad(srv, n.Files, 2); err != nil {
		return nil, fmt.Errorf("single-node load: %w", err)
	}
	r.check(checkAgainstOracle(f, oracle, plan))

	r.e2e["setup_s"] = median(setups)
	r.e2e["load_rows_per_s"] = median(rates)
	r.e2e["load_rows_per_cpu_s"] = median(cpuRates)
	if err := st.report(r); err != nil {
		return nil, err
	}
	r.e2e["queries_per_s"] = ratio(float64(st.n), st.busy.Seconds())

	if cfg.Trace {
		st.reportLayers(r)
		r.layer["catalog.generate_s"] = median(gens)
		r.layer["shard.load_rows_per_s"] = median(rates)
		r.layer["shard.scatter_us_p50"] = p50(durationsUs(scatter))
		r.layer["shard.scatter_us_p99"] = p99OrZero(durationsUs(scatter))
		r.layer["shard.gather_us_p50"] = p50(durationsUs(gather))
		r.layer["shard.fanout_per_query"] = ratio(float64(fanout), float64(queriesRun))
		r.layer["shard.wire_bytes_per_query"] = ratio(float64(wireBytes), float64(queriesRun))
		handle, codec, err := agentAndCodec(f, plan)
		if err != nil {
			return nil, err
		}
		r.layer["shard.agent_handle_us_p50"] = handle
		r.layer["shard.wire_codec_ns_per_query"] = codec
		cover, err := coverMicros(plan)
		if err != nil {
			return nil, err
		}
		r.layer["htm.cone_cover_us"] = cover
	}
	return r, nil
}

// checkFleetObjects requires the agents together to hold each loadable
// object exactly once, by object id.
func checkFleetObjects(f *fleet, n *night) error {
	seen := make(map[int64]int, len(n.Objects.byID))
	for i, a := range f.agents {
		ids, err := objectIDs(a.DB())
		if err != nil {
			return fmt.Errorf("agent %d: %w", i, err)
		}
		for _, id := range ids {
			if _, ok := n.Objects.byID[id]; !ok {
				return fmt.Errorf("agent %d holds object %d, which no correct load keeps", i, id)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("object %d is held by agents %d and %d", id, prev, i)
			}
			seen[id] = i
		}
	}
	if len(seen) != len(n.Objects.byID) {
		return fmt.Errorf("fleet holds %d objects, the generated text has %d loadable objects", len(seen), len(n.Objects.byID))
	}
	return nil
}

// checkAgainstOracle requires every answer of the fleet to equal the
// single-node answer.
func checkAgainstOracle(f *fleet, oracle *relstore.DB, plan []queries.Query) error {
	var err error
	f.sched.RunInline("oracle", func(w exec.Worker) {
		for _, q := range plan {
			want, werr := q.Run(oracle)
			if werr != nil {
				err = fmt.Errorf("%s: single node: %w", q.Signature(), werr)
				return
			}
			got, gerr := f.co.Execute(w, q, nil)
			if gerr != nil {
				err = fmt.Errorf("%s: fleet: %w", q.Signature(), gerr)
				return
			}
			wj, _ := json.Marshal(want.Objects)
			gj, _ := json.Marshal(got.Objects)
			if string(wj) != string(gj) {
				err = fmt.Errorf("%s: fleet answer (%d objects) differs from the single node's (%d)",
					q.Signature(), len(got.Objects), len(want.Objects))
				return
			}
		}
	})
	return err
}

// agentAndCodec replays the trace's first queries below the coordinator:
// each routed wire.Query goes straight to its target agents' Handle, and
// the query and every reply are encoded and decoded with the wire codec.
// It returns the median Handle time in µs and the codec time per query in
// ns.
func agentAndCodec(f *fleet, plan []queries.Query) (float64, float64, error) {
	if len(plan) > 400 {
		plan = plan[:400]
	}
	var handles []time.Duration
	var codec time.Duration
	var err error
	f.sched.RunInline("agent-replay", func(w exec.Worker) {
		var buf []byte
		for i, q := range plan {
			msg, ferr := wire.FromQuery(uint64(i), q)
			if ferr != nil {
				err = ferr
				return
			}
			targets, terr := f.co.Targets(q)
			if terr != nil {
				err = terr
				return
			}
			msgs := []wire.Msg{msg}
			for _, t := range targets {
				t0 := time.Now()
				reply := f.agents[t].Handle(w, msg)
				handles = append(handles, time.Since(t0))
				msgs = append(msgs, reply)
			}
			t0 := time.Now()
			for _, m := range msgs {
				buf = wire.Append(buf[:0], m)
				if _, _, derr := wire.Decode(buf); derr != nil {
					err = fmt.Errorf("wire decode: %w", derr)
					return
				}
			}
			codec += time.Since(t0)
		}
	})
	return p50(durationsUs(handles)), float64(codec) / float64(len(plan)), err
}
