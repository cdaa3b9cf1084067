package main

import (
	"fmt"
	"sync"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// engine-drift: examples/scenarios/zipf-drift.yaml on a shardcache.Engine
// with the serving defaults (4 shards × 4 stripes). Two workers each replay
// their own reseeded stream; every access calls Engine.Access and then
// Allocator.Observe, and a background rebalancer polls the allocator under
// the phase objective every rebalanceEvery.

const (
	driftSpec    = "examples/scenarios/zipf-drift.yaml"
	driftWorkers = 2
	// rebalanceEvery is engine-drift's rebalancer tick, a fifth of
	// fsserve's 250 ms default: the occupancy error moves with each target
	// install, and a run must average over enough of them to repeat.
	rebalanceEvery = 50 * time.Millisecond
	// driftSegment is the number of accesses each worker makes between two
	// barriers of the timed phase. The occupancy error is read at each
	// barrier, while the timer is stopped and the engine is quiet.
	driftSegment = 2048
)

type engineDrift struct {
	comp     *scenario.Compiled
	streams  []stream
	lines    int
	ways     int
	warm     int // per-worker accesses before the timed phase
	distinct int
}

func setupEngineDrift(e env, tr *tracer) (runner, error) {
	scale := 10 // accesses per worker: ten times the spec's budget
	if e.small {
		scale = 1
	}
	seed := xrand.Mix64(e.seed ^ 0xd21f7)
	seeds := make([]uint64, driftWorkers)
	for w := range seeds {
		seeds[w] = xrand.Mix64(seed ^ uint64(w+1)*0x9e3779b97f4a7c15)
	}
	comp, streams, err := loadStream(e, driftSpec, scale, seeds, tr)
	if err != nil {
		return nil, err
	}
	for _, st := range streams {
		for i := range st.ops {
			// Finalize the structured scenario addresses as fsload does
			// (a bijection, so client address spaces stay disjoint).
			st.ops[i].addr = xrand.Mix64(st.ops[i].addr)
		}
	}
	d := &engineDrift{
		comp:    comp,
		streams: streams,
		lines:   comp.Spec.Cache.Lines,
		ways:    comp.Spec.Cache.Ways,
	}
	if e.small {
		for w := range d.streams {
			d.streams[w].ops = d.streams[w].ops[:len(d.streams[w].ops)/4]
		}
	}
	d.warm = int(comp.Spec.Warmup * float64(len(d.streams[0].ops)))
	d.distinct = distinct(d.streams)
	return d, nil
}

// driftWorker is one worker's per-round state.
type driftWorker struct {
	ledger *ledger
	lat    latencies
	tr     *tracer
	// post-warm-up hits and misses per partition, and instructions.
	hits, misses, instrs []uint64
	evictSum             float64
	evictN               int
	observeNS            []float64
	accesses             int64
}

func (d *engineDrift) round(tr *tracer) (*roundResult, error) {
	parts := d.comp.Parts()
	eng := shardcache.New(shardcache.Config{
		Lines:   d.lines,
		Ways:    d.ways,
		Shards:  4,
		Stripes: 4,
		Parts:   parts,
		Ranking: futility.CoarseLRU,
		Seed:    d.comp.Spec.Seed, // the engine is fixed; the seed varies the streams
	})
	eng.SetTargets(d.comp.Targets(d.lines, d.comp.InitialLive()))
	cfg, err := d.comp.AllocConfig("phase")
	if err != nil {
		return nil, err
	}
	streamOps := 0
	for _, st := range d.streams {
		streamOps += len(st.ops)
	}
	cfg.LogCap = streamOps/cfg.EpochAccesses + 2 // keep every decision for the check
	al := alloc.New(cfg)
	rb := eng.StartRebalancerSource(rebalanceEvery, al)

	ws := make([]*driftWorker, driftWorkers)
	for w := range ws {
		ws[w] = &driftWorker{
			ledger: newLedger(parts),
			hits:   make([]uint64, parts),
			misses: make([]uint64, parts),
			instrs: make([]uint64, parts),
		}
		if tr.on() {
			ws[w].tr = newTracer()
		}
	}
	// Warm-up: both workers fill concurrently, then meet at a barrier.
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d.work(eng, al, ws[w], w, d.streams[w].ops[:d.warm], 0, false)
		}(w)
	}
	wg.Wait()

	// Timed phase: both workers run driftSegment accesses each, meet at a
	// barrier, and the occupancy error is read before the next segment.
	rr := &roundResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	var occ []float64
	var sizes []int
	var elapsed time.Duration
	rr.timedAt = time.Now()
	c0 := sampleCPU()
	longest := 0
	for _, st := range d.streams {
		longest = max(longest, len(st.ops))
	}
	for lo := d.warm; lo < longest; lo += driftSegment {
		t0 := time.Now()
		for w := range ws {
			ops := d.streams[w].ops
			if lo >= len(ops) {
				continue
			}
			wg.Add(1)
			go func(w int, seg []specOp) {
				defer wg.Done()
				d.work(eng, al, ws[w], w, seg, lo, true)
			}(w, ops[lo:min(lo+driftSegment, len(ops))])
		}
		wg.Wait()
		dt := time.Since(t0)
		elapsed += dt
		rr.wall = append(rr.wall, dt.Seconds())
		sizes = eng.PartSizes(sizes)
		occ = append(occ, relErr(sizes, eng.Targets()))
	}
	c1 := sampleCPU()
	rb.Stop()

	// Checks, once the run is quiet.
	total := newLedger(parts)
	var accesses int64
	var lat latencies
	var hits, misses uint64
	var observe []float64
	evictSum, evictN := 0.0, 0
	ipc := 0.0
	for _, w := range ws {
		total.merge(w.ledger)
		accesses += w.accesses
		lat.get = append(lat.get, w.lat.get...)
		lat.set = append(lat.set, w.lat.set...)
		observe = append(observe, w.observeNS...)
		evictSum += w.evictSum
		evictN += w.evictN
		w.tr.count("shardcache.Engine.Access", uint64(w.accesses))
		w.tr.count("alloc.Allocator.Observe", uint64(w.accesses))
		tr.merge(w.tr)
	}
	for p := 0; p < parts; p++ {
		var h, m, in uint64
		for _, w := range ws {
			h += w.hits[p]
			m += w.misses[p]
			in += w.instrs[p]
		}
		hits += h
		misses += m
		ipc += partIPC(in, h+m, m)
	}
	if err := total.check(eng.PartSizes(nil), d.lines); err != nil {
		return nil, err
	}
	if err := eng.CheckInvariants(); err != nil {
		return nil, err
	}
	log, dropped := al.Log()
	if dropped > 0 {
		return nil, fmt.Errorf("allocator dropped %d decisions before they could be checked", dropped)
	}
	if err := checkDecisions(log, d.lines, cfg.MinLines); err != nil {
		return nil, err
	}
	if err := checkColdMisses(total.totalMisses(), d.distinct); err != nil {
		return nil, err
	}

	for _, st := range d.streams {
		rr.ops += int64(len(st.ops))
	}
	rr.timedOps = accesses
	rr.e2e["macc_s"] = float64(accesses) / elapsed.Seconds() / 1e6
	rr.e2e["miss_ratio"] = float64(misses) / float64(hits+misses)
	rr.e2e["aef"] = evictSum / float64(evictN)
	rr.e2e["occ_err"] = mean(occ)
	rr.e2e["ipc_sum"] = ipc
	rr.e2e["cpu_us_per_req"] = procLayers(rr.layer, c0, c1, accesses)
	lat.fill(rr.e2e)
	if tr.on() {
		snap := eng.Snapshot()
		var aefSum float64
		var aefN uint64
		for p := range snap.Parts {
			aefSum += snap.Parts[p].EvictFutility.Sum()
			aefN += snap.Parts[p].EvictFutility.N()
		}
		rr.layer["shardcache.hit_ns"] = median(lat.get)
		rr.layer["shardcache.miss_ns"] = median(lat.set)
		rr.layer["shardcache.rebalances"] = float64(rb.Rebalances())
		rr.layer["shardcache.installs"] = float64(rb.Installs())
		rr.layer["shardcache.aef"] = aefSum / float64(aefN)
		rr.layer["shardcache.occ_err"] = mean(occ)
		rr.layer["alloc.observe_ns"] = median(observe)
		rr.layer["alloc.epochs"] = float64(al.Epoch())
		reallocs, est := 0, 0.0
		for _, dec := range log {
			if dec.Changed {
				reallocs++
			}
			est += dec.MissRatio
		}
		rr.layer["alloc.reallocations"] = float64(reallocs)
		if len(log) > 0 {
			rr.layer["alloc.est_miss_ratio"] = est / float64(len(log))
		}
	}
	return rr, nil
}

// work replays ops, which start at index base of the worker's stream, on
// one worker. Every result feeds the worker's ledger; timed passes also
// sample latencies and count post-warm-up statistics.
func (d *engineDrift) work(eng *shardcache.Engine, al *alloc.Allocator, w *driftWorker, id int, ops []specOp, base int, timed bool) {
	var res core.AccessResult
	for j := range ops {
		op := &ops[j]
		if op.churn() {
			continue // the allocator is the only target authority
		}
		i := base + j
		part := int(op.part)
		if !timed || !sampled(i) {
			res = eng.Access(op.addr, part)
			al.Observe(part, op.addr)
		} else {
			start := now()
			res = eng.Access(op.addr, part)
			mid := now()
			al.Observe(part, op.addr)
			end := now()
			w.lat.add(res.Hit, mid-start)
			w.observeNS = append(w.observeNS, float64(end-mid))
			req := uint64(id+1)<<40 | uint64(i)
			w.tr.record("shardcache.Engine.Access", 0, req, start, mid)
			w.tr.record("alloc.Allocator.Observe", 0, req, mid, end)
		}
		w.ledger.add(part, res)
		if !timed {
			continue
		}
		w.accesses++
		w.instrs[part] += uint64(op.gap) + 1
		if res.Hit {
			w.hits[part]++
		} else {
			w.misses[part]++
		}
		if res.Evicted {
			w.evictSum += res.EvictedFutility
			w.evictN++
		}
	}
}

func (d *engineDrift) close() error { return nil }
