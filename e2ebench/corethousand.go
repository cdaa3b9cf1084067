package main

import (
	"fmt"
	"path/filepath"
	"time"

	"fscache/internal/core"
	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// core-thousand: examples/scenarios/thousand-parts.yaml (1000 tenants on a
// 16384-line 16-way cache) streamed single-threaded into an FS/CoarseLRU
// core.Cache built by experiments.Build, with the exact reference ranker and
// the spec's warm-up. The stream is compiled and generated during set-up.

// thousandSpec is the committed spec the workload streams.
const thousandSpec = "examples/scenarios/thousand-parts.yaml"

// occEvery is the access interval at which partition sizes are read for
// the occupancy error (outside the timed intervals).
const occEvery = 256

// specOp is one pre-generated scenario operation. It holds no pointers, so
// the garbage collector never scans the streams.
type specOp struct {
	addr uint64
	// part is the accessing partition, or -1-i for churn event i, whose
	// new targets are churnTargets[i].
	part int32
	gap  uint32
}

func (op specOp) churn() bool { return op.part < 0 }

// stream is one pre-generated operation sequence and its churn targets.
type stream struct {
	ops          []specOp
	churnTargets [][]int
}

// loadStream compiles a committed spec and generates one reseeded stream of
// scale×spec.Accesses operations per seed.
func loadStream(e env, rel string, scale int, seeds []uint64, tr *tracer) (*scenario.Compiled, []stream, error) {
	t0 := now()
	ls, err := scenario.LoadSpec(filepath.Join(e.root, rel))
	if err != nil {
		return nil, nil, fmt.Errorf("load %s: %w", rel, err)
	}
	ls.Spec.Accesses *= scale
	comp, err := scenario.Compile(ls.Spec, ls.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", rel, err)
	}
	t1 := now()
	streams := make([]stream, len(seeds))
	n := 0
	for i, seed := range seeds {
		st := comp.NewStreamSeeded(ls.Spec.Cache.Lines, seed)
		out := &streams[i]
		out.ops = make([]specOp, 0, ls.Spec.Accesses)
		var op scenario.Op
		for st.Next(&op) {
			if op.Kind == scenario.OpChurn {
				out.ops = append(out.ops, specOp{part: int32(-1 - len(out.churnTargets))})
				out.churnTargets = append(out.churnTargets, append([]int(nil), op.Targets...))
				continue
			}
			out.ops = append(out.ops, specOp{addr: op.Access.Addr, part: int32(op.Part), gap: op.Access.Gap})
		}
		n += len(out.ops)
	}
	if tr.on() {
		t2 := now()
		c := tr.record("scenario.Compile", 0, 0, t0, t1)
		tr.record("scenario.Stream.Next", c, 0, t1, t2)
		tr.count("scenario.Stream.Next", uint64(n))
		tr.layer["scenario.gen_ns_per_op"] = float64(t2-t0) / float64(n)
	}
	return comp, streams, nil
}

// distinct counts the distinct addresses over every stream.
func distinct(streams []stream) int {
	seen := map[uint64]struct{}{}
	for _, st := range streams {
		for _, op := range st.ops {
			if !op.churn() {
				seen[op.addr] = struct{}{}
			}
		}
	}
	return len(seen)
}

type coreThousand struct {
	comp *scenario.Compiled
	stream
	lines    int
	ways     int
	warm     int // accesses before the timed phase
	distinct int
	// results is reused by every round.
	results []packed
}

func setupCoreThousand(e env, tr *tracer) (runner, error) {
	scale := 4 // accesses: four times the spec's budget
	if e.small {
		scale = 1
	}
	comp, streams, err := loadStream(e, thousandSpec, scale, []uint64{xrand.Mix64(e.seed ^ 0x7c0e)}, tr)
	if err != nil {
		return nil, err
	}
	c := &coreThousand{
		comp:   comp,
		stream: streams[0],
		lines:  comp.Spec.Cache.Lines,
		ways:   comp.Spec.Cache.Ways,
	}
	if e.small {
		// The package tests stream a prefix at a quarter of the size.
		c.ops = c.ops[:len(c.ops)/4]
	}
	c.warm = int(comp.Spec.Warmup * float64(len(c.ops)))
	c.distinct = distinct([]stream{c.stream})
	c.results = make([]packed, len(c.ops))
	return c, nil
}

// packed is one access result as the timed loop records it.
type packed struct {
	evictedAddr uint64
	evictedPart int32
	flags       uint8 // 1 hit, 2 evicted
}

func pack(r core.AccessResult) packed {
	p := packed{evictedAddr: r.EvictedAddr, evictedPart: int32(r.EvictedPart)}
	if r.Hit {
		p.flags |= 1
	}
	if r.Evicted {
		p.flags |= 2
	}
	return p
}

func (p packed) result() core.AccessResult {
	return core.AccessResult{Hit: p.flags&1 != 0, Evicted: p.flags&2 != 0, EvictedAddr: p.evictedAddr, EvictedPart: int(p.evictedPart)}
}

func (c *coreThousand) round(tr *tracer) (*roundResult, error) {
	parts := c.comp.Parts()
	b := experiments.Build(experiments.CacheSpec{
		Lines:  c.lines,
		Ways:   c.ways,
		Array:  experiments.Array16Way,
		Rank:   futility.CoarseLRU,
		Scheme: experiments.SchemeFS,
		Parts:  parts,
		Seed:   c.comp.Spec.Seed, // the cache is fixed; the seed varies the stream
	}, experiments.FSFeedbackParams{})
	targets := c.comp.Targets(c.lines, c.comp.InitialLive())
	b.SetTargets(targets)
	cache := b.Cache
	results := c.results

	// Warm-up fill (part of set-up in the first round).
	for i, op := range c.ops[:c.warm] {
		if op.churn() {
			targets = c.churnTargets[-1-op.part]
			b.SetTargets(targets)
			continue
		}
		results[i] = pack(cache.Access(op.addr, int(op.part), trace.NoNextUse))
	}
	cache.ResetStats()

	rr := &roundResult{ops: int64(len(c.ops)), e2e: map[string]float64{}, layer: map[string]float64{}}
	var lat latencies
	var occ []float64
	instrs := make([]uint64, parts)
	var timed time.Duration
	var accesses int64
	rr.timedAt = time.Now()
	c0 := sampleCPU()
	for lo := c.warm; lo < len(c.ops); lo += occEvery {
		hi := min(lo+occEvery, len(c.ops))
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			op := &c.ops[i]
			if op.churn() {
				targets = c.churnTargets[-1-op.part]
				b.SetTargets(targets)
				continue
			}
			if !sampled(i) {
				results[i] = pack(cache.Access(op.addr, int(op.part), trace.NoNextUse))
				continue
			}
			start := now()
			r := cache.Access(op.addr, int(op.part), trace.NoNextUse)
			end := now()
			results[i] = pack(r)
			lat.add(r.Hit, end-start)
			tr.record("core.Cache.Access", 0, 0, start, end)
		}
		d := time.Since(t0)
		timed += d
		rr.wall = append(rr.wall, d.Seconds())
		occ = append(occ, relErr(cache.Sizes(), targets))
	}
	c1 := sampleCPU()
	for _, op := range c.ops[c.warm:] {
		if !op.churn() {
			instrs[op.part] += uint64(op.gap) + 1
			accesses++
		}
	}
	tr.count("core.Cache.Access", uint64(len(c.ops)))

	// Check every result against the benchmark's own residency model.
	model := newResidency(parts)
	var misses int64
	for i, op := range c.ops {
		if op.churn() {
			continue
		}
		r := results[i].result()
		if !r.Hit {
			misses++
		}
		if err := model.apply(op.addr, int(op.part), r); err != nil {
			return nil, fmt.Errorf("access %d: %w", i, err)
		}
	}
	if err := model.compare(cache.Sizes()); err != nil {
		return nil, err
	}
	if err := checkColdMisses(misses, c.distinct); err != nil {
		return nil, err
	}
	if err := cache.CheckInvariants(); err != nil {
		return nil, err
	}

	var hits, miss, evictions, forced uint64
	pooled := stats.NewHistogram(64)
	ipc := 0.0
	for p := 0; p < parts; p++ {
		st := cache.Stats(p)
		hits += st.Hits
		miss += st.Misses
		evictions += st.Evictions
		forced += st.ForcedEvict
		pooled.Merge(st.EvictFutility)
		ipc += partIPC(instrs[p], st.Hits+st.Misses, st.Misses)
	}
	rr.timedOps = accesses
	rr.e2e["macc_s"] = float64(accesses) / timed.Seconds() / 1e6
	rr.e2e["miss_ratio"] = float64(miss) / float64(hits+miss)
	rr.e2e["aef"] = pooled.Mean()
	rr.e2e["occ_err"] = mean(occ)
	rr.e2e["ipc_sum"] = ipc
	rr.e2e["cpu_us_per_req"] = procLayers(rr.layer, c0, c1, accesses)
	lat.fill(rr.e2e)
	if tr.on() {
		rr.layer["core.hit_ns"] = median(lat.get)
		rr.layer["core.miss_ns"] = median(lat.set)
		rr.layer["core.misses"] = float64(miss)
		rr.layer["core.evictions"] = float64(evictions)
		rr.layer["core.forced_evictions"] = float64(forced)
	}
	return rr, nil
}

func (c *coreThousand) close() error { return nil }
