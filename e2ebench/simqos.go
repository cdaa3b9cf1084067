package main

import (
	"fmt"
	"time"

	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/policy"
	"fscache/internal/sim"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// sim-qos: one Fig. 8 cell of the paper. 32 in-order cores share a 16-way
// L2 on sim.Multicore with Table II timing and 30% warm-up; 16 gromacs
// threads are QoS subjects with a fixed quota each and 16 lbm threads
// stream in the background. The L2 runs FS feedback with coarse-timestamp
// LRU (exact LRU as the reference ranker that measures AEF), then the same
// traces run under the FullAssoc ideal.

const (
	simThreads  = 32
	simSubjects = 16
	simWarmup   = 0.3
)

// simScale sizes the cell: the paper's full-scale geometry divided so that
// one round (both schemes) takes a few seconds.
type simScale struct {
	lines, subjectLines, l1Lines, shrink, traceLen int
}

var (
	simFull  = simScale{lines: 4096, subjectLines: 128, l1Lines: 64, shrink: 24, traceLen: 4000}
	simSmall = simScale{lines: 2048, subjectLines: 64, l1Lines: 32, shrink: 48, traceLen: 1000}
)

type simQoS struct {
	sc      simScale
	seed    uint64
	traces  []*trace.Trace
	targets []int
	firstN  int64 // accesses in one pass over every trace
}

func setupSimQoS(e env, tr *tracer) (runner, error) {
	sc := simFull
	if e.small {
		sc = simSmall
	}
	s := &simQoS{sc: sc, seed: xrand.Mix64(e.seed ^ 0x51a0f8), traces: make([]*trace.Trace, simThreads)}
	t0 := now()
	for t := range s.traces {
		bench := "lbm"
		if t < simSubjects {
			bench = "gromacs"
		}
		p, err := workload.ByName(bench)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		gen := p.Shrunk(sc.shrink).NewGenerator(s.seed, t)
		s.traces[t] = sim.BuildL2Trace(gen, sim.NewL1(sc.l1Lines, 4), sc.traceLen, 0)
		if s.traces[t].Len() != sc.traceLen {
			return nil, fmt.Errorf("thread %d: L1 filter produced %d of %d L2 accesses", t, s.traces[t].Len(), sc.traceLen)
		}
		s.firstN += int64(s.traces[t].Len())
	}
	if tr.on() {
		t1 := now()
		tr.record("sim.BuildL2Trace", 0, 0, t0, t1)
		tr.layer["sim.trace_build_s"] = float64(t1-t0) / 1e9
	}
	s.targets = policy.QoS{Subjects: simSubjects, Background: simThreads - simSubjects, SubjectLines: sc.subjectLines}.Targets(sc.lines)
	return s, nil
}

// build assembles the shared L2. The simulated runs track each partition's
// deviation from target after every replacement (the paper's Fig. 5 size
// deviation); the replays that time single accesses do not.
func (s *simQoS) build(scheme experiments.SchemeName, deviation bool) *experiments.Built {
	b := experiments.Build(experiments.CacheSpec{
		Lines:          s.sc.lines,
		Array:          experiments.Array16Way,
		Rank:           futility.CoarseLRU,
		Scheme:         scheme,
		Parts:          simThreads,
		Seed:           0xb1d, // the cache is fixed; the seed varies the traces
		TrackDeviation: deviation,
	}, experiments.FSFeedbackParams{})
	b.SetTargets(s.targets)
	return b
}

// simRun runs one scheme's Multicore and checks it.
func (s *simQoS) simRun(scheme experiments.SchemeName, tr *tracer, parent uint64) (*experiments.Built, []sim.ThreadResult, time.Duration, error) {
	b := s.build(scheme, true)
	m := sim.NewMulticore(b.Cache, sim.DefaultTiming(), s.traces)
	m.SetWarmup(simWarmup)
	t0 := time.Now()
	res := m.Run()
	d := time.Since(t0)
	if tr.on() {
		start := int64(t0.Sub(processStart))
		tr.record("sim.Multicore.Run "+string(scheme), parent, 0, start, start+int64(d))
	}
	for t, r := range res {
		if err := checkThread(t, r, s.traces[t], int(simWarmup*float64(s.traces[t].Len()))); err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", scheme, err)
		}
	}
	if err := b.Cache.CheckInvariants(); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", scheme, err)
	}
	if err := checkFull(b.Cache.Sizes(), s.sc.lines); err != nil {
		return nil, nil, 0, fmt.Errorf("%s: %w", scheme, err)
	}
	return b, res, d, nil
}

func (s *simQoS) round(tr *tracer) (*roundResult, error) {
	rr := &roundResult{ops: 2 * s.firstN, e2e: map[string]float64{}, layer: map[string]float64{}}
	rr.timedAt = time.Now()
	c0 := sampleCPU()
	fs, resFS, dFS, err := s.simRun(experiments.SchemeFS, tr, 0)
	if err != nil {
		return nil, err
	}
	c1 := sampleCPU()
	fa, _, dFA, err := s.simRun(experiments.SchemeFullAssoc, tr, 0)
	if err != nil {
		return nil, err
	}
	c2 := sampleCPU()
	for p := 0; p < simThreads; p++ {
		if err := checkExactLRU(p, fa.Cache.Stats(p).EvictFutility); err != nil {
			return nil, fmt.Errorf("fullassoc: %w", err)
		}
	}
	rr.e2e["macc_s"] = float64(2*s.firstN) / (dFS + dFA).Seconds() / 1e6
	// CPU per simulated access, excluding the FullAssoc build between runs.
	cpu := procLayers(nil, c0, c1, s.firstN) + procLayers(nil, c1, c2, s.firstN)
	rr.e2e["cpu_us_per_req"] = cpu / 2
	// The two schemes' runs are the round's pieces (see pieceMedians).
	rr.timedOps = 2 * s.firstN
	rr.wall = []float64{dFS.Seconds(), dFA.Seconds()}
	rr.cpu = []float64{cpuSecs(c0, c1), cpuSecs(c1, c2)}
	if tr.on() {
		procLayers(rr.layer, c0, c2, 2*s.firstN)
	}

	// Fig. 7/8 statistics of the FS run: subject miss rate, pooled subject
	// AEF, subject size deviation from quota, and throughput.
	var miss, occ []float64
	pooled := stats.NewHistogram(64)
	ipc := 0.0
	for t := 0; t < simThreads; t++ {
		ipc += resFS[t].IPC()
		if t >= simSubjects {
			continue
		}
		miss = append(miss, resFS[t].MissRate())
		occ = append(occ, fs.Cache.Stats(t).Deviation.MAD()/float64(s.sc.subjectLines))
		pooled.Merge(fs.Cache.Stats(t).EvictFutility)
	}
	rr.e2e["miss_ratio"] = mean(miss)
	rr.e2e["aef"] = pooled.Mean()
	rr.e2e["occ_err"] = mean(occ)
	rr.e2e["ipc_sum"] = ipc
	if tr.on() {
		var misses, evictions, forced uint64
		for p := 0; p < simThreads; p++ {
			st := fs.Cache.Stats(p)
			misses += st.Misses
			evictions += st.Evictions
			forced += st.ForcedEvict
		}
		rr.layer["core.misses"] = float64(misses)
		rr.layer["core.evictions"] = float64(evictions)
		rr.layer["core.forced_evictions"] = float64(forced)
		rr.layer["sim.run_s.fs"] = dFS.Seconds()
		rr.layer["sim.run_s.fullassoc"] = dFA.Seconds()
	}

	// Per-access latency of the L2 model: the same traces replayed
	// round-robin into a freshly built FS cache, one access in
	// sampleEvery timed. Traced rounds replay the FullAssoc ideal too,
	// and subtract each replay's core time from the Multicore run time
	// to estimate the event loop's self time.
	var lat latencies
	replayFS := s.replay(experiments.SchemeFS, &lat, tr)
	lat.fill(rr.e2e)
	if tr.on() {
		var latFA latencies
		replayFA := s.replay(experiments.SchemeFullAssoc, &latFA, tr)
		rr.layer["core.hit_ns.fs"] = median(lat.get)
		rr.layer["core.miss_ns.fs"] = median(lat.set)
		rr.layer["core.hit_ns.fullassoc"] = median(latFA.get)
		rr.layer["core.miss_ns.fullassoc"] = median(latFA.set)
		rr.layer["core.hit_ns"] = rr.layer["core.hit_ns.fs"]
		rr.layer["core.miss_ns"] = rr.layer["core.miss_ns.fs"]
		rr.layer["sim.self_s.fs"] = (dFS - replayFS).Seconds()
		rr.layer["sim.self_s.fullassoc"] = (dFA - replayFA).Seconds()
	}
	return rr, nil
}

// replay drives every trace once, round-robin, into a fresh cache of the
// scheme, timing one access in sampleEvery, and returns the loop's total
// time.
func (s *simQoS) replay(scheme experiments.SchemeName, lat *latencies, tr *tracer) time.Duration {
	b := s.build(scheme, false)
	c := b.Cache
	name := "core.Cache.Access " + string(scheme)
	t0 := time.Now()
	n := uint64(0)
	for i := 0; i < s.sc.traceLen; i++ {
		for t := 0; t < simThreads; t++ {
			a := s.traces[t].Accesses[i]
			n++
			if !sampled(int(n)) {
				c.Access(a.Addr, t, trace.NoNextUse)
				continue
			}
			start := now()
			r := c.Access(a.Addr, t, trace.NoNextUse)
			end := now()
			lat.add(r.Hit, end-start)
			tr.record(name, 0, 0, start, end)
		}
	}
	tr.count(name, n)
	return time.Since(t0)
}

// close implements runner.
func (s *simQoS) close() error { return nil }
