package main

import (
	"strings"
	"testing"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/server"
	"fscache/internal/sim"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// Each checker is fed the program's real outputs with one planted fault and
// must report it; the unplanted outputs must pass.

// cacheRun streams a small random access sequence into an FS cache and
// returns the addresses, partitions, results and final sizes.
func cacheRun(t *testing.T) ([]uint64, []int, []core.AccessResult, []int) {
	t.Helper()
	const parts, lines = 4, 256
	b := experiments.Build(experiments.CacheSpec{
		Lines: lines, Array: experiments.Array16Way, Rank: futility.CoarseLRU,
		Scheme: experiments.SchemeFS, Parts: parts, Seed: 3,
	}, experiments.FSFeedbackParams{})
	b.SetTargets([]int{64, 64, 64, 64})
	rng := xrand.New(11)
	var addrs []uint64
	var ps []int
	var res []core.AccessResult
	for i := 0; i < 4000; i++ {
		p := rng.Intn(parts)
		a := uint64(p)<<32 | uint64(rng.Intn(150))
		addrs = append(addrs, a)
		ps = append(ps, p)
		res = append(res, b.Cache.Access(a, p, trace.NoNextUse))
	}
	return addrs, ps, res, append([]int(nil), b.Cache.Sizes()...)
}

func replayResidency(addrs []uint64, ps []int, res []core.AccessResult, sizes []int) error {
	m := newResidency(len(sizes))
	for i := range addrs {
		if err := m.apply(addrs[i], ps[i], res[i]); err != nil {
			return err
		}
	}
	return m.compare(sizes)
}

func TestResidencyAcceptsRealRun(t *testing.T) {
	addrs, ps, res, sizes := cacheRun(t)
	if err := replayResidency(addrs, ps, res, sizes); err != nil {
		t.Fatal(err)
	}
}

func TestResidencyCatchesFlippedHit(t *testing.T) {
	addrs, ps, res, sizes := cacheRun(t)
	for i := len(res) / 2; i < len(res); i++ {
		if res[i].Hit {
			res[i].Hit = false
			break
		}
	}
	err := replayResidency(addrs, ps, res, sizes)
	if err == nil || !strings.Contains(err.Error(), "missed, but the model holds it") {
		t.Fatalf("flipped hit not reported: %v", err)
	}
}

func TestResidencyCatchesDroppedEvictedAddr(t *testing.T) {
	addrs, ps, res, sizes := cacheRun(t)
	for i := len(res) - 1; i >= 0; i-- {
		if res[i].Evicted {
			res[i].Evicted = false
			res[i].EvictedAddr = 0
			break
		}
	}
	if err := replayResidency(addrs, ps, res, sizes); err == nil {
		t.Fatal("dropped eviction not reported")
	}
}

func TestLedgerCatchesDroppedEviction(t *testing.T) {
	_, ps, res, sizes := cacheRun(t)
	l := newLedger(len(sizes))
	for i := range res {
		l.add(ps[i], res[i])
	}
	if err := l.check(sizes, 256); err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Evicted {
			res[i].Evicted = false
			break
		}
	}
	l = newLedger(len(sizes))
	for i := range res {
		l.add(ps[i], res[i])
	}
	if err := l.check(sizes, 256); err == nil {
		t.Fatal("dropped eviction not reported")
	}
}

// simRun runs a tiny Multicore and returns its traces and results.
func simRun(t *testing.T) ([]*trace.Trace, []sim.ThreadResult) {
	t.Helper()
	b := experiments.Build(experiments.CacheSpec{
		Lines: 512, Array: experiments.Array16Way, Rank: futility.CoarseLRU,
		Scheme: experiments.SchemeFS, Parts: 2, Seed: 5,
	}, experiments.FSFeedbackParams{})
	b.SetTargets([]int{256, 256})
	rng := xrand.New(7)
	traces := make([]*trace.Trace, 2)
	for i := range traces {
		tr := &trace.Trace{}
		for j := 0; j < 2000; j++ {
			tr.Accesses = append(tr.Accesses, trace.Access{Addr: uint64(i)<<32 | uint64(rng.Intn(600)), Gap: uint32(rng.Intn(20))})
		}
		traces[i] = tr
	}
	m := sim.NewMulticore(b.Cache, sim.DefaultTiming(), traces)
	m.SetWarmup(simWarmup)
	return traces, m.Run()
}

func TestCheckThreadCatchesShortCycles(t *testing.T) {
	traces, res := simRun(t)
	warm := int(simWarmup * float64(traces[0].Len()))
	if err := checkThread(0, res[0], traces[0], warm); err != nil {
		t.Fatal(err)
	}
	r := res[0]
	r.Cycles = r.Instructions + 12*(r.Hits+r.Misses) // memory latency lost
	if err := checkThread(0, r, traces[0], warm); err == nil {
		t.Fatal("cycles below the latency floor not reported")
	}
	r = res[0]
	r.Hits-- // one access lost
	if err := checkThread(0, r, traces[0], warm); err == nil {
		t.Fatal("lost access not reported")
	}
}

func TestCheckExactLRUCatchesNonLRUEviction(t *testing.T) {
	h := stats.NewHistogram(64)
	for i := 0; i < 100; i++ {
		h.Add(1)
	}
	if err := checkExactLRU(0, h); err != nil {
		t.Fatal(err)
	}
	h.Add(0.97)
	if err := checkExactLRU(0, h); err == nil {
		t.Fatal("eviction below futility 1 not reported")
	}
}

func TestCheckFullCatchesLostLine(t *testing.T) {
	if err := checkFull([]int{10, 6}, 16); err != nil {
		t.Fatal(err)
	}
	if err := checkFull([]int{10, 5}, 16); err == nil {
		t.Fatal("lost line not reported")
	}
}

func TestCheckGetCatchesOlderVersion(t *testing.T) {
	key := []byte("t0-k7")
	if err := checkGet(key, true, appendValue(nil, key, 3), 3); err != nil {
		t.Fatal(err)
	}
	if err := checkGet(key, false, nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := checkGet(key, true, appendValue(nil, key, 2), 3); err == nil {
		t.Fatal("GET answered with an older version not reported")
	}
	if err := checkGet(key, true, appendValue(nil, []byte("t0-k8"), 3), 3); err == nil {
		t.Fatal("GET answered with another key's value not reported")
	}
	if err := checkGet(key, true, appendValue(nil, key, 1), 0); err == nil {
		t.Fatal("GET of a never-set key answered found not reported")
	}
}

func TestCheckDecisionsCatchesBrokenTargets(t *testing.T) {
	ok := []alloc.Decision{{Epoch: 1, Targets: []int{64, 192}}}
	if err := checkDecisions(ok, 256, 64); err != nil {
		t.Fatal(err)
	}
	if err := checkDecisions([]alloc.Decision{{Epoch: 2, Targets: []int{64, 256}}}, 256, 64); err == nil {
		t.Fatal("over-budget decision not reported")
	}
	if err := checkDecisions([]alloc.Decision{{Epoch: 3, Targets: []int{32, 192}}}, 256, 64); err == nil {
		t.Fatal("below-floor decision not reported")
	}
}

func TestCheckExactRepeatCatchesDrift(t *testing.T) {
	a := &roundResult{e2e: map[string]float64{"miss_ratio": 0.5, "aef": 0.9, "occ_err": 0.1, "ipc_sum": 3}}
	b := &roundResult{e2e: map[string]float64{"miss_ratio": 0.5, "aef": 0.9, "occ_err": 0.1, "ipc_sum": 3}}
	if err := checkExactRepeat([]*roundResult{a, b}); err != nil {
		t.Fatal(err)
	}
	b.e2e["aef"] = 0.9000001
	if err := checkExactRepeat([]*roundResult{a, b}); err == nil {
		t.Fatal("differing rounds not reported")
	}
}

func TestCheckColdMissesCatchesLostMiss(t *testing.T) {
	addrs, _, res, _ := cacheRun(t)
	// Up to the first eviction every miss is the first touch of its
	// address, so the misses equal the distinct addresses exactly.
	n := 0
	for n < len(res) && !res[n].Evicted {
		n++
	}
	seen := map[uint64]bool{}
	var misses int64
	for i := 0; i < n; i++ {
		seen[addrs[i]] = true
		if !res[i].Hit {
			misses++
		}
	}
	if misses != int64(len(seen)) {
		t.Fatalf("%d cold misses on %d distinct addresses", misses, len(seen))
	}
	if err := checkColdMisses(misses, len(seen)); err != nil {
		t.Fatal(err)
	}
	if err := checkColdMisses(misses-1, len(seen)); err == nil {
		t.Fatal("misses below the distinct addresses not reported")
	}
}

func TestCheckServerCountsCatchesMiscount(t *testing.T) {
	tenants := []server.TenantStats{{Hits: 70, Misses: 30}, {Hits: 5, Misses: 45}}
	gets, found := []uint64{100, 50}, []uint64{70, 5}
	if err := checkServerCounts(tenants, gets, found); err != nil {
		t.Fatal(err)
	}
	tenants[1].Hits++ // one GET counted as a hit that the client saw missing
	tenants[1].Misses--
	if err := checkServerCounts(tenants, gets, found); err == nil {
		t.Fatal("off-by-one hit count not reported")
	}
	tenants[1].Hits--
	tenants[0].Misses++ // one GET the client never sent
	if err := checkServerCounts(tenants, gets, found); err == nil {
		t.Fatal("GET count above the client's not reported")
	}
}

func TestCheckUndegradedCatchesDegradation(t *testing.T) {
	clean := server.StatsSnapshot{Tenants: []server.TenantStats{{Hits: 9}, {Misses: 3}}}
	if err := checkUndegraded(clean); err != nil {
		t.Fatal(err)
	}
	for name, plant := range map[string]func(*server.StatsSnapshot){
		"shed":         func(s *server.StatsSnapshot) { s.Tenants[1].Shed = 1 },
		"stale":        func(s *server.StatsSnapshot) { s.Tenants[0].StaleServes = 1 },
		"rejected":     func(s *server.StatsSnapshot) { s.Tenants[1].Rejected = 1 },
		"deadlined":    func(s *server.StatsSnapshot) { s.Tenants[0].Deadlined = 1 },
		"panic":        func(s *server.StatsSnapshot) { s.Panics = 1 },
		"bad frame":    func(s *server.StatsSnapshot) { s.BadFrames = 1 },
		"slow client":  func(s *server.StatsSnapshot) { s.SlowClients = 1 },
		"forced close": func(s *server.StatsSnapshot) { s.ForcedConns = 1 },
	} {
		st := clean
		st.Tenants = append([]server.TenantStats(nil), clean.Tenants...)
		plant(&st)
		if err := checkUndegraded(st); err == nil {
			t.Errorf("one %s request not reported", name)
		}
	}
}
