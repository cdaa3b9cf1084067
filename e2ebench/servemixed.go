package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"fscache/internal/futility"
	"fscache/internal/server"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// serve-mixed: an in-process server (server.New + Serve on a 127.0.0.1:0
// listener) with fsserve's defaults and two tenants, one guaranteed and one
// best-effort, on static 2:1 targets as in `make serve`. The benchmark's own
// client drives it over serveConns TCP connections with the exported wire
// codec, as an open loop at a fixed offered rate below saturation: each
// connection keeps a send schedule and a reader goroutine, and latency is
// timed from when each request was due.

const (
	serveConns    = 2
	serveLines    = 4096
	serveSetShare = 0.3
	serveTheta    = 0.9
	// serveOccEvery is the interval at which a sampler goroutine reads the
	// engine's occupancy error during an exchange.
	serveOccEvery = 25 * time.Millisecond
	// serveRebalance is fsserve's default rebalancer tick.
	serveRebalance = 250 * time.Millisecond
	// serveWarmRounds is the number of untimed mixed rounds in set-up.
	serveWarmRounds = 3
	// replayPasses is how many times each round's engine key stream is
	// replayed into a fresh engine for macc_s.
	replayPasses = 4
	// engineSeed configures the server's engine; the run seed varies only
	// the requests.
	engineSeed = 0x5e77e
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// serveTargets are the static per-tenant line targets (2:1, `make serve`).
var serveTargets = []int{2731, 1365}

// serveScale sizes the load.
type serveScale struct {
	rate  float64 // offered requests per second over all connections
	round int     // requests per connection per round
	// keysPerLine sizes each tenant's key space relative to its target.
	keysPerLine int
}

var (
	serveFull  = serveScale{rate: 10000, round: 5000, keysPerLine: 4}
	serveSmall = serveScale{rate: 8000, round: 1000, keysPerLine: 1}
)

// request is one scheduled request of a connection.
type request struct {
	due     int64 // ns after the round's start
	op      server.Op
	tenant  uint8
	key     int32 // key index within the tenant's key space
	version uint32
}

// outcome is what the reader saw for one request.
type outcome struct {
	recv   int64 // ns after the round's start
	decNS  int64 // ParseResponse time
	found  bool
	failed bool
}

// sendInfo is what the sender recorded for one request.
type sendInfo struct {
	sent  int64 // ns after the round's start
	encNS int64 // AppendRequest time
}

// serveConn is one client connection and the state its key histories keep
// across rounds.
type serveConn struct {
	id  int
	nc  net.Conn
	br  *bufio.Reader
	rng *xrand.Rand
	// zipf[t] draws key indexes over this connection's half of tenant t's
	// key space.
	zipf []*xrand.Zipf
	// next[t][k] is the version the next SET of key k will write; acked is
	// the latest acknowledged SET version the reader has seen.
	next, acked [][]uint32
	// gets and found count GETs sent and GETs answered found, per tenant,
	// since the connection opened.
	gets, found []uint64
	wbuf, rbuf  []byte
}

type serveMixed struct {
	sc    serveScale
	srv   *server.Server
	conns []*serveConn
	keys  [][][]byte // keys[t][k]
	// fill and fillOuts are the warm-up fill and its outcomes; each replay
	// pass starts by feeding them to its fresh engine.
	fill     [][]request
	fillOuts [][]outcome
	// lastOcc holds the occupancy errors sampled during the last exchange.
	lastOcc []float64
}

func engineConfig() shardcache.Config {
	return shardcache.Config{
		Lines:   serveLines,
		Ways:    16,
		Shards:  4,
		Stripes: 4,
		Parts:   len(serveTargets),
		Ranking: futility.CoarseLRU,
		Seed:    engineSeed,
	}
}

func setupServeMixed(e env, tr *tracer) (runner, error) {
	sc := serveFull
	if e.small {
		sc = serveSmall
	}
	seed := xrand.Mix64(e.seed ^ 0x5e77e)
	t0 := now()
	srv, err := server.New(server.Config{
		Tenants:   []server.TenantConfig{{Class: server.Guaranteed}, {Class: server.BestEffort}},
		Cache:     engineConfig(),
		Targets:   serveTargets,
		Rebalance: serveRebalance,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv.Serve(ln)
	s := &serveMixed{sc: sc, srv: srv}
	s.keys = make([][][]byte, len(serveTargets))
	for t, target := range serveTargets {
		n := sc.keysPerLine * target
		s.keys[t] = make([][]byte, n)
		for k := range s.keys[t] {
			s.keys[t][k] = []byte("t" + strconv.Itoa(t) + "-k" + strconv.Itoa(k))
		}
	}
	for c := 0; c < serveConns; c++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			_ = s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		sc := &serveConn{
			id:    c,
			nc:    nc,
			br:    bufio.NewReaderSize(nc, 1<<16),
			rng:   xrand.New(xrand.Mix64(seed ^ uint64(c+1)*0x2545f4914f6cdd1d)),
			gets:  make([]uint64, len(serveTargets)),
			found: make([]uint64, len(serveTargets)),
		}
		for t := range serveTargets {
			half := len(s.keys[t]) / serveConns
			sc.zipf = append(sc.zipf, xrand.NewZipf(sc.rng, serveTheta, half))
			sc.next = append(sc.next, make([]uint32, len(s.keys[t])))
			sc.acked = append(sc.acked, make([]uint32, len(s.keys[t])))
			for k := range sc.next[t] {
				sc.next[t][k] = 1
			}
		}
		s.conns = append(s.conns, sc)
	}
	t1 := now()
	tr.record("server.New+Serve", 0, 0, t0, t1)

	// Warm-up fill: every connection SETs each of its keys once, at the
	// offered rate.
	fill := make([][]request, serveConns)
	for _, c := range s.conns {
		for t := range serveTargets {
			for k := c.id; k < len(s.keys[t]); k += serveConns {
				fill[c.id] = append(fill[c.id], c.set(uint8(t), int32(k)))
			}
		}
		s.pace(fill[c.id])
	}
	outs, _, err := s.exchange(fill, nil)
	if err != nil {
		_ = s.close()
		return nil, fmt.Errorf("warm-up fill: %w", err)
	}
	s.fill, s.fillOuts = fill, outs
	// Then serveWarmRounds untimed rounds of the mixed load, so partition
	// sizes, the byte store and the rebalancer reach their steady state.
	for r := 0; r < serveWarmRounds; r++ {
		scheds := make([][]request, len(s.conns))
		for ci, c := range s.conns {
			scheds[ci] = s.schedule(c)
		}
		if _, _, err := s.exchange(scheds, nil); err != nil {
			_ = s.close()
			return nil, fmt.Errorf("warm-up round %d: %w", r, err)
		}
	}
	return s, nil
}

// set schedules a SET of key k with the key's next version.
func (c *serveConn) set(t uint8, k int32) request {
	v := c.next[t][k]
	c.next[t][k]++
	return request{op: server.OpSet, tenant: t, key: k, version: v}
}

// pace assigns due times at the per-connection share of the offered rate.
func (s *serveMixed) pace(reqs []request) {
	gap := float64(time.Second) * serveConns / s.sc.rate
	for i := range reqs {
		reqs[i].due = int64(float64(i) * gap)
	}
}

// schedule draws one round of requests for a connection: a tenant
// uniformly (so the best-effort tenant asks as often as the guaranteed one
// on half its target), a zipf-distributed key of the connection's own, and
// a SET with probability serveSetShare.
func (s *serveMixed) schedule(c *serveConn) []request {
	reqs := make([]request, s.sc.round)
	for i := range reqs {
		t := uint8(c.rng.Intn(len(serveTargets)))
		k := int32(2*c.zipf[t].Next() + c.id)
		if c.rng.Float64() < serveSetShare {
			reqs[i] = c.set(t, k)
		} else {
			reqs[i] = request{op: server.OpGet, tenant: t, key: k}
		}
	}
	s.pace(reqs)
	return reqs
}

// exchange runs every connection's schedule: a sender writes each request
// when it is due (every due request in one write) and a reader checks each
// response in order. Meanwhile a sampler goroutine of its own, apart from
// the sender and the readers, reads the engine's occupancy error every
// serveOccEvery into s.lastOcc. It returns each connection's outcomes; a
// non-nil error is a broken check or a transport failure.
func (s *serveMixed) exchange(scheds [][]request, tr *tracer) ([][]outcome, [][]sendInfo, error) {
	outs := make([][]outcome, len(s.conns))
	sends := make([][]sendInfo, len(s.conns))
	errs := make([]error, len(s.conns)+1)
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range s.conns {
		outs[ci] = make([]outcome, len(scheds[ci]))
		sends[ci] = make([]sendInfo, len(scheds[ci]))
		wg.Add(1)
		go func(ci int, c *serveConn) {
			defer wg.Done()
			errs[ci] = s.receive(c, scheds[ci], outs[ci], start)
		}(ci, c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[len(s.conns)] = s.send(scheds, sends, start)
	}()
	stop := make(chan struct{})
	occDone := make(chan []float64)
	go func() {
		var occ []float64
		tick := time.NewTicker(serveOccEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				occ = append(occ, shardOccErr(s.srv.Engine()))
			case <-stop:
				occDone <- occ
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	s.lastOcc = <-occDone
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	if tr.on() {
		base := int64(start.Sub(processStart))
		for ci, o := range outs {
			for i := range o {
				if !sampled(i) {
					continue
				}
				req := uint64(ci+1)<<32 | uint64(i)
				due := base + scheds[ci][i].due
				sent := base + sends[ci][i].sent
				id := tr.record("client.request", 0, req, due, base+o[i].recv)
				tr.record("client.wait", id, req, due, sent)
				tr.record("wire+server", id, req, sent, base+o[i].recv)
			}
			tr.count("client.request", uint64(len(o)))
		}
	}
	return outs, sends, nil
}

// send is the open-loop generator for every connection: it sleeps until
// the next request falls due and writes each connection's due requests in
// one write. It runs on its own OS thread with a 1 µs timer slack and
// sleeps in nanosleep, because the Go runtime's timers resolve sub-
// millisecond sleeps to about a millisecond; the thread exits with the
// goroutine.
func (s *serveMixed) send(scheds [][]request, sends [][]sendInfo, start time.Time) error {
	runtime.LockOSThread()                                                 // never unlocked: the thread, and its timer slack, end with this goroutine
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort; a failure only coarsens pacing
	next := make([]int, len(scheds))
	for {
		// The earliest unsent request over every connection.
		due, pending := int64(0), false
		for ci, sc := range scheds {
			if next[ci] < len(sc) && (!pending || sc[next[ci]].due < due) {
				due, pending = sc[next[ci]].due, true
			}
		}
		if !pending {
			return nil
		}
		if d := due - int64(time.Since(start)); d > 0 {
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
			continue
		}
		nowNS := int64(time.Since(start))
		for ci, c := range s.conns {
			reqs := scheds[ci]
			first := next[ci]
			c.wbuf = c.wbuf[:0]
			i := first
			for ; i < len(reqs) && reqs[i].due <= nowNS; i++ {
				r := &reqs[i]
				req := server.Request{Op: r.op, Tenant: r.tenant, Seq: uint32(i), Key: s.keys[r.tenant][r.key]}
				var vbuf [valueSize]byte
				if r.op == server.OpSet {
					req.Value = appendValue(vbuf[:0], req.Key, r.version)
				}
				t0 := now()
				c.wbuf = server.AppendRequest(c.wbuf, &req)
				sends[ci][i].encNS = now() - t0
			}
			if i == first {
				continue
			}
			sent := int64(time.Since(start))
			for j := first; j < i; j++ {
				sends[ci][j].sent = sent
			}
			if _, err := c.nc.Write(c.wbuf); err != nil {
				return fmt.Errorf("connection %d: write: %w", c.id, err)
			}
			next[ci] = i
		}
	}
}

// receive reads and checks every response in order.
func (s *serveMixed) receive(c *serveConn, reqs []request, outs []outcome, start time.Time) error {
	for i := range reqs {
		var err error
		c.rbuf, err = server.ReadFrame(c.br, c.rbuf)
		if err != nil {
			return fmt.Errorf("connection %d: read response %d: %w", c.id, i, err)
		}
		recv := int64(time.Since(start))
		t0 := now()
		resp, err := server.ParseResponse(c.rbuf)
		outs[i].decNS = now() - t0
		outs[i].recv = recv
		if err != nil {
			return fmt.Errorf("connection %d: response %d: %w", c.id, i, err)
		}
		r := &reqs[i]
		if resp.Seq != uint32(i) {
			return fmt.Errorf("connection %d: response %d carries seq %d", c.id, i, resp.Seq)
		}
		key := s.keys[r.tenant][r.key]
		switch {
		case r.op == server.OpSet && resp.Status == server.StatusOK:
			c.acked[r.tenant][r.key] = r.version
		case r.op == server.OpGet && (resp.Status == server.StatusOK || resp.Status == server.StatusNotFound):
			found := resp.Status == server.StatusOK
			if resp.Flags&server.FlagStale != 0 {
				outs[i].failed = true
				continue
			}
			if err := checkGet(key, found, resp.Value, c.acked[r.tenant][r.key]); err != nil {
				return fmt.Errorf("connection %d: %w", c.id, err)
			}
			c.gets[r.tenant]++
			if found {
				c.found[r.tenant]++
			}
			outs[i].found = found
		default:
			outs[i].failed = true
		}
	}
	return nil
}

func (s *serveMixed) round(tr *tracer) (*roundResult, error) {
	scheds := make([][]request, len(s.conns))
	for ci, c := range s.conns {
		scheds[ci] = s.schedule(c)
	}
	eng := s.srv.Engine()
	before := eng.Snapshot()
	rr := &roundResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	rr.timedAt = time.Now()
	c0 := sampleCPU()
	outs, sends, err := s.exchange(scheds, tr)
	if err != nil {
		return nil, err
	}
	c1 := sampleCPU()
	after := eng.Snapshot()
	t0 := now()
	st := s.srv.Stats()
	tr.record("server.Stats", 0, 0, t0, now())

	// The server's per-tenant GET accounting must match what the client
	// sent and saw, and nothing may be shed, degraded or lost.
	gets := make([]uint64, len(serveTargets))
	found := make([]uint64, len(serveTargets))
	for _, c := range s.conns {
		for t := range serveTargets {
			gets[t] += c.gets[t]
			found[t] += c.found[t]
		}
	}
	if err := checkServerCounts(st.Tenants, gets, found); err != nil {
		return nil, err
	}
	if err := checkUndegraded(st); err != nil {
		return nil, err
	}

	var lat latencies
	var wire, late, codec []float64
	gets = make([]uint64, len(serveTargets))
	notFound := make([]uint64, len(serveTargets))
	for ci, o := range outs {
		for i := range o {
			r := &scheds[ci][i]
			rr.ops++
			if o[i].failed {
				rr.failed++
				continue
			}
			lat.add(r.op == server.OpGet, o[i].recv-r.due)
			sd := &sends[ci][i]
			wire = append(wire, float64(o[i].recv-sd.sent))
			late = append(late, float64(sd.sent-r.due))
			codec = append(codec, float64(sd.encNS+o[i].decNS))
			if r.op == server.OpGet {
				gets[r.tenant]++
				if !o[i].found {
					notFound[r.tenant]++
				}
			}
		}
	}
	var allGets, allNF uint64
	ipc := 0.0
	for t := range gets {
		allGets += gets[t]
		allNF += notFound[t]
		ipc += partIPC(gets[t], gets[t], notFound[t])
	}
	var fSum float64
	var fN uint64
	for p := range after.Parts {
		fSum += after.Parts[p].EvictFutility.Sum() - before.Parts[p].EvictFutility.Sum()
		fN += after.Parts[p].EvictFutility.N() - before.Parts[p].EvictFutility.N()
	}
	var replayLat latencies
	rr.e2e["macc_s"] = s.replayRound(scheds, outs, &replayLat)
	rr.e2e["miss_ratio"] = float64(allNF) / float64(allGets)
	rr.e2e["aef"] = fSum / float64(fN)
	rr.e2e["occ_err"] = mean(s.lastOcc)
	rr.e2e["ipc_sum"] = ipc
	rr.e2e["cpu_us_per_req"] = procLayers(rr.layer, c0, c1, rr.ops)
	lat.fill(rr.e2e)
	if tr.on() {
		var shed, stale, deadlined uint64
		for _, ts := range st.Tenants {
			shed += ts.Shed
			stale += ts.StaleServes
			deadlined += ts.Deadlined
		}
		rr.layer["server.handle_us_p50"] = st.Latency.P50us
		rr.layer["server.wire_us_p50"] = median(wire)/1e3 - st.Latency.P50us
		rr.layer["client.codec_ns"] = median(codec)
		rr.layer["server.store_entries"] = float64(st.StoreEntries)
		rr.layer["server.store_bytes"] = float64(st.StoreBytes)
		rr.layer["server.shed"] = float64(shed)
		rr.layer["server.stale"] = float64(stale)
		rr.layer["server.deadlined"] = float64(deadlined)
		rr.layer["gen.late_us_p99"] = quantile(late, 0.99) / 1e3
		rr.layer["shardcache.hit_ns"] = median(replayLat.get)
		rr.layer["shardcache.miss_ns"] = median(replayLat.set)
		rr.layer["shardcache.rebalances"] = float64(st.Rebalances)
		rr.layer["shardcache.installs"] = float64(st.TargetInstalls)
		rr.layer["shardcache.aef"] = rr.e2e["aef"]
		rr.layer["shardcache.occ_err"] = rr.e2e["occ_err"]
	}
	return rr, nil
}

// replayRound measures the engine alone on the key stream the server's
// engine saw in a round: every SET and every found GET, in due order across
// connections, with the benchmark's own hash of (tenant, key) as the
// address. Each of replayPasses passes builds an identically configured
// engine, feeds it the warm-up fill untimed, then times the round's stream,
// one access in sampleEvery individually into lat. It returns the median
// pass rate in Macc/s.
func (s *serveMixed) replayRound(scheds [][]request, outs [][]outcome, lat *latencies) float64 {
	rates := make([]float64, replayPasses)
	for pass := range rates {
		eng := shardcache.New(engineConfig())
		eng.SetTargets(serveTargets)
		replayStream(eng, s.fill, s.fillOuts, nil)
		t0 := time.Now()
		n := replayStream(eng, scheds, outs, lat)
		rates[pass] = float64(n) / time.Since(t0).Seconds() / 1e6
	}
	return median(rates)
}

// replayStream drives one exchange's engine accesses into eng and returns
// their count.
func replayStream(eng *shardcache.Engine, scheds [][]request, outs [][]outcome, lat *latencies) int {
	n := 0
	longest := 0
	for _, sc := range scheds {
		longest = max(longest, len(sc))
	}
	for i := 0; i < longest; i++ {
		for ci := range scheds {
			if i >= len(scheds[ci]) {
				continue
			}
			r := &scheds[ci][i]
			if r.op == server.OpGet && !outs[ci][i].found {
				continue
			}
			addr := xrand.Mix64(uint64(r.tenant)<<32 | uint64(r.key))
			n++
			if lat == nil || !sampled(n) {
				eng.Access(addr, int(r.tenant))
				continue
			}
			start := now()
			res := eng.Access(addr, int(r.tenant))
			lat.add(res.Hit, now()-start)
		}
	}
	return n
}

// close disconnects the client and drains the server.
func (s *serveMixed) close() error {
	for _, c := range s.conns {
		_ = c.nc.Close() // the server sees EOF; nothing is in flight
	}
	if err := s.srv.Shutdown(5 * time.Second); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// shardOccErr returns the mean relative |size − target| over every
// (shard, partition) pair of the engine, each shard's target being its
// share of the partition's global target.
func shardOccErr(eng *shardcache.Engine) float64 {
	sum, n := 0.0, 0
	for _, snap := range eng.ShardSnapshots() {
		for _, p := range snap.Parts {
			if p.Target > 0 {
				sum += math.Abs(float64(p.Size-p.Target)) / float64(p.Target)
				n++
			}
		}
	}
	return sum / float64(n)
}
