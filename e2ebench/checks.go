package main

import (
	"bytes"
	"fmt"
	"strconv"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/server"
	"fscache/internal/sim"
	"fscache/internal/stats"
	"fscache/internal/trace"
)

// The checkers below compare the program's outputs with models the
// benchmark keeps on its own, or with properties the method must have. Each
// returns an error describing the first violation it sees.

// residency is the benchmark's model of which addresses a cache holds and
// which partition owns each: a miss inserts the address, an eviction drops
// the reported victim address.
type residency struct {
	owner map[uint64]int32
	sizes []int
}

func newResidency(parts int) *residency {
	return &residency{owner: map[uint64]int32{}, sizes: make([]int, parts)}
}

// apply checks one access result against the model and updates it.
func (m *residency) apply(addr uint64, part int, r core.AccessResult) error {
	_, held := m.owner[addr]
	if r.Hit {
		if !held {
			return fmt.Errorf("access to %#x hit, but the model does not hold it", addr)
		}
		return nil
	}
	if held {
		return fmt.Errorf("access to %#x missed, but the model holds it", addr)
	}
	if r.Evicted {
		vp, ok := m.owner[r.EvictedAddr]
		if !ok {
			return fmt.Errorf("miss on %#x evicted %#x, which the model does not hold", addr, r.EvictedAddr)
		}
		if int(vp) != r.EvictedPart {
			return fmt.Errorf("victim %#x belongs to partition %d, result says %d", r.EvictedAddr, vp, r.EvictedPart)
		}
		delete(m.owner, r.EvictedAddr)
		m.sizes[vp]--
	}
	m.owner[addr] = int32(part)
	m.sizes[part]++
	return nil
}

// compare checks the model's per-partition line counts against the cache's.
func (m *residency) compare(sizes []int) error {
	for p, n := range m.sizes {
		if sizes[p] != n {
			return fmt.Errorf("partition %d holds %d lines, the residency model counts %d", p, sizes[p], n)
		}
	}
	return nil
}

// checkThread checks one simulated thread's first-pass result against its
// trace: the post-warm-up access count and instruction count must match the
// trace exactly, and the cycles must cover every instruction, L1-to-L2 and
// L2 latency on every access and memory latency on every miss.
func checkThread(t int, r sim.ThreadResult, tr *trace.Trace, warmLen int) error {
	var instrs uint64
	for _, a := range tr.Accesses[warmLen:] {
		instrs += uint64(a.Gap) + 1
	}
	accesses := uint64(tr.Len() - warmLen)
	if r.Hits+r.Misses != accesses {
		return fmt.Errorf("thread %d: %d hits + %d misses, its trace has %d post-warm-up accesses", t, r.Hits, r.Misses, accesses)
	}
	if r.Instructions != instrs {
		return fmt.Errorf("thread %d: %d instructions, its trace has %d", t, r.Instructions, instrs)
	}
	floor := instrs + accesses*uint64(timing.L1ToL2+timing.L2Hit) + r.Misses*uint64(timing.MemLatency)
	if r.Cycles < floor {
		return fmt.Errorf("thread %d: %d cycles, below the latency floor of %d", t, r.Cycles, floor)
	}
	return nil
}

// checkExactLRU checks that every eviction an exact-LRU ideal recorded had
// futility exactly 1 (the partition's least recently used line).
func checkExactLRU(p int, h *stats.Histogram) error {
	if h.Sum() != float64(h.N()) { //fslint:ignore floateq a sum of exact ones is exact
		return fmt.Errorf("partition %d: eviction futility averages %v over %d evictions, the exact-LRU ideal must evict at 1", p, h.Mean(), h.N())
	}
	return nil
}

// checkFull checks that the partition sizes account for every line.
func checkFull(sizes []int, lines int) error {
	sum := 0
	for _, n := range sizes {
		sum += n
	}
	if sum != lines {
		return fmt.Errorf("partition sizes sum to %d, the cache has %d lines", sum, lines)
	}
	return nil
}

// ledger counts, per partition, the misses and the evictions of lines that
// partition owned, as the access results report them.
type ledger struct {
	misses, evicted []int64
}

func newLedger(parts int) *ledger {
	return &ledger{misses: make([]int64, parts), evicted: make([]int64, parts)}
}

func (l *ledger) add(part int, r core.AccessResult) {
	if r.Hit {
		return
	}
	l.misses[part]++
	if r.Evicted {
		l.evicted[r.EvictedPart]++
	}
}

func (l *ledger) merge(o *ledger) {
	for p := range l.misses {
		l.misses[p] += o.misses[p]
		l.evicted[p] += o.evicted[p]
	}
}

func (l *ledger) totalMisses() int64 {
	var n int64
	for _, m := range l.misses {
		n += m
	}
	return n
}

// check compares each partition's misses minus owned evictions with the
// engine's size for it, and the sizes' sum with the capacity.
func (l *ledger) check(sizes []int, lines int) error {
	sum := 0
	for p, n := range sizes {
		if want := l.misses[p] - l.evicted[p]; int64(n) != want {
			return fmt.Errorf("partition %d holds %d lines, but its results show %d misses and %d evictions", p, n, l.misses[p], l.evicted[p])
		}
		sum += n
	}
	if sum > lines {
		return fmt.Errorf("partition sizes sum to %d, above the %d-line capacity", sum, lines)
	}
	return nil
}

// checkDecisions checks every allocator decision against the line budget
// and the per-partition floor.
func checkDecisions(log []alloc.Decision, lines, floor int) error {
	for _, d := range log {
		sum := 0
		for p, t := range d.Targets {
			if t < floor {
				return fmt.Errorf("epoch %d gives partition %d %d lines, below the %d-line floor", d.Epoch, p, t, floor)
			}
			sum += t
		}
		if sum > lines {
			return fmt.Errorf("epoch %d allocates %d lines of %d", d.Epoch, sum, lines)
		}
	}
	return nil
}

// Serve values carry their key and version: "<key>:<version>:" padded with
// '.' to valueSize bytes.
const valueSize = 64

func appendValue(dst []byte, key []byte, version uint32) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, uint64(version), 10)
	dst = append(dst, ':')
	for len(dst)-start < valueSize {
		dst = append(dst, '.')
	}
	return dst
}

// checkGet checks one GET answer against the latest acknowledged SET of the
// key (version 0: none yet). A found value must be exactly that SET's.
func checkGet(key []byte, found bool, val []byte, latest uint32) error {
	if !found {
		return nil
	}
	if latest == 0 {
		return fmt.Errorf("GET %s found a value, but the key was never SET", key)
	}
	want := appendValue(nil, key, latest)
	if !bytes.Equal(val, want) {
		return fmt.Errorf("GET %s returned %q, the latest acknowledged SET wrote %q", key, val, want)
	}
	return nil
}

// checkServerCounts checks the server's per-tenant GET accounting against
// the client's: Hits + Misses must equal the GETs the client sent, and Hits
// the GETs it saw found.
func checkServerCounts(tenants []server.TenantStats, gets, found []uint64) error {
	for t, ts := range tenants {
		if ts.Hits+ts.Misses != gets[t] || ts.Hits != found[t] {
			return fmt.Errorf("tenant %d: server counts %d hits and %d misses, the client sent %d GETs and saw %d found",
				t, ts.Hits, ts.Misses, gets[t], found[t])
		}
	}
	return nil
}

// checkUndegraded checks that the server shed, served stale, rejected or
// deadlined no request, and that no connection saw a panic, a bad frame, a
// slow-client drop or a forced close.
func checkUndegraded(st server.StatsSnapshot) error {
	for t, ts := range st.Tenants {
		if ts.Shed+ts.StaleServes+ts.Rejected+ts.Deadlined != 0 {
			return fmt.Errorf("tenant %d: %d shed, %d stale, %d rejected, %d deadlined requests",
				t, ts.Shed, ts.StaleServes, ts.Rejected, ts.Deadlined)
		}
	}
	if st.Panics+st.BadFrames+st.SlowClients+st.ForcedConns != 0 {
		return fmt.Errorf("server reports %d panics, %d bad frames, %d slow clients, %d forced closes",
			st.Panics, st.BadFrames, st.SlowClients, st.ForcedConns)
	}
	return nil
}

// checkColdMisses checks that the misses counted from a cold cache's first
// access cover every distinct address of the input: each must miss once.
func checkColdMisses(misses int64, distinct int) error {
	if misses < int64(distinct) {
		return fmt.Errorf("%d misses from the first access, below the %d distinct addresses of the input", misses, distinct)
	}
	return nil
}
