package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fscache/internal/sim"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSample is the process's CPU time and Go runtime counters at one moment.
type cpuSample struct {
	user, sys  time.Duration
	totalAlloc uint64
	numGC      uint32
}

// sampleCPU reads the process's CPU times and allocation counters. It
// stops the world briefly (runtime.ReadMemStats), so callers take it
// outside timed intervals.
func sampleCPU() cpuSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return cpuSample{
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// cpuSecs returns the process's user+sys CPU seconds between a and b.
func cpuSecs(a, b cpuSample) float64 {
	return (b.user - a.user + b.sys - a.sys).Seconds()
}

// procLayers fills the process and runtime per-layer metrics for ops
// operations performed between a and b, and returns the CPU microseconds
// per operation.
func procLayers(layer map[string]float64, a, b cpuSample, ops int64) float64 {
	user := (b.user - a.user).Seconds()
	sys := (b.sys - a.sys).Seconds()
	if layer != nil {
		layer["proc.cpu_user_s"] = user
		layer["proc.cpu_sys_s"] = sys
		layer["runtime.alloc_bytes_per_op"] = float64(b.totalAlloc-a.totalAlloc) / float64(ops)
		layer["runtime.gc_cycles"] = float64(b.numGC - a.numGC)
	}
	return (user + sys) * 1e6 / float64(ops)
}

// latencies collects sampled per-operation latencies in nanoseconds, split
// into the read path (get: a cache hit or a GET) and the write path (set: a
// miss that fills a line, or a SET).
type latencies struct {
	get, set []float64
}

func (l *latencies) add(get bool, ns int64) {
	if get {
		l.get = append(l.get, float64(ns))
	} else {
		l.set = append(l.set, float64(ns))
	}
}

// fill stores get_p50_us, set_p50_us, and p90_us and p99_us over all
// samples, into m.
func (l *latencies) fill(m map[string]float64) {
	all := append(append([]float64(nil), l.get...), l.set...)
	m["get_p50_us"] = median(l.get) / 1e3
	m["set_p50_us"] = median(l.set) / 1e3
	m["p90_us"] = quantile(all, 0.90) / 1e3
	m["p99_us"] = quantile(all, 0.99) / 1e3
}

// timing is the paper's Table II latency model (sim.DefaultTiming).
var timing = sim.DefaultTiming()

// partIPC is the IPC an in-order core would reach on one partition's
// access stream under Table II latencies without memory-channel queuing:
// instrs instructions, accesses L2 accesses of L1ToL2+L2Hit cycles each,
// and misses memory fills of MemLatency cycles each.
func partIPC(instrs, accesses, misses uint64) float64 {
	if instrs == 0 {
		return 0
	}
	cycles := instrs + accesses*uint64(timing.L1ToL2+timing.L2Hit) + misses*uint64(timing.MemLatency)
	return float64(instrs) / float64(cycles)
}

// relErr returns the mean relative |size − target| over partitions with a
// positive target.
func relErr(sizes, targets []int) float64 {
	sum, n := 0.0, 0
	for p, t := range targets {
		if t <= 0 {
			continue
		}
		sum += math.Abs(float64(sizes[p]-t)) / float64(t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
