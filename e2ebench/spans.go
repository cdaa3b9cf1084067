package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"fscache/internal/xrand"
)

// Tracing records spans from the benchmark's own code around its calls into
// each layer of the program: name, start, end, the span that caused it and,
// for the serving workload, the request it belongs to. Per-access calls are
// sampled (one span per sampleEvery calls) and their exact call counts are
// recorded beside them. Spans stay in memory and are written out when the
// run ends. Tracing inside the program itself is not part of this benchmark.

// sampleEvery is the mean per-access sampling interval (a power of two).
const sampleEvery = 64

// sampled picks about one call in sampleEvery by a hash of its index, so
// the sample does not alias with any period in the access order (such as a
// round-robin over 32 threads).
func sampled(i int) bool { return xrand.Mix64(uint64(i))&(sampleEvery-1) == 0 }

// spanIDs numbers spans across every tracer of the process.
var spanIDs atomic.Uint64

// span is one recorded interval. Times are nanoseconds since processStart.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the spans and call counts of one goroutine. A nil tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	spans  []span
	counts map[string]uint64
	// layer holds per-layer metrics computed outside rounds (set-up).
	layer map[string]float64
}

func newTracer() *tracer {
	return &tracer{counts: map[string]uint64{}, layer: map[string]float64{}}
}

// now returns the trace clock: nanoseconds since processStart.
func now() int64 { return int64(time.Since(processStart)) }

// on reports whether t records.
func (t *tracer) on() bool { return t != nil }

// record stores a finished span and returns its id (0 when t is nil).
func (t *tracer) record(name string, parent, req uint64, start, end int64) uint64 {
	if t == nil {
		return 0
	}
	id := spanIDs.Add(1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// count adds n exact calls of name.
func (t *tracer) count(name string, n uint64) {
	if t != nil {
		t.counts[name] += n
	}
}

// merge folds o into t (o must no longer be written).
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	t.spans = append(t.spans, o.spans...)
	for k, v := range o.counts {
		t.counts[k] += v
	}
}

// writeJSONL writes one JSON object per span, then one per call count.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	names := make([]string, 0, len(t.counts))
	for k := range t.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := enc.Encode(map[string]any{"count": k, "calls": t.counts[k]}); err != nil {
			return fmt.Errorf("encode count: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flush spans: %w", err)
	}
	return nil
}
