package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Layer names: the repository's modules the traced run attributes time
// to. The fifth, machine (the simulator), runs only during set-up and is
// counted there (machine.simulate_s), outside the reconciled time.
const (
	layerTrace  = "trace"  // codec decode
	layerCore   = "core"   // analysis engine, batch and stream
	layerServer = "server" // BuildResponse, HTTP request phases, Client
	layerCache  = "cache"  // content keys, LRU, singleflight
	// layerBench is the benchmark's own time between layer calls: the
	// unattributed share.
	layerBench = "bench"
)

// tracer records spans around the benchmark's own calls into each layer.
// It is single-goroutine: spans nest strictly, and a span's self time is
// its duration minus the time its direct children cover. A nil *tracer
// records nothing, so the untraced run calls the same code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices

	mu     sync.Mutex         // count may be called from several goroutines
	counts map[string]float64 // work counted at the same boundaries
}

type span struct {
	layer, name string
	start, end  time.Duration
	children    time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]float64{}} }

// count adds n to the named work count.
func (t *tracer) count(name string, n float64) {
	if t != nil {
		t.mu.Lock()
		t.counts[name] += n
		t.mu.Unlock()
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: layer, name: name, start: time.Since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	if n := len(t.open); n > 0 {
		t.spans[t.open[n-1]].children += s.end - s.start
	}
}

// selfTime is a span's duration minus its direct children's.
func (s span) selfTime() time.Duration { return s.end - s.start - s.children }

// totals sums self time and counts spans per "layer/name".
type spanTotal struct {
	self  time.Duration
	count int
}

func (t *tracer) totals() map[string]spanTotal {
	out := map[string]spanTotal{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		k := s.layer + "/" + s.name
		v := out[k]
		v.self += s.selfTime()
		v.count++
		out[k] = v
	}
	return out
}

// layerSelf sums self time per layer.
func (t *tracer) layerSelf() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	for _, s := range t.spans {
		out[s.layer] += s.selfTime()
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// totalAlloc reads the cumulative bytes allocated by the process.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveMB forces a collection and returns the heap still in use, in MiB —
// the method BenchmarkStreamMillion's liveMB uses.
func liveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
