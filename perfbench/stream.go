package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"perturb"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// stream-follow: the incremental engine as `perturb -follow` uses it. A
// time-sorted measured trace of about 1M events is fed to
// perturb.NewStreamAnalyzer in fixed-size chunks with sliding windows,
// draining the windows each chunk seals. Sessions alternate between
// retained mode (the -follow and /v1/analyze/stream default) and
// LowMemory (the degraded path).

// streamChunk is the feed chunk: FeedReader's batch size.
const streamChunk = 4096

// streamWindows is how many sliding windows (slide = window/2) span the
// trace's measured time.
const streamWindows = 128

type streamBench struct {
	events        []trace.Event
	procs         int
	cal           instr.Calibration
	window, slide trace.Time
	ref           *core.Approximation
	sum           string
}

func (s *streamBench) digest() string { return s.sum }

func setupStream(p setupParams, tr *tracer) (bench, error) {
	r := rand.New(rand.NewSource(p.seed))
	iters := 110_000 // LL17 at 9 events per iteration: ~1M events
	if p.tiny {
		iters = 400
	}
	cfg, o := drawMachine(r, 8)
	t, cal, err := simulate(tr, 17, iters, cfg, o)
	if err != nil {
		return nil, err
	}
	if !slices.IsSortedFunc(t.Events, func(a, b trace.Event) int { return int(a.Time - b.Time) }) {
		return nil, fmt.Errorf("stream input is not time-sorted")
	}
	ref, refJSON, err := reference(t, cal)
	if err != nil {
		return nil, err
	}
	raw, err := encode(t, codecBinary)
	if err != nil {
		return nil, err
	}
	d := newDigester("stream-follow", p.seed)
	d.add(raw, refJSON)
	window := t.Duration() / streamWindows
	return &streamBench{
		events: t.Events,
		procs:  t.Procs,
		cal:    cal,
		window: window,
		slide:  window / 2,
		ref:    ref,
		sum:    d.sum(),
	}, nil
}

// streamSession is one measured session.
type streamSession struct {
	lowMem  bool
	wall    time.Duration // chunks plus close
	chunks  []float64     // per-chunk latency, seconds
	live    float64       // MiB retained just before Close
	windows []core.WindowResult
}

func modeName(lowMem bool) string {
	if lowMem {
		return "lowmem"
	}
	return "retained"
}

// session feeds the whole trace through one streaming session.
func (s *streamBench) session(ctx context.Context, lowMem bool, base float64, tr *tracer) (*streamSession, *core.Approximation, error) {
	mode := modeName(lowMem)
	out := &streamSession{lowMem: lowMem}
	sa, err := perturb.NewStreamAnalyzer(s.cal, perturb.StreamOptions{
		Procs: s.procs, Window: s.window, Slide: s.slide, LowMemory: lowMem,
	})
	if err != nil {
		return nil, nil, err
	}
	for off := 0; off < len(s.events); off += streamChunk {
		chunk := s.events[off:min(off+streamChunk, len(s.events))]
		t0 := time.Now()
		sp := tr.begin(layerCore, mode+".feed")
		err := sa.Feed(ctx, chunk)
		if err == nil {
			for w := range sa.Results() {
				out.windows = append(out.windows, w)
			}
		}
		tr.end(sp)
		dt := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("feeding %s session: %w", mode, err)
		}
		out.chunks = append(out.chunks, dt.Seconds())
		out.wall += dt
	}
	out.live = liveMB() - base
	t0 := time.Now()
	sp := tr.begin(layerCore, mode+".close")
	a, err := sa.Close(ctx)
	if err == nil {
		for w := range sa.Results() {
			out.windows = append(out.windows, w)
		}
	}
	tr.end(sp)
	out.wall += time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("closing %s session: %w", mode, err)
	}
	tr.count(mode+".windows", float64(len(out.windows)))
	return out, a, nil
}

// check compares a session's final result with the batch reference: the
// whole Approximation in retained mode, the summary fields in LowMemory
// (which keeps no trace).
func (s *streamBench) check(lowMem bool, a *core.Approximation) error {
	ref := s.ref
	summary := a.Duration == ref.Duration && a.WaitsKept == ref.WaitsKept &&
		a.WaitsRemoved == ref.WaitsRemoved && a.WaitsIntroduced == ref.WaitsIntroduced &&
		slices.Equal(a.Confidence, ref.Confidence) && (a.Repair == nil) == (ref.Repair == nil)
	if !summary {
		return fmt.Errorf("%s session summary differs from the reference: duration %d vs %d, waits %d/%d/%d vs %d/%d/%d",
			modeName(lowMem), a.Duration, ref.Duration, a.WaitsKept, a.WaitsRemoved, a.WaitsIntroduced,
			ref.WaitsKept, ref.WaitsRemoved, ref.WaitsIntroduced)
	}
	if lowMem {
		return nil
	}
	if a.Trace == nil || a.Trace.Procs != ref.Trace.Procs || !slices.Equal(a.Trace.Events, ref.Trace.Events) || !slices.Equal(a.Times, ref.Times) {
		return fmt.Errorf("retained session approximation differs from the reference")
	}
	return nil
}

// run measures pairs of sessions (retained, then LowMemory) until d has
// elapsed, at least one pair.
func (s *streamBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{layers: map[string]float64{}}
	var sessions []*streamSession
	// Rates and chunk latency percentiles are taken per pair of sessions
	// and reported as medians over the pairs, so one collection landing
	// in a slow chunk moves one pair, not the run.
	var pairRates, pairP50, pairP99 []float64
	var firstWindows []byte
	var alloc uint64
	var wall time.Duration
	base := liveMB()
	start := time.Now()
	for time.Since(start) < d || len(sessions) == 0 {
		var pairWall time.Duration
		for _, lowMem := range []bool{false, true} {
			// Every session starts from a collected heap returned to the
			// OS, as a fresh `perturb -follow` process does: sessions
			// then do not inherit each other's mapped memory.
			debug.FreeOSMemory()
			a0 := totalAlloc()
			ss, a, err := s.session(ctx, lowMem, base, tr)
			alloc += totalAlloc() - a0
			o.attempted++
			if err == nil {
				err = s.check(lowMem, a)
			}
			if err != nil {
				o.fail(err)
				continue
			}
			sessions = append(sessions, ss)
			pairWall += ss.wall
			wall += ss.wall
			// The windows must not depend on the mode or the session.
			wj, err := json.Marshal(ss.windows)
			if err != nil {
				return nil, err
			}
			if firstWindows == nil {
				firstWindows = wj
			} else if !bytes.Equal(wj, firstWindows) {
				o.fail(fmt.Errorf("%s session emitted different windows than the first session", modeName(lowMem)))
			}
		}
		pairRates = append(pairRates, 2*float64(len(s.events))/pairWall.Seconds())
		var pc []float64
		for _, ss := range sessions[max(0, len(sessions)-2):] {
			pc = append(pc, ss.chunks...)
		}
		pairP50 = append(pairP50, quantile(pc, 0.5))
		pairP99 = append(pairP99, quantile(pc, 0.99))
	}

	var chunks []float64
	byMode := map[bool][]*streamSession{}
	for _, ss := range sessions {
		chunks = append(chunks, ss.chunks...)
		byMode[ss.lowMem] = append(byMode[ss.lowMem], ss)
	}
	liveOf := func(lowMem bool) float64 {
		var xs []float64
		for _, ss := range byMode[lowMem] {
			xs = append(xs, ss.live)
		}
		return median(xs)
	}
	events := len(s.events) * len(sessions)
	o.e2e = map[string]float64{
		"events_per_s":          median(pairRates),
		"alloc_bytes_per_event": float64(alloc) / float64(max(events, 1)),
		"live_heap_mb":          max(liveOf(false), liveOf(true)),
		"latency_p50_ms":        median(pairP50) * 1e3,
		"latency_p99_ms":        median(pairP99) * 1e3,
		"throughput_rps":        float64(len(chunks)) / wall.Seconds(),
	}
	o.unitCost = 1 / max(median(pairRates), 1e-9)
	o.notes = append(o.notes, fmt.Sprintf("%d sessions of %d events in %d-event chunks, %d chunk latencies, window %d ns slide %d ns",
		len(sessions), len(s.events), streamChunk, len(chunks), s.window, s.slide))
	for _, lowMem := range []bool{false, true} {
		var cs []float64
		for _, ss := range byMode[lowMem] {
			cs = append(cs, ss.chunks...)
		}
		o.notes = append(o.notes, fmt.Sprintf("%-8s chunk p50 %.3f ms p99 %.3f ms, live %.1f MiB",
			modeName(lowMem), quantile(cs, 0.5)*1e3, quantile(cs, 0.99)*1e3, liveOf(lowMem)))
		if tr != nil {
			m := modeName(lowMem)
			tot := tr.totals()
			o.layers["core.stream_feed_s."+m] = tot[layerCore+"/"+m+".feed"].self.Seconds()
			o.layers["core.stream_close_s."+m] = tot[layerCore+"/"+m+".close"].self.Seconds()
			o.layers["core.stream_windows."+m] = tr.counts[m+".windows"]
			o.layers["core.stream_chunk_p99_ms."+m] = quantile(cs, 0.99) * 1e3
			o.layers["core.stream_live_mb."+m] = liveOf(lowMem)
		}
	}
	if tr != nil {
		o.wall = wall
		o.layerSelf = tr.layerSelf()
	}
	return o, nil
}
