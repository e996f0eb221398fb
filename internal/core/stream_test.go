package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// The streaming engine's contract: the final result of a session equals
// batch Analyze byte for byte, and the emitted window sequence is a pure
// function of the event sequence — invariant to how the feed is chunked.
// These tests check both metamorphically: whole-trace vs one-event-at-a-
// time vs random splits, across all 24 Livermore kernels, the backward-
// wave DOACROSS stress shape, and unsorted feeds.

// feedChunks runs one streaming session over the events, fed in the
// given chunks, and returns every window plus the final approximation.
func feedChunks(t *testing.T, chunks [][]trace.Event, cal instr.Calibration, opts core.StreamOptions) ([]core.WindowResult, *core.Approximation) {
	t.Helper()
	s, err := core.NewStream(cal, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var windows []core.WindowResult
	for _, c := range chunks {
		if err := s.Feed(context.Background(), c); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		windows = append(windows, s.Windows()...)
	}
	a, err := s.Close(context.Background())
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	windows = append(windows, s.Windows()...)
	return windows, a
}

func wholeChunk(events []trace.Event) [][]trace.Event { return [][]trace.Event{events} }

func singletonChunks(events []trace.Event) [][]trace.Event {
	out := make([][]trace.Event, len(events))
	for i := range events {
		out[i] = events[i : i+1]
	}
	return out
}

func randomChunks(events []trace.Event, seed int64) [][]trace.Event {
	r := rand.New(rand.NewSource(seed))
	var out [][]trace.Event
	for len(events) > 0 {
		n := 1 + r.Intn(len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// traceBytes renders an approximation's trace in the canonical binary
// encoding — the byte-identity witness the acceptance criteria call for.
func traceBytes(t *testing.T, a *core.Approximation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Trace.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func sameApprox(t *testing.T, label string, got, want *core.Approximation) {
	t.Helper()
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, want)) {
		t.Errorf("%s: approximated trace bytes differ from batch", label)
	}
	if !reflect.DeepEqual(got.Times, want.Times) {
		t.Errorf("%s: Times differ from batch", label)
	}
	if got.Duration != want.Duration {
		t.Errorf("%s: Duration = %d, batch %d", label, got.Duration, want.Duration)
	}
	if got.WaitsKept != want.WaitsKept || got.WaitsRemoved != want.WaitsRemoved || got.WaitsIntroduced != want.WaitsIntroduced {
		t.Errorf("%s: wait stats (%d,%d,%d) differ from batch (%d,%d,%d)", label,
			got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
			want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced)
	}
	if !reflect.DeepEqual(got.Confidence, want.Confidence) {
		t.Errorf("%s: Confidence differs from batch", label)
	}
}

// TestStreamChunkInvarianceKernels runs every Livermore kernel through
// the simulator, streams the measured trace under several chunkings, and
// checks (a) identical window sequences regardless of chunking and (b) a
// final result byte-identical to batch Analyze.
func TestStreamChunkInvarianceKernels(t *testing.T) {
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	for _, n := range loops.Numbers() {
		def := loops.MustGet(n)
		measured, err := machine.Run(def.Loop, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatalf("kernel %d: measured run: %v", n, err)
		}
		m := measured.Trace
		batch, err := core.Analyze(m, cal, core.Options{})
		if err != nil {
			t.Fatalf("kernel %d: batch analyze: %v", n, err)
		}
		window := m.End()/7 + 1
		opts := core.StreamOptions{Procs: m.Procs, Window: window}

		refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
		sameApprox(t, "whole-chunk", refApprox, batch)
		if len(refWin) == 0 {
			t.Errorf("kernel %d: no windows emitted", n)
		}
		for label, chunks := range map[string][][]trace.Event{
			"one-event": singletonChunks(m.Events),
			"random-1":  randomChunks(m.Events, 1),
			"random-2":  randomChunks(m.Events, 2),
		} {
			win, approx := feedChunks(t, chunks, cal, opts)
			if !reflect.DeepEqual(win, refWin) {
				t.Errorf("kernel %d: %s window sequence differs from whole-chunk feed", n, label)
			}
			sameApprox(t, label, approx, batch)
		}
	}
}

// TestStreamBackwardWave stresses the mid-stream absence decisions: the
// backward-wave trace's warm-up awaits (Iter -1) have no advance anywhere
// in the trace, so a sealing session must decide absence from the
// watermark — and still match batch exactly, under sliding windows too.
func TestStreamBackwardWave(t *testing.T) {
	m := testgen.BackwardWave(4, 300)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{
		Procs:  m.Procs,
		Window: m.End() / 5,
		Slide:  m.End() / 10, // overlapping windows
	}
	refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
	sameApprox(t, "whole-chunk", refApprox, batch)
	if len(refWin) == 0 {
		t.Fatal("no windows emitted")
	}
	win, approx := feedChunks(t, singletonChunks(m.Events), cal, opts)
	if !reflect.DeepEqual(win, refWin) {
		t.Error("one-event window sequence differs from whole-chunk feed")
	}
	sameApprox(t, "one-event", approx, batch)

	// Most windows of a sorted feed must surface before Close: streaming
	// is only incremental if results appear mid-stream.
	s, err := core.NewStream(cal, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	early := 0
	for _, e := range m.Events {
		if err := s.Feed(context.Background(), []trace.Event{e}); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		early += len(s.Windows())
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if early == 0 {
		t.Error("sorted feed emitted no windows before Close")
	}
}

// TestStreamUnsortedFeed feeds the events grouped by processor — legal
// (per-processor times stay monotonic) but globally unsorted, so the
// session must defer absence decisions to Close. The final result still
// matches batch Analyze over the same arrival order.
func TestStreamUnsortedFeed(t *testing.T) {
	m := testgen.BackwardWave(4, 200)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	perProc := m.ByProc()
	arrival := trace.New(m.Procs)
	for _, evs := range perProc {
		for _, e := range evs {
			arrival.Append(e)
		}
	}
	batch, err := core.Analyze(arrival, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Window: m.End() / 5}
	win, approx := feedChunks(t, randomChunks(arrival.Events, 3), cal, opts)
	sameApprox(t, "unsorted", approx, batch)
	// All windows surface at Close for an unsorted feed; the set must
	// still match a sorted session's windows in content count.
	if len(win) == 0 {
		t.Error("unsorted feed emitted no windows at all")
	}
}

// TestStreamRepair checks the repair path: a trace with a dropped
// advance streams with Repair and matches batch Analyze with Repair.
func TestStreamRepair(t *testing.T) {
	m := testgen.BackwardWave(4, 100)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	// Drop one advance mid-trace: its awaitE loses its partner.
	damaged := trace.New(m.Procs)
	dropped := false
	for _, e := range m.Events {
		if !dropped && e.Kind == trace.KindAdvance && e.Iter == 50 {
			dropped = true
			continue
		}
		damaged.Append(e)
	}
	if !dropped {
		t.Fatal("no advance dropped")
	}
	batch, err := core.Analyze(damaged, cal, core.Options{Repair: true})
	if err != nil {
		t.Fatalf("batch repair: %v", err)
	}
	opts := core.StreamOptions{Procs: damaged.Procs, Repair: true, Window: damaged.End() / 4}
	win, approx := feedChunks(t, randomChunks(damaged.Events, 7), cal, opts)
	sameApprox(t, "repair", approx, batch)
	if approx.Repair == nil {
		t.Error("streaming repair result carries no RepairReport")
	}
	if len(win) == 0 {
		t.Error("repair session emitted no windows")
	}
	for _, w := range win {
		if w.Confidence < 0 || w.Confidence > 1 {
			t.Errorf("window %d confidence %v out of range", w.Index, w.Confidence)
		}
	}
}

// TestStreamLowMemory checks the summary-only mode: no retained trace,
// but the duration, wait statistics and windows match the retaining run.
func TestStreamLowMemory(t *testing.T) {
	m := testgen.BackwardWave(4, 300)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Window: m.End() / 5, LowMemory: true}
	win, approx := feedChunks(t, randomChunks(m.Events, 11), cal, opts)
	if approx.Trace != nil || approx.Times != nil {
		t.Error("low-memory session retained a trace")
	}
	if approx.Duration != batch.Duration {
		t.Errorf("low-memory Duration = %d, batch %d", approx.Duration, batch.Duration)
	}
	if approx.WaitsKept != batch.WaitsKept || approx.WaitsRemoved != batch.WaitsRemoved || approx.WaitsIntroduced != batch.WaitsIntroduced {
		t.Error("low-memory wait stats differ from batch")
	}
	fullOpts := opts
	fullOpts.LowMemory = false
	fullWin, _ := feedChunks(t, wholeChunk(m.Events), cal, fullOpts)
	if !reflect.DeepEqual(win, fullWin) {
		t.Error("low-memory window sequence differs from retaining session")
	}
}

// TestStreamTimeBased routes the time-based analysis through a session.
func TestStreamTimeBased(t *testing.T) {
	m := testgen.BackwardWave(4, 200)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{Mode: core.ModeTimeBased})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Mode: core.ModeTimeBased, Window: m.End() / 6}
	refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
	sameApprox(t, "time-based", refApprox, batch)
	win, approx := feedChunks(t, singletonChunks(m.Events), cal, opts)
	sameApprox(t, "time-based one-event", approx, batch)
	if !reflect.DeepEqual(win, refWin) {
		t.Error("time-based window sequence depends on chunking")
	}
}

// TestStreamOptionValidation pins the rejected configurations and the
// closed-session behaviour.
func TestStreamOptionValidation(t *testing.T) {
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	if _, err := core.NewStream(cal, core.StreamOptions{Mode: core.ModeLiberal}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("liberal mode: err = %v, want ErrUnsupported", err)
	}
	if _, err := core.NewStream(cal, core.StreamOptions{Repair: true, LowMemory: true}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("repair+low-memory: err = %v, want ErrUnsupported", err)
	}
	s, err := core.NewStream(cal, core.StreamOptions{})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close of empty session: %v", err)
	}
	if err := s.Feed(context.Background(), testgen.BackwardWave(2, 1).Events); err == nil {
		t.Error("Feed after Close succeeded")
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Errorf("repeated Close: %v", err)
	}
}

// TestStreamCancellation checks that a canceled context abandons the
// session with the cancellation sentinel mid-feed.
func TestStreamCancellation(t *testing.T) {
	m := testgen.BackwardWave(4, 2000)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	s, err := core.NewStream(cal, core.StreamOptions{Procs: m.Procs})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	if err := s.Feed(ctx, m.Events[:len(m.Events)/2]); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	cancelFn()
	if err := s.Feed(ctx, m.Events[len(m.Events)/2:]); err == nil {
		// Cancellation is polled every few thousand resolutions; a
		// half-trace feed may legitimately complete. Close must fail.
		if _, cerr := s.Close(ctx); cerr == nil {
			t.Error("session ignored canceled context")
		}
	}
}

// TestStreamSparseWindows: a window far smaller than the gaps between
// events leaves billions of windows empty. Passing them must cost
// nothing — a feed that stepped through each index would spin for
// minutes inside Feed — and the emitted sequence is just the touched
// windows.
func TestStreamSparseWindows(t *testing.T) {
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	ev := func(tm trace.Time) trace.Event {
		return trace.Event{Time: tm, Proc: 0, Stmt: 1, Kind: trace.KindCompute, Iter: trace.NoIter, Var: trace.NoVar}
	}
	events := []trace.Event{ev(10), ev(20_000_000_000), ev(40_000_000_000)}
	start := time.Now()
	win, approx := feedChunks(t, singletonChunks(events), cal, core.StreamOptions{Procs: 1, Window: 2})
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("passing empty windows took %v", d)
	}
	var got []int
	for _, w := range win {
		got = append(got, w.Index)
	}
	if want := []int{5, 10_000_000_000, 20_000_000_000}; !reflect.DeepEqual(got, want) {
		t.Errorf("window indices %v, want %v", got, want)
	}
	if approx.Trace.Len() != len(events) {
		t.Errorf("approximation has %d events, want %d", approx.Trace.Len(), len(events))
	}
}

// TestStreamWindowsHighProc: a session that discovers a high processor
// id sizes its processor set once, and a window's per-processor
// accumulators cost memory by the processors active in it, not by the
// largest processor id — a feed on one high processor with every event
// in a window of its own stays small. A window with more active
// processors than its scan limit still reports each one once, in
// processor order.
func TestStreamWindowsHighProc(t *testing.T) {
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	ev := func(p int, tm trace.Time) trace.Event {
		return trace.Event{Time: tm, Proc: p, Stmt: 1, Kind: trace.KindCompute, Iter: trace.NoIter, Var: trace.NoVar}
	}
	const high = 1<<14 - 1
	s, err := core.NewStream(cal, core.StreamOptions{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Feed(ctx, []trace.Event{ev(high, 0)}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > (high+1)*256 {
		t.Errorf("discovering processor %d allocated %d bytes", high, d)
	}
	const n = 200
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = ev(high, trace.Time(100*(i+1)))
	}
	runtime.ReadMemStats(&before)
	if err := s.Feed(ctx, events); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > n*4096 {
		t.Errorf("%d one-event windows on processor %d allocated %d bytes", n, high, d)
	}
	if _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// 20 processors in one window, first seen in descending order, each
	// with p+1 events.
	var wide []trace.Event
	for p := 19; p >= 0; p-- {
		for j := 0; j <= p; j++ {
			wide = append(wide, ev(p, trace.Time(1000+10*(19-p)+j)))
		}
	}
	win, _ := feedChunks(t, [][]trace.Event{wide}, cal, core.StreamOptions{})
	if len(win) != 1 || win[0].ActiveProcs != 20 || len(win[0].Procs) != 20 {
		t.Fatalf("got %d windows, want one with 20 active processors: %+v", len(win), win)
	}
	for i, wp := range win[0].Procs {
		if wp.Proc != i || wp.Events != i+1 {
			t.Errorf("window processor %d: proc %d with %d events, want proc %d with %d", i, wp.Proc, wp.Events, i, i+1)
		}
	}
}
