package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// This file implements the incremental analysis engine: the constructive
// resolution of eventbased.go restructured to ingest events in arrival
// order and resolve them as their dependencies become available, instead
// of requiring the whole trace up front. The batch entry points
// (EventBased, TimeBased) are thin wrappers — feed every event, then
// close — so there is one engine, not two, and the golden tests that pin
// the batch outputs cover the incremental machinery byte for byte.
//
// Correctness rests on three properties of the constructive resolution:
//
//   - Confluence: every event's approximated time is a pure function of
//     its dependencies' approximated times (same-processor basis, fork
//     fence, paired advance, previous lock holder, barrier participants),
//     so the order in which resolvable events are resolved never changes
//     a value. Resolving eagerly as events arrive therefore yields the
//     same times the batch fixpoint computes.
//
//   - Arrival order is trace order: advance pairing (first occurrence
//     wins), lock serialization (previous release in trace order) and
//     fork fences (latest fence between two positions) are all defined
//     over trace positions, which the engine assigns as events arrive.
//
//   - Watermark sealing: the only decisions that need whole-trace
//     knowledge are absence decisions — an awaitE with no paired advance,
//     a barrier whose participant set must be complete. While the feed is
//     globally time-sorted, every event with measured time <= t has
//     arrived once the watermark (largest measured time seen) exceeds t,
//     so for causally ordered traces (a partner never completes after its
//     dependent) absence is decidable mid-stream. The decisions are
//     optimistic: if a contradicting partner does arrive later, the
//     engine flags the run and re-resolves exactly at close from the
//     retained events (or fails in low-memory mode, which retains
//     nothing). Unsorted feeds simply defer absence decisions to close.
//
// Stall-breaking (degraded mode's forced resolution) runs only at close,
// where the engine has exactly the batch fixpoint's knowledge: the set of
// events still unresolved at a stall is the unique maximal-progress
// fixpoint, so the forced-resolution sequence matches the batch engine's.

// WindowResult is one window of streaming analysis output: the measured
// time interval [Start, End) with the waiting and parallelism the
// analysis resolved for the events inside it. Windows are emitted in
// index order, non-empty only, as soon as every event that can fall in
// the window has been fed and resolved.
//
// An Index can appear more than once in a session's output: when a feed
// turns out-of-order after a sorted prefix, events can land in a window
// that the watermark evidence had already released, and close re-emits
// that window with its complete corrected content. For a given Index the
// latest emission supersedes earlier ones; for globally time-sorted feeds
// every Index is emitted exactly once.
type WindowResult struct {
	// Index is the window's position on the measured time axis: window k
	// covers [k*Slide, k*Slide+Window).
	Index int `json:"index"`
	// Start and End bound the window in measured time (nanoseconds).
	// For an unwindowed session (Window <= 0) the single window spans
	// [0, latest measured time].
	Start trace.Time `json:"start"`
	End   trace.Time `json:"end"`
	// Events is the number of events whose measured time falls in the
	// window.
	Events int `json:"events"`
	// ActiveProcs is the number of processors with at least one event in
	// the window — the instantaneous parallelism at window granularity.
	ActiveProcs int `json:"active_procs"`
	// Waiting is the total approximated waiting time attributed to
	// synchronization events in the window: the part of each event's
	// approximated gap from its basis that exceeds the operation's
	// no-contention cost.
	Waiting trace.Time `json:"waiting"`
	// AvgParallelism is the average parallelism over the window's
	// approximated span: per-processor busy time (approximated span minus
	// waiting) summed, divided by the window's total approximated span.
	AvgParallelism float64 `json:"avg_parallelism"`
	// Confidence is 1 minus the window's impaired-event fraction
	// (placeholder or forced resolutions); 1.0 for exact runs.
	Confidence float64 `json:"confidence"`
	// Procs breaks the window down per processor, ordered by processor id.
	Procs []WindowProc `json:"procs"`
}

// WindowProc is one processor's share of a window.
type WindowProc struct {
	Proc   int `json:"proc"`
	Events int `json:"events"`
	// MeasuredStart/End and ApproxStart/End bound the processor's events
	// in the window on the measured and approximated time axes — their
	// divergence is the perturbation the analysis removed.
	MeasuredStart trace.Time `json:"measured_start"`
	MeasuredEnd   trace.Time `json:"measured_end"`
	ApproxStart   trace.Time `json:"approx_start"`
	ApproxEnd     trace.Time `json:"approx_end"`
	// Waiting is the approximated waiting attributed to the processor's
	// synchronization events in the window.
	Waiting trace.Time `json:"waiting"`
}

// engineOptions configures the incremental engine.
type engineOptions struct {
	mode     Mode // ModeEventBased or ModeTimeBased
	degraded bool // tolerate incomplete traces (placeholders, stall-breaking)
	retain   bool // keep events for finish(); off = summary-only, low memory
	seal     bool // allow optimistic watermark absence decisions mid-stream
	// fixedProcs pins the processor count (events outside [0, procs) are
	// rejected); false grows the processor set from the events.
	fixedProcs bool
}

// advRec is the pairing record of one (variable, iteration) key: the
// first advance fed for it, and the awaits parked on it.
type advRec struct {
	ta     trace.Time
	seq    int   // arrival position+1 of the first advance fed; 0 = none yet
	wait   int32 // waiter list: awaits blocked on this key
	done   bool  // the first advance resolved
	sealed bool  // an await resolved mid-stream on the absent-partner path
}

// relRec is the resolution record of a lock-rel event, referenced by the
// following acquisition of the same lock.
type relRec struct {
	seq  int
	ta   trace.Time
	wait int32 // waiter list: the acquisition blocked on this release
	done bool
}

// barRec accumulates one barrier's participant state.
type barRec struct {
	fed      int        // arrive events fed so far
	resolved int        // arrive events resolved so far
	maxTA    trace.Time // max approximated arrival over resolved participants
	wait     int32      // waiter list: releases blocked on unresolved participants
	sealed   bool       // a release resolved mid-stream against this set
}

// fenceRec is a fork fence (loop-begin event) in arrival order.
type fenceRec struct {
	seq  int
	proc int
	tm   trace.Time
	ta   trace.Time
	wait int32 // waiter list: heads whose basis is this fence
	done bool
}

// Processor scheduling states.
const (
	procIdle   uint8 = iota // queue empty (or being resolved by pass)
	procReady               // on the ready worklist
	procParked              // head blocked; a wake source will make it ready
)

// procState is one processor's frontier: the resolved prefix is
// summarized by (prevSeq, taPrev, tmPrev); the unresolved suffix waits in
// queue[qhead:] as arrival positions. In batch mode the queue is sized to
// the processor's event count up front and never compacted, so at finish
// it lists every event of the processor in order.
type procState struct {
	queue   []int
	evq     []trace.Event // low-memory mode: the queued events, parallel to queue
	qhead   int
	prevSeq int
	taPrev  trace.Time
	tmPrev  trace.Time
	events  int    // events fed (Confidence denominator)
	gen     uint32 // bumped on every wake; parks recorded under an older gen are stale
	state   uint8
}

// resolveNote carries one event's resolution to the window accumulator.
type resolveNote struct {
	ta         trace.Time
	waiting    trace.Time
	kept       int
	removed    int
	introduced int
	impaired   bool
}

// winAcc accumulates one window's statistics as its events resolve.
type winAcc struct {
	k        int // window index
	pending  int // fed-but-unresolved events, counted while the window is unemitted
	events   int
	impaired int
	waiting  trace.Time
	procs    []winProcAcc  // processors with an event in the window, in first-seen order
	index    map[int]int32 // processor -> position in procs, once procs outgrows a scan
}

type winProcAcc struct {
	proc         int
	events       int
	minTM, maxTM trace.Time
	minTA, maxTA trace.Time
	waiting      trace.Time
}

// engine is the incremental resolution engine. It is not safe for
// concurrent use; the facade's StreamAnalyzer adds the locking.
//
// Scheduling is park/wake: a queue head that cannot resolve parks on
// exactly what it waits for — a fork fence, an advance's pairing record,
// the previous holder's release, a barrier's participant count, or (for
// an optimistic absence decision) the watermark passing its measured
// time — and the event that supplies it pushes the processor onto the
// ready worklist. pass drains only that worklist, so each event is
// probed O(1) times instead of once per pass over every processor.
type engine struct {
	cal  instr.Calibration
	opts engineOptions

	ps        []procState
	fences    []fenceRec
	advances  pairTable[advRec]
	barriers  pairTable[barRec]
	locks     lockTable
	validator *trace.EventValidator

	ready   []int    // processors whose head may be resolvable
	waiters []waiter // pooled waiter-list nodes, linked from the records
	freeW   int32    // index+1 of the first free waiter node, 0 = none
	wmParks wmHeap   // absence parks waiting for the watermark to pass them

	parks, wakes, redos int64 // telemetry, flushed once per run

	n         int // events fed
	remaining int // events fed but not resolved
	watermark trace.Time
	sorted    bool
	closed    bool
	needRedo  bool
	// nested marks the exact re-run inside redo: its telemetry is
	// folded into the outer run's instead of being flushed separately.
	nested bool
	// runCounted marks a run another engine already counted in
	// core.analysis.runs/events (the sharded engine's failed attempt
	// before a degraded fallback); only the engine counters are flushed.
	runCounted bool

	maxTA trace.Time

	stats struct{ kept, removed, introduced int }
	conf  []ProcConfidence // degraded-mode impairment tallies, indexed by proc

	// Windowing. window <= 0 means a single unbounded window emitted at
	// close; otherwise window k covers [k*slide, k*slide+window) in
	// measured time.
	window, slide trace.Time
	wins          []winAcc // every window touched so far, ordered by index
	winFront      int      // wins[winFront:] are the windows at or after winNext
	winMaxIdx     int      // largest window index any fed event touches
	winNext       int      // next window index to consider for emission
	winQ          []WindowResult
	winAmended    map[int]bool         // emitted windows that later received events
	drainedWin    map[int]WindowResult // last content handed out per index

	// Events by arrival position: the analyzed trace itself in batch mode
	// (borrowed, read-only), the retained feed in a retaining session,
	// empty in low-memory mode. taAll holds their approximated times.
	all   []trace.Event
	batch bool
	taAll []trace.Time

	sinceCheck int
}

func newIncEngine(procs int, cal instr.Calibration, opts engineOptions) *engine {
	g := &engine{
		cal:        cal,
		opts:       opts,
		winMaxIdx:  -1,
		drainedWin: make(map[int]WindowResult),
		watermark:  math.MinInt64,
		sorted:     true,
	}
	if opts.fixedProcs {
		g.growProcs(procs)
		g.validator = trace.NewEventValidator(procs)
	} else {
		g.validator = trace.NewEventValidator(0)
	}
	return g
}

// setWindows configures the window geometry. Must be called before the
// first feed. slide <= 0 means tumbling (slide = window).
func (g *engine) setWindows(window, slide trace.Time) {
	if window > 0 && slide <= 0 {
		slide = window
	}
	g.window, g.slide = window, slide
}

func (g *engine) procs() int { return len(g.ps) }

// growProcs extends the processor set to n processors in one allocation.
func (g *engine) growProcs(n int) {
	old := len(g.ps)
	if n <= old {
		return
	}
	g.ps = append(g.ps, make([]procState, n-old)...)
	for p := old; p < n; p++ {
		g.ps[p].prevSeq = -1
	}
}

// analyze runs the engine over a whole trace: feed everything, then
// close.
func (g *engine) analyze(ctx context.Context, events []trace.Event) (*Approximation, error) {
	if err := g.feedAll(ctx, events); err != nil {
		return nil, err
	}
	return g.close(ctx)
}

// feedAll feeds a whole trace in batch mode. Knowing the input up front,
// it reads the events in place instead of copying them, and sizes every
// processor queue and the result times exactly, once.
func (g *engine) feedAll(ctx context.Context, events []trace.Event) error {
	g.all, g.batch = events, true
	counts := make([]int, len(g.ps))
	for i := range events {
		p := events[i].Proc
		if p < 0 || (g.opts.fixedProcs && p >= len(counts)) {
			continue // rejected by validation when reached
		}
		if p >= len(counts) {
			counts = append(counts, make([]int, p+1-len(counts))...)
		}
		counts[p]++
	}
	g.growProcs(len(counts))
	backing := make([]int, len(events))
	off := 0
	for p, c := range counts {
		g.ps[p].queue = backing[off : off : off+c]
		off += c
	}
	if len(events) > 0 {
		g.taAll = make([]trace.Time, len(events))
	}
	for i := range events {
		if err := g.feedOne(ctx, &events[i]); err != nil {
			return err
		}
	}
	return nil
}

// feed ingests events in arrival order, validating each, and resolves
// everything their arrival makes resolvable. Each event is processed
// individually so resolution decisions (and therefore emitted windows)
// depend only on the event sequence, never on how the caller chunked it.
func (g *engine) feed(ctx context.Context, events []trace.Event) error {
	for i := range events {
		if err := g.feedOne(ctx, &events[i]); err != nil {
			return err
		}
	}
	return nil
}

// feedOne ingests the next event: records it, wakes whatever its arrival
// unblocks, and resolves everything resolvable before returning.
func (g *engine) feedOne(ctx context.Context, e *trace.Event) error {
	if err := g.validator.Check(*e); err != nil {
		return fmt.Errorf("core: invalid input trace: %w", err)
	}
	seq := g.n
	g.n++
	g.remaining++
	if g.opts.retain && !g.batch {
		g.all = append(g.all, *e)
		g.taAll = append(g.taAll, 0)
	}
	if seq > 0 && e.Time < g.watermark && g.sorted {
		// Absence is now only decidable at close, which wakes every
		// parked head; the watermark parks are moot.
		g.sorted = false
		g.wmParks = g.wmParks[:0]
	}
	if e.Time > g.watermark {
		g.watermark = e.Time
		for len(g.wmParks) > 0 && g.wmParks[0].t < g.watermark {
			w := g.wmParks.pop()
			g.wake(int(w.proc), w.gen)
		}
	}
	if e.Proc >= len(g.ps) {
		g.growProcs(e.Proc + 1)
	}
	ps := &g.ps[e.Proc]
	ps.events++

	kmin, kmax := g.winRange(e.Time)
	for k := kmin; k <= kmax; k++ {
		if w := g.winAt(k); k >= g.winNext {
			w.pending++
		}
	}
	if kmax > g.winMaxIdx {
		g.winMaxIdx = kmax
	}

	switch e.Kind {
	case trace.KindAdvance:
		rec := g.advances.get(e.Var, e.Iter, true)
		if rec.sealed {
			g.needRedo = true
		}
		if rec.seq == 0 {
			rec.seq = seq + 1
			g.wakeList(&rec.wait) // awaits that could not yet rule the advance out
		}
	case trace.KindBarrierArrive:
		b := g.barriers.get(e.Var, e.Iter, true)
		if b.sealed {
			g.needRedo = true
		}
		b.fed++
	case trace.KindLockRel:
		g.locks.add(e.Var, seq)
	case trace.KindLoopBegin:
		g.fences = append(g.fences, fenceRec{seq: seq, proc: e.Proc, tm: e.Time})
	}
	ps.queue = append(ps.queue, seq)
	if !g.opts.retain {
		ps.evq = append(ps.evq, *e)
	}
	if ps.state == procIdle {
		g.makeReady(e.Proc)
	}

	if err := g.pass(ctx); err != nil {
		return err
	}
	g.emitWindows()
	return nil
}

// winRange returns the inclusive window index range an event at measured
// time tm falls into, or an empty range (kmin > kmax) when it falls in no
// window (negative time, or a gap when slide > window).
func (g *engine) winRange(tm trace.Time) (int, int) {
	if g.window <= 0 {
		return 0, 0 // single unbounded window
	}
	kmax := floorDiv(tm, g.slide)
	kmin := floorDiv(tm-g.window, g.slide) + 1
	if kmin < 0 {
		kmin = 0
	}
	return int(kmin), int(kmax)
}

func floorDiv(a, b trace.Time) trace.Time {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// winEnd returns the exclusive measured-time end of window k.
func (g *engine) winEnd(k int) trace.Time {
	if g.window <= 0 {
		return math.MaxInt64
	}
	return trace.Time(k)*g.slide + g.window
}

// winAt returns window k's accumulator, adding it in index order if the
// window was never touched. The pointer is valid until the next add.
func (g *engine) winAt(k int) *winAcc {
	ws := g.wins
	if n := len(ws); n > 0 && ws[n-1].k == k {
		return &ws[n-1] // time-ordered feeds mostly touch the newest window
	}
	lo := sort.Search(len(ws), func(i int) bool { return ws[i].k >= k })
	if lo < len(ws) && ws[lo].k == k {
		return &ws[lo]
	}
	g.wins = append(g.wins, winAcc{})
	copy(g.wins[lo+1:], g.wins[lo:])
	g.wins[lo] = winAcc{k: k}
	if k < g.winNext {
		g.winFront++ // a late event's window, before the unemitted ones
	}
	return &g.wins[lo]
}

// fenceBetween returns the index (into g.fences) of the latest fork fence
// with arrival position strictly between prevSeq and seq that lies on a
// different processor than proc, or -1. Fences on the same processor are
// part of that processor's own chain and never apply.
func (g *engine) fenceBetween(prevSeq, seq, proc int) int {
	for k := len(g.fences) - 1; k >= 0; k-- {
		f := &g.fences[k]
		if f.seq >= seq {
			continue
		}
		if f.seq <= prevSeq {
			return -1
		}
		if f.proc != proc {
			return k
		}
	}
	return -1
}

// fenceAt returns the fence fed at arrival position seq.
func (g *engine) fenceAt(seq int) *fenceRec {
	return &g.fences[sort.Search(len(g.fences), func(i int) bool { return g.fences[i].seq >= seq })]
}

// basis returns the time basis for processor p's queue head at arrival
// position seq: the fork fence between it and its predecessor if one
// applies, the predecessor's frontier otherwise, the origin for a
// processor's first event. blocked is the index of the basis fence when
// that fence is still unresolved, -1 otherwise.
func (g *engine) basis(p, seq int) (ta, tm trace.Time, blocked int) {
	ps := &g.ps[p]
	if fi := g.fenceBetween(ps.prevSeq, seq, p); fi >= 0 {
		f := &g.fences[fi]
		if !f.done {
			return 0, 0, fi
		}
		return f.ta, f.tm, -1
	}
	if ps.prevSeq >= 0 {
		return ps.taPrev, ps.tmPrev, -1
	}
	return 0, 0, -1
}

// absenceKnown reports whether the engine may decide that no partner for
// a synchronization event at measured time t will ever arrive: certainly
// at close, optimistically once a sorted feed's watermark has passed t
// (strictly, so timestamp ties are safe).
func (g *engine) absenceKnown(t trace.Time) bool {
	if g.closed {
		return true
	}
	return g.opts.seal && g.sorted && g.watermark > t
}

// overhead returns the calibrated probe cost for the event kind.
func (g *engine) overhead(k trace.Kind) trace.Time {
	return g.cal.Overheads.ForKind(k)
}

// headEvent returns the event at the head of the processor's queue.
func (g *engine) headEvent(ps *procState) *trace.Event {
	if !g.opts.retain {
		return &ps.evq[ps.qhead]
	}
	return &g.all[ps.queue[ps.qhead]]
}

// park blocks processor p's head on the waiter list headed at *list; a
// nil list parks it until close, which wakes every parked processor.
func (g *engine) park(p int, list *int32) {
	ps := &g.ps[p]
	ps.state = procParked
	g.parks++
	if list == nil {
		return
	}
	i := g.freeW
	if i != 0 {
		g.freeW = g.waiters[i-1].next
	} else {
		g.waiters = append(g.waiters, waiter{})
		i = int32(len(g.waiters))
	}
	g.waiters[i-1] = waiter{proc: int32(p), gen: ps.gen, next: *list}
	*list = i
}

// parkUntil additionally wakes parked processor p once a sorted feed's
// watermark passes measured time t — the moment an optimistic absence
// decision becomes possible. Without sealing, or once the feed is
// unsorted, only close decides absence.
func (g *engine) parkUntil(p int, t trace.Time) {
	if g.opts.seal && g.sorted && !g.closed {
		g.wmParks.push(wmPark{t: t, proc: int32(p), gen: g.ps[p].gen})
	}
}

// wake makes processor p ready if it is still parked under generation
// gen; a later generation means another source already woke it.
func (g *engine) wake(p int, gen uint32) {
	ps := &g.ps[p]
	if ps.state != procParked || ps.gen != gen {
		return
	}
	ps.gen++
	ps.state = procReady
	g.ready = append(g.ready, p)
	g.wakes++
}

// wakeList wakes every processor on the waiter list and frees its nodes.
func (g *engine) wakeList(list *int32) {
	for i := *list; i != 0; {
		w := g.waiters[i-1]
		g.wake(int(w.proc), w.gen)
		g.waiters[i-1].next = g.freeW
		g.freeW = i
		i = w.next
	}
	*list = 0
}

// makeReady puts processor p on the ready worklist unconditionally,
// invalidating any parks it holds.
func (g *engine) makeReady(p int) {
	ps := &g.ps[p]
	switch ps.state {
	case procReady:
		return
	case procParked:
		ps.gen++
	}
	ps.state = procReady
	g.ready = append(g.ready, p)
}

// resolveHead applies the resolution rules to processor p's queue head.
// It reports whether the event resolved; if not, the head has been
// parked on the dependency it is blocked on.
func (g *engine) resolveHead(p int) bool {
	ps := &g.ps[p]
	seq := ps.queue[ps.qhead]
	e := g.headEvent(ps)
	taBase, tmBase, blocked := g.basis(p, seq)
	if blocked >= 0 {
		g.park(p, &g.fences[blocked].wait)
		return false
	}
	cal := &g.cal
	var note resolveNote

	if g.opts.mode == ModeTimeBased {
		g.resolveDefaultInc(e, taBase, tmBase, &note)
		g.commit(p, seq, e, note)
		return true
	}

	switch e.Kind {
	case trace.KindAwaitE:
		taAwaitB := taBase // predecessor of awaitE is its awaitB
		rec := g.advances.get(e.Var, e.Iter, false)
		paired := rec != nil && rec.seq != 0
		if paired && !rec.done {
			g.park(p, &rec.wait) // blocked on the advance
			return false
		}
		if !paired && !g.absenceKnown(e.Time) {
			// The advance may still arrive.
			g.park(p, &g.advances.get(e.Var, e.Iter, true).wait)
			g.parkUntil(p, e.Time)
			return false
		}
		if !paired && !g.closed {
			g.advances.get(e.Var, e.Iter, true).sealed = true
		}
		var taA trace.Time
		if paired {
			taA = rec.ta
		}
		// Classify against the measured behaviour (Figure 2): the
		// await waited in the measurement iff its measured gap
		// exceeds the no-wait processing plus probe cost.
		measuredGap := e.Time - tmBase
		waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.AwaitE+cal.SNoWait/2
		if !paired && g.opts.degraded && e.Iter >= 0 {
			// Conservative placeholder: the advance was dropped.
			wait := placeholderWait(*cal, taAwaitB, tmBase, e.Time)
			note.ta = taAwaitB + wait
			note.impaired = true
			g.confFor(e.Proc).Placeholders++
			waitedApprox := wait > cal.SNoWait
			if waitedMeasured && waitedApprox {
				note.kept = 1
			} else if waitedMeasured {
				note.removed = 1
			} else if waitedApprox {
				note.introduced = 1
			}
			note.waiting = waitAbove(note.ta, taAwaitB, cal.SNoWait)
			g.commit(p, seq, e, note)
			return true
		}
		if paired && taA > taAwaitB {
			note.ta = taA + cal.SWait
			note.kept = 1
		} else {
			note.ta = taAwaitB + cal.SNoWait
		}
		waitedApprox := paired && taA > taAwaitB
		if waitedMeasured && !waitedApprox {
			note.removed = 1
		} else if !waitedMeasured && waitedApprox {
			note.introduced = 1
		}
		note.waiting = waitAbove(note.ta, taAwaitB, cal.SNoWait)
		g.commit(p, seq, e, note)
		return true

	case trace.KindLockAcq:
		taReq := taBase // predecessor of lock-acq is its lock-req
		rr := g.locks.before(e.Var, seq)
		if rr != nil && !rr.done {
			g.park(p, &rr.wait) // blocked on the previous holder's release
			return false
		}
		var taRel trace.Time
		held := rr != nil
		if held {
			taRel = rr.ta
		}
		if held && taRel > taReq {
			note.ta = taRel + cal.SWait
			note.kept = 1
		} else {
			note.ta = taReq + cal.SNoWait
		}
		measuredGap := e.Time - tmBase
		waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.ForKind(e.Kind)+cal.SNoWait/2
		waitedApprox := held && taRel > taReq
		if waitedMeasured && !waitedApprox {
			note.removed = 1
		} else if !waitedMeasured && waitedApprox {
			note.introduced = 1
		}
		note.waiting = waitAbove(note.ta, taReq, cal.SNoWait)
		g.commit(p, seq, e, note)
		return true

	case trace.KindBarrierRelease:
		if !g.absenceKnown(e.Time) {
			g.park(p, nil) // more participants may still arrive
			g.parkUntil(p, e.Time)
			return false
		}
		b := g.barriers.get(e.Var, e.Iter, false)
		if b != nil && b.resolved < b.fed {
			g.park(p, &b.wait) // a fed participant is still unresolved
			return false
		}
		var latest trace.Time
		if b != nil {
			latest = b.maxTA
		}
		if !g.closed {
			g.barriers.get(e.Var, e.Iter, true).sealed = true
		}
		note.ta = latest + cal.Barrier
		note.waiting = waitAbove(note.ta, taBase, cal.Barrier)
		g.commit(p, seq, e, note)
		return true

	default:
		g.resolveDefaultInc(e, taBase, tmBase, &note)
		g.commit(p, seq, e, note)
		return true
	}
}

// waitAbove is the window accumulator's waiting attribution: the part of
// the event's approximated gap from its basis that exceeds the
// operation's no-contention cost.
func waitAbove(ta, taBase, cost trace.Time) trace.Time {
	w := ta - taBase - cost
	if w < 0 {
		return 0
	}
	return w
}

// resolveDefaultInc applies the execution-timing rule: the approximated
// time is the basis plus the measured gap minus the event's probe
// overhead.
func (g *engine) resolveDefaultInc(e *trace.Event, taBase, tmBase trace.Time, note *resolveNote) {
	gap := e.Time - tmBase - g.overhead(e.Kind)
	if gap < 0 {
		// Calibration error can slightly exceed a short measured gap;
		// clamp so approximated per-thread time stays monotonic.
		gap = 0
	}
	note.ta = taBase + gap
}

// commit finalizes the resolution of processor p's head (arrival position
// seq): records the approximated time, folds sync bookkeeping and wakes
// the heads waiting on it, advances the processor frontier and
// accumulates the event into its windows.
func (g *engine) commit(p, seq int, e *trace.Event, note resolveNote) {
	ta := note.ta
	ps := &g.ps[p]

	if g.opts.retain {
		g.taAll[seq] = ta
	}
	switch e.Kind {
	case trace.KindAdvance:
		if rec := g.advances.get(e.Var, e.Iter, false); rec.seq == seq+1 {
			rec.ta = ta
			rec.done = true
			g.wakeList(&rec.wait)
		}
	case trace.KindLockRel:
		rr := g.locks.at(e.Var, seq)
		rr.ta = ta
		rr.done = true
		g.wakeList(&rr.wait)
	case trace.KindBarrierArrive:
		b := g.barriers.get(e.Var, e.Iter, false)
		b.resolved++
		if ta > b.maxTA {
			b.maxTA = ta
		}
		if b.resolved == b.fed {
			g.wakeList(&b.wait)
		}
	case trace.KindLoopBegin:
		f := g.fenceAt(seq)
		f.ta = ta
		f.done = true
		g.wakeList(&f.wait)
	}
	g.stats.kept += note.kept
	g.stats.removed += note.removed
	g.stats.introduced += note.introduced
	if ta > g.maxTA {
		g.maxTA = ta
	}

	g.foldWindow(e, &note)

	ps.prevSeq = seq
	ps.taPrev = ta
	ps.tmPrev = e.Time
	ps.qhead++
	// Streams compact the queue once the resolved prefix dominates,
	// keeping amortized O(1) pops without unbounded growth; batch queues
	// keep their prefix as the processor's run for finish.
	if !g.batch && ps.qhead > 32 && ps.qhead*2 >= len(ps.queue) {
		n := copy(ps.queue, ps.queue[ps.qhead:])
		ps.queue = ps.queue[:n]
		if ps.evq != nil {
			copy(ps.evq, ps.evq[ps.qhead:])
			ps.evq = ps.evq[:n]
		}
		ps.qhead = 0
	}
	g.remaining--
}

// foldWindow accumulates a resolved event into every window containing
// its measured time.
func (g *engine) foldWindow(e *trace.Event, note *resolveNote) {
	kmin, kmax := g.winRange(e.Time)
	for k := kmin; k <= kmax; k++ {
		w := g.winAt(k)
		if k >= g.winNext {
			w.pending--
		} else {
			if g.winAmended == nil {
				g.winAmended = make(map[int]bool)
			}
			g.winAmended[k] = true
		}
		w.events++
		w.waiting += note.waiting
		if note.impaired {
			w.impaired++
		}
		pa := w.procAcc(e.Proc)
		if pa.events == 0 {
			*pa = winProcAcc{
				proc:  e.Proc,
				minTM: e.Time, maxTM: e.Time,
				minTA: note.ta, maxTA: note.ta,
			}
		}
		pa.events++
		pa.waiting += note.waiting
		if e.Time < pa.minTM {
			pa.minTM = e.Time
		}
		if e.Time > pa.maxTM {
			pa.maxTM = e.Time
		}
		if note.ta < pa.minTA {
			pa.minTA = note.ta
		}
		if note.ta > pa.maxTA {
			pa.maxTA = note.ta
		}
	}
}

// winScan is how many processors a window looks up by scanning its
// accumulators before it indexes them in a map.
const winScan = 8

// procAcc returns the window's accumulator for processor p, appending a
// zero one if p has no event in the window yet. Accumulators are kept per
// active processor, so a window costs memory by the processors it saw,
// not by the largest processor id.
func (w *winAcc) procAcc(p int) *winProcAcc {
	if w.index != nil {
		if i, ok := w.index[p]; ok {
			return &w.procs[i]
		}
		w.index[p] = int32(len(w.procs))
	} else {
		for i := range w.procs {
			if w.procs[i].proc == p {
				return &w.procs[i]
			}
		}
		if len(w.procs) == winScan {
			w.index = make(map[int]int32, 2*winScan)
			for i := range w.procs {
				w.index[w.procs[i].proc] = int32(i)
			}
			w.index[p] = int32(len(w.procs))
		}
	}
	w.procs = append(w.procs, winProcAcc{})
	return &w.procs[len(w.procs)-1]
}

// emitWindows moves every finished window, in index order, from the
// accumulators to the output queue. A window is finished when no fed
// event that can fall in it is unresolved and (mid-stream) the sorted
// feed's watermark has passed its end, so no future event can fall in it
// either. Empty windows are skipped, not emitted.
//
// The accumulators stay alive after emission: a feed that turns
// out-of-order after a sorted prefix can deliver events into a window
// that was already emitted on the watermark's evidence. Such late events
// keep folding, the window is marked amended, and close re-emits its
// corrected content (emitAmended).
func (g *engine) emitWindows() {
	for g.winNext <= g.winMaxIdx {
		k := g.winNext
		if g.winFront < len(g.wins) && g.wins[g.winFront].k == k {
			w := &g.wins[g.winFront]
			if w.pending > 0 {
				return
			}
			if !g.closed && !(g.sorted && g.watermark >= g.winEnd(k)) {
				return
			}
			if w.events > 0 {
				g.winQ = append(g.winQ, g.buildWindow(w))
			}
			g.winFront++
			g.winNext++
			continue
		}
		// k starts a run of windows no event touched: pass, in one step,
		// every one of them whose end the watermark has reached, up to the
		// next touched window. (Only window > 0 gets here.)
		next := g.winMaxIdx + 1
		if g.winFront < len(g.wins) {
			next = g.wins[g.winFront].k
		}
		if !g.closed {
			if !g.sorted {
				return
			}
			// winEnd(j) <= watermark exactly for j <= last.
			last := int(floorDiv(g.watermark-g.window, g.slide))
			if last < k {
				return
			}
			next = min(next, last+1)
		}
		g.winNext = next
	}
}

// emitAmended re-emits, at close, every window that received events after
// its emission — possible only when the feed violated global time order
// after a sorted prefix. The re-emission carries the window's complete
// corrected content; for a given Index, the latest emission supersedes
// earlier ones.
func (g *engine) emitAmended() {
	if len(g.winAmended) == 0 {
		return
	}
	ks := make([]int, 0, len(g.winAmended))
	for k := range g.winAmended {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		g.winQ = append(g.winQ, g.buildWindow(g.winAt(k)))
	}
	g.winAmended = nil
}

// buildWindow assembles the WindowResult for an accumulated window.
func (g *engine) buildWindow(acc *winAcc) WindowResult {
	k := acc.k
	w := WindowResult{
		Index:       k,
		Start:       trace.Time(k) * g.slide,
		End:         g.winEnd(k),
		Events:      acc.events,
		ActiveProcs: len(acc.procs),
		Waiting:     acc.waiting,
		Confidence:  1,
		Procs:       make([]WindowProc, 0, len(acc.procs)),
	}
	if g.window <= 0 {
		w.Start = 0
		w.End = 0
		if g.watermark > 0 {
			w.End = g.watermark
		}
	}
	var busy trace.Time
	minTA, maxTA := trace.Time(math.MaxInt64), trace.Time(math.MinInt64)
	for i := range acc.procs {
		pa := &acc.procs[i]
		w.Procs = append(w.Procs, WindowProc{
			Proc:          pa.proc,
			Events:        pa.events,
			MeasuredStart: pa.minTM,
			MeasuredEnd:   pa.maxTM,
			ApproxStart:   pa.minTA,
			ApproxEnd:     pa.maxTA,
			Waiting:       pa.waiting,
		})
		b := pa.maxTA - pa.minTA - pa.waiting
		if b > 0 {
			busy += b
		}
		if pa.minTA < minTA {
			minTA = pa.minTA
		}
		if pa.maxTA > maxTA {
			maxTA = pa.maxTA
		}
	}
	slices.SortFunc(w.Procs, func(a, b WindowProc) int { return cmp.Compare(a.Proc, b.Proc) })
	if span := maxTA - minTA; span > 0 {
		w.AvgParallelism = float64(busy) / float64(span)
	} else {
		w.AvgParallelism = float64(len(acc.procs))
	}
	if g.opts.degraded && acc.events > 0 {
		c := 1 - float64(acc.impaired)/float64(acc.events)
		if c < 0 {
			c = 0
		}
		w.Confidence = c
	}
	return w
}

// drainWindows hands out the finished windows emitted since the last
// drain, in index order.
func (g *engine) drainWindows() []WindowResult {
	if len(g.winQ) == 0 {
		return nil
	}
	out := g.winQ
	g.winQ = nil
	for _, w := range out {
		g.drainedWin[w.Index] = w
	}
	return out
}

// windowEqual reports whether two emissions carry identical content.
func windowEqual(a, b WindowResult) bool {
	if a.Index != b.Index || a.Start != b.Start || a.End != b.End ||
		a.Events != b.Events || a.ActiveProcs != b.ActiveProcs ||
		a.Waiting != b.Waiting || a.AvgParallelism != b.AvgParallelism ||
		a.Confidence != b.Confidence || len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i] != b.Procs[i] {
			return false
		}
	}
	return true
}

// confFor returns the degraded-mode impairment record for proc,
// allocating the table on first use.
func (g *engine) confFor(proc int) *ProcConfidence {
	for proc >= len(g.conf) {
		g.conf = append(g.conf, ProcConfidence{Proc: len(g.conf)})
	}
	return &g.conf[proc]
}

// pass drains the ready worklist: each ready processor resolves queue
// heads until one blocks (and parks) or the queue empties, and every
// resolution pushes the processors it unblocks. When the worklist is
// empty, everything resolvable with what has been fed is resolved.
func (g *engine) pass(ctx context.Context) error {
	for len(g.ready) > 0 {
		p := g.ready[len(g.ready)-1]
		g.ready = g.ready[:len(g.ready)-1]
		ps := &g.ps[p]
		ps.state = procIdle
		for ps.qhead < len(ps.queue) {
			if !g.resolveHead(p) {
				break
			}
			if g.sinceCheck++; g.sinceCheck >= cancel.CheckEvery {
				g.sinceCheck = 0
				if err := cancel.Err(ctx); err != nil {
					if ps.qhead < len(ps.queue) && ps.state == procIdle {
						g.makeReady(p) // resume here if the session goes on
					}
					return err
				}
			}
		}
	}
	return nil
}

// close finishes the analysis (closeRun) and flushes the run's telemetry.
func (g *engine) close(ctx context.Context) (*Approximation, error) {
	a, err := g.closeRun(ctx)
	if !g.nested {
		g.flushTelemetry()
	}
	return a, err
}

// closeRun finishes the analysis: every event has arrived, so absence
// decisions are final, stalls are broken (degraded mode) or reported, and
// a contradiction-flagged run is re-resolved exactly from the retained
// events.
func (g *engine) closeRun(ctx context.Context) (*Approximation, error) {
	g.closed = true
	g.wmParks = g.wmParks[:0]
	for p := range g.ps {
		if g.ps[p].state == procParked {
			g.makeReady(p)
		}
	}
	if err := g.pass(ctx); err != nil {
		return nil, err
	}
	for g.remaining > 0 {
		if err := cancel.Err(ctx); err != nil {
			return nil, err
		}
		if g.opts.mode == ModeTimeBased {
			// Unreachable for validated input: the default rule's
			// dependency graph strictly decreases arrival position.
			return nil, ErrUnresolvable
		}
		if !g.opts.degraded {
			return nil, fmt.Errorf("%w: %d events unresolved (missing advance pair or barrier participant?)",
				ErrUnresolvable, g.remaining)
		}
		// Stall-breaking: force-resolve the first blocked event in
		// processor order with the execution-timing rule, so a
		// dependency cycle degrades one event instead of failing the
		// whole analysis. Deterministic: lowest processor id wins.
		forced := false
		for p := 0; p < len(g.ps) && !forced; p++ {
			ps := &g.ps[p]
			if ps.qhead >= len(ps.queue) {
				continue
			}
			seq := ps.queue[ps.qhead]
			e := g.headEvent(ps)
			taBase, tmBase, blocked := g.basis(p, seq)
			if blocked >= 0 {
				// Basis itself unresolved (cross-processor fence in
				// the cycle): anchor at the measured time.
				taBase, tmBase = e.Time, e.Time
			}
			var note resolveNote
			g.resolveDefaultInc(e, taBase, tmBase, &note)
			note.impaired = true
			g.confFor(p).Forced++
			g.commit(p, seq, e, note)
			g.makeReady(p)
			forced = true
		}
		if !forced {
			return nil, fmt.Errorf("%w: %d events unresolved", ErrUnresolvable, g.remaining)
		}
		if err := g.pass(ctx); err != nil {
			return nil, err
		}
	}

	if g.needRedo {
		return g.redo(ctx)
	}
	g.emitWindows()
	g.emitAmended()
	return g.finish()
}

// redo re-resolves the retained events with sealing disabled: every
// absence decision waits for close, where knowledge is complete, so the
// result is exactly the batch fixpoint's. Reached only when a partner
// event arrived after its absence had optimistically been decided —
// possible only for feeds that violate causal order (a partner completing
// after its dependent), which no measured execution produces. The window
// queue is rebuilt from the exact run's emissions; any window already
// drained with content the exact run confirms is not repeated, while a
// corrected window is re-emitted and supersedes the drained one.
func (g *engine) redo(ctx context.Context) (*Approximation, error) {
	if !g.opts.retain {
		return nil, fmt.Errorf("%w: synchronization partner arrived after its absence was decided; low-memory streaming cannot re-resolve (retain events or sort the feed)", ErrUnsupported)
	}
	g.redos++
	opts := g.opts
	opts.seal = false
	g2 := newIncEngine(g.procs(), g.cal, opts)
	g2.nested = true
	if !opts.fixedProcs {
		// Keep the discovered processor count.
		g2.growProcs(len(g.ps))
	}
	g2.setWindows(g.window, g.slide)
	a, err := g2.analyze(ctx, g.all)
	g.parks += g2.parks
	g.wakes += g2.wakes
	if err != nil {
		return nil, err
	}
	// Adopt the exact run's state so callers observing the engine after
	// close (windows, duration, confidence) see consistent values.
	g.stats = g2.stats
	g.conf = g2.conf
	g.maxTA = g2.maxTA
	g.taAll = g2.taAll
	g.winQ = g.winQ[:0]
	for _, w := range g2.winQ {
		if prev, ok := g.drainedWin[w.Index]; ok && windowEqual(prev, w) {
			continue
		}
		g.winQ = append(g.winQ, w)
	}
	return a, nil
}

// finish assembles the Approximation. With retention it carries the
// events re-timed in canonical order (Times aligned with arrival order);
// without, the summary only.
func (g *engine) finish() (*Approximation, error) {
	a := &Approximation{
		WaitsKept:       g.stats.kept,
		WaitsRemoved:    g.stats.removed,
		WaitsIntroduced: g.stats.introduced,
	}
	if g.opts.degraded {
		conf := make([]ProcConfidence, g.procs())
		for p := range conf {
			conf[p].Proc = p
			conf[p].Events = g.ps[p].events
		}
		for p := range g.conf {
			conf[p].Placeholders = g.conf[p].Placeholders
			conf[p].Forced = g.conf[p].Forced
		}
		scoreConfidence(conf)
		a.Confidence = conf
	}
	if !g.opts.retain {
		a.Duration = g.maxTA
		return a, nil
	}
	a.Times = g.taAll
	// No renormalization: the basis rule anchors each thread at the
	// execution origin (time zero), so approximated times are already in
	// actual-execution coordinates.
	a.Trace = trace.New(g.procs())
	a.Trace.Events = mergeRuns(g.all, g.runs(), g.taAll)
	a.Duration = a.Trace.End()
	return a, nil
}

// runs lists each processor's events as arrival positions in order: the
// batch queues themselves, or a counting pass over a retained feed.
func (g *engine) runs() [][]int {
	runs := make([][]int, len(g.ps))
	if g.batch {
		for p := range g.ps {
			runs[p] = g.ps[p].queue
		}
		return runs
	}
	backing := make([]int, len(g.all))
	off := 0
	for p := range g.ps {
		runs[p] = backing[off : off : off+g.ps[p].events]
		off += g.ps[p].events
	}
	for i := range g.all {
		p := g.all[i].Proc
		runs[p] = append(runs[p], i)
	}
	return runs
}

// Default-path engine telemetry, flushed once per run like the sharded
// engine's scheduler counters: head parks, wakes, and exact re-runs
// forced by a contradicted absence decision.
var (
	obsEngineParks = obs.NewCounter("core.engine.parks")
	obsEngineWakes = obs.NewCounter("core.engine.wakes")
	obsEngineRedos = obs.NewCounter("core.engine.redos")
)

// flushTelemetry publishes the run's engine statistics when the obs
// layer is enabled.
func (g *engine) flushTelemetry() {
	if !obs.Enabled() {
		return
	}
	if !g.runCounted {
		obsAnaRuns.Add(1)
		obsAnaEvents.Add(int64(g.n))
	}
	obsEngineParks.Add(g.parks)
	obsEngineWakes.Add(g.wakes)
	obsEngineRedos.Add(g.redos)
}

// StreamOptions configures a streaming analysis session.
type StreamOptions struct {
	// Mode selects the analysis family: ModeEventBased (default) or
	// ModeTimeBased. ModeLiberal re-derives the whole schedule from the
	// loop's dependence structure and is inherently batch; NewStream
	// rejects it.
	Mode Mode

	// Repair buffers the feed and sanitizes it with trace.Repair at
	// Close, then analyzes in degraded mode — the streaming counterpart
	// of Options.Repair. Windows are all emitted at Close, since repair
	// needs the complete feed. Incompatible with LowMemory.
	Repair bool

	// LowMemory drops resolved events instead of retaining them: Close
	// returns a summary-only Approximation (Duration, wait statistics,
	// Confidence; nil Trace and Times), and memory stays proportional to
	// the synchronization state in flight instead of the trace length.
	LowMemory bool

	// Procs fixes the processor count, like Trace.Procs. Zero discovers
	// the processor set from the events.
	Procs int

	// Window and Slide define the measured-time windows (nanoseconds)
	// over which intermediate results are emitted: window k covers
	// [k*Slide, k*Slide+Window). Slide == 0 means tumbling windows
	// (Slide = Window); Window == 0 disables intermediate windows — the
	// session emits one unbounded window at Close.
	Window trace.Time
	Slide  trace.Time
}

// Stream is an incremental analysis session: feed measured events in
// arrival order, collect finished windows as they resolve, close to
// obtain the final Approximation — which is identical to what the batch
// Analyze computes over the same events, because both run the same
// engine.
//
// Stream is not safe for concurrent use; the facade's StreamAnalyzer
// adds locking.
type Stream struct {
	cal    instr.Calibration
	opts   StreamOptions
	g      *engine      // nil in repair mode until Close
	buf    *trace.Trace // repair mode: the buffered feed
	closed bool
	result *Approximation
}

// NewStream starts a streaming analysis session.
func NewStream(cal instr.Calibration, opts StreamOptions) (*Stream, error) {
	switch opts.Mode {
	case ModeEventBased, ModeTimeBased:
	case ModeLiberal:
		return nil, fmt.Errorf("%w: liberal analysis re-derives the whole schedule and cannot run incrementally", ErrUnsupported)
	default:
		return nil, fmt.Errorf("core: unknown analysis mode")
	}
	if opts.Repair && opts.LowMemory {
		return nil, fmt.Errorf("%w: repair needs the complete feed buffered; it cannot run low-memory", ErrUnsupported)
	}
	s := &Stream{cal: cal, opts: opts}
	if opts.Repair {
		s.buf = trace.New(opts.Procs)
	} else {
		g := newIncEngine(opts.Procs, cal, engineOptions{
			mode:       opts.Mode,
			degraded:   false,
			retain:     !opts.LowMemory,
			seal:       true,
			fixedProcs: opts.Procs > 0,
		})
		g.setWindows(opts.Window, opts.Slide)
		s.g = g
	}
	return s, nil
}

// Feed ingests the next events of the stream, in arrival order. Events
// are validated and resolved one at a time, so results never depend on
// how the stream is chunked. Feeding after Close is an error.
func (s *Stream) Feed(ctx context.Context, events []trace.Event) error {
	if s.closed {
		return fmt.Errorf("core: stream session is closed")
	}
	if s.buf != nil {
		// Repair mode: defer everything to Close — the sanitizer needs
		// the complete feed.
		s.buf.Grow(len(events))
		for _, e := range events {
			s.buf.Append(e)
		}
		return cancel.Err(ctx)
	}
	return s.g.feed(ctx, events)
}

// Windows returns the finished windows emitted since the last call, in
// window-index order, without blocking. Windows become available as the
// feed's watermark passes them (sorted feeds only) and after Close.
func (s *Stream) Windows() []WindowResult {
	if s.g == nil {
		return nil
	}
	return s.g.drainWindows()
}

// Close ends the stream and returns the final Approximation — identical
// to batch Analyze over the same events. Remaining windows become
// available via Windows afterwards. Close is idempotent: repeated calls
// return the same result.
func (s *Stream) Close(ctx context.Context) (*Approximation, error) {
	if s.closed {
		if s.result == nil {
			return nil, fmt.Errorf("core: stream session is closed")
		}
		return s.result, nil
	}
	s.closed = true
	if s.buf != nil {
		// Repair mode: sanitize the buffered feed, then run the engine
		// in degraded mode over the repaired trace — exactly
		// AnalyzeContext's repair path. The feed order is preserved (no
		// sort): it is the trace order batch Analyze would see.
		if s.buf.Procs == 0 {
			for _, e := range s.buf.Events {
				if e.Proc >= s.buf.Procs {
					s.buf.Procs = e.Proc + 1
				}
			}
		}
		repaired, rep := trace.Repair(s.buf)
		g := newIncEngine(repaired.Procs, s.cal, engineOptions{
			mode:       s.opts.Mode,
			degraded:   s.opts.Mode == ModeEventBased,
			retain:     true,
			fixedProcs: true,
		})
		g.setWindows(s.opts.Window, s.opts.Slide)
		s.g = g
		a, err := g.analyze(ctx, repaired.Events)
		if err != nil {
			return nil, err
		}
		a.Repair = rep
		attachDefects(a, rep, repaired.Procs)
		s.result = a
		return a, nil
	}
	a, err := s.g.close(ctx)
	if err != nil {
		return nil, err
	}
	s.result = a
	return a, nil
}

// Procs reports the processor count seen so far: the fixed count when
// StreamOptions.Procs was set, the discovered count otherwise.
func (s *Stream) Procs() int {
	if s.g != nil {
		return s.g.procs()
	}
	if s.buf == nil {
		return s.opts.Procs
	}
	procs := s.buf.Procs
	for _, e := range s.buf.Events {
		if e.Proc >= procs {
			procs = e.Proc + 1
		}
	}
	return procs
}

// Events reports how many events have been fed so far.
func (s *Stream) Events() int {
	if s.g != nil {
		return s.g.n
	}
	if s.buf == nil {
		return 0
	}
	return s.buf.Len()
}

// Abort tears the session down without computing a result: engine state,
// buffered feeds and pending windows are all discarded, deterministically
// and immediately. Feed, Close and Windows on an aborted session fail or
// return nothing. Use when the feed's source died mid-stream — there is
// no watermark worth sealing, and keeping partial windows around would
// leak the session's memory for the connection's lifetime.
func (s *Stream) Abort() {
	s.closed = true
	s.result = nil
	s.g = nil
	s.buf = nil
}
