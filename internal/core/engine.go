package core

import (
	"sync/atomic"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// cancelCheckStride is how many events a shard resolves between polls of
// the engine's stop flag (an atomic load amortized to nothing).
const cancelCheckStride = cancel.CheckEvery

// This file implements the sharded event-based analysis engine behind
// EventBasedParallel. Where the incremental engine behind EventBased
// discovers dependencies as events arrive, this engine precomputes the
// dependency graph of the trace once — every event's same-thread (or
// fork-fence) basis, the advance each awaitE resolves against, the
// previous holder's release each lock acquisition serializes on, and each
// barrier release's arrival set — and then advances per-processor shards: a shard resolves its processor's events in order
// until it blocks on an unresolved cross-shard dependency, parks on exactly
// that event, and is rescheduled when the producing shard publishes the
// resolved time. Total scheduling work is O(events + dependencies).
//
// The resolution rules are the ones documented on EventBased; the two
// implementations are deliberately kept separate so that the property
// tests comparing them exercise independent code paths.

// syncDeps is the precomputed dependency structure of a measured trace.
type syncDeps struct {
	perProc [][]int // event indices per processor, in trace order
	// basis[i] is the event index whose approximated time anchors event
	// i: the same-processor predecessor, or the latest intervening
	// fork fence (loop-begin on another processor), or -1 for the
	// execution origin.
	basis []int
	// dep[i] is the extra event index event i must wait for before it
	// can resolve: the paired advance for an awaitE, the previous
	// holder's release for a lock acquisition. -1 when there is none
	// (unpaired await, first acquisition, or a non-sync event).
	dep []int
	// parts[i] lists the arrival events of barrier release i.
	parts map[int][]int
	// watched[i] marks events some other shard may park on; resolving a
	// watched event publishes it to the scheduler.
	watched []bool
}

// buildDeps computes the dependency graph of the trace. The pairing rules
// mirror EventBased: advance pairing is first-occurrence-wins per
// (variable, iteration) key, lock serialization follows the measured
// acquisition order, barrier participants are grouped by pairing key.
func buildDeps(m *trace.Trace) *syncDeps {
	n := m.Len()
	d := &syncDeps{
		perProc: make([][]int, m.Procs),
		basis:   make([]int, n),
		dep:     make([]int, n),
		watched: make([]bool, n),
	}

	// Pairing keys are hashed once per synchronization event; packing the
	// (Var, Iter) pair into one word roughly halves that hashing cost.
	// The packing is injective only when both fit in int32 — always true
	// for traces that round-trip the codecs (which encode them as int32)
	// — so fall back to the struct key otherwise.
	packable := true
	for i := range m.Events {
		e := &m.Events[i]
		if int(int32(e.Var)) != e.Var || int(int32(e.Iter)) != e.Iter {
			packable = false
			break
		}
	}
	pack := func(e *trace.Event) uint64 {
		return uint64(uint32(e.Var))<<32 | uint64(uint32(e.Iter))
	}

	var advIdx map[trace.PairKey]int
	var arrives map[trace.PairKey][]int
	var advIdxP map[uint64]int
	var arrivesP map[uint64][]int
	if packable {
		advIdxP = make(map[uint64]int)
		arrivesP = make(map[uint64][]int)
	} else {
		advIdx = make(map[trace.PairKey]int)
		arrives = make(map[trace.PairKey][]int)
	}
	lookupAdv := func(e *trace.Event) (int, bool) {
		if packable {
			ai, ok := advIdxP[pack(e)]
			return ai, ok
		}
		ai, ok := advIdx[e.Pair()]
		return ai, ok
	}
	lastRel := make(map[int]int)
	var fences []int // loop-begin event indices, in trace order
	var releases []int

	for i := range m.Events {
		e := &m.Events[i]
		d.perProc[e.Proc] = append(d.perProc[e.Proc], i)
		d.dep[i] = -1
		switch e.Kind {
		case trace.KindLoopBegin:
			fences = append(fences, i)
		case trace.KindAdvance:
			if packable {
				if _, dup := advIdxP[pack(e)]; !dup {
					advIdxP[pack(e)] = i
				}
			} else if _, dup := advIdx[e.Pair()]; !dup {
				advIdx[e.Pair()] = i
			}
		case trace.KindAwaitE:
			if ai, ok := lookupAdv(e); ok {
				d.dep[i] = ai
			} else {
				d.dep[i] = -2 // unresolved yet: advance may occur later
			}
		case trace.KindBarrierArrive:
			if packable {
				arrivesP[pack(e)] = append(arrivesP[pack(e)], i)
			} else {
				arrives[e.Pair()] = append(arrives[e.Pair()], i)
			}
		case trace.KindLockAcq:
			if ri, ok := lastRel[e.Var]; ok {
				d.dep[i] = ri
			}
		case trace.KindLockRel:
			lastRel[e.Var] = i
		case trace.KindBarrierRelease:
			releases = append(releases, i)
		}
	}

	// Second pass for awaitE events whose advance occurs later in the
	// trace than the await (cross-processor, measured after): the pairing
	// map is only complete once the whole trace has been indexed.
	for i := range m.Events {
		if d.dep[i] == -2 {
			if ai, ok := lookupAdv(&m.Events[i]); ok {
				d.dep[i] = ai
			} else {
				d.dep[i] = -1
			}
		}
	}

	if len(releases) > 0 {
		d.parts = make(map[int][]int, len(releases))
		for _, i := range releases {
			if packable {
				d.parts[i] = arrivesP[pack(&m.Events[i])]
			} else {
				d.parts[i] = arrives[m.Events[i].Pair()]
			}
		}
	}

	// Basis computation: same-processor predecessor unless a fork fence on
	// another processor lies between the two in trace order (then the
	// latest such fence anchors the event).
	fenceBasis := func(prevIdx, idx, proc int) int {
		for k := len(fences) - 1; k >= 0; k-- {
			f := fences[k]
			if f >= idx {
				continue
			}
			if f <= prevIdx {
				return -1
			}
			if m.Events[f].Proc != proc {
				return f
			}
		}
		return -1
	}
	for proc, list := range d.perProc {
		prev := -1
		for _, idx := range list {
			if f := fenceBasis(prev, idx, proc); f >= 0 {
				d.basis[idx] = f
			} else {
				d.basis[idx] = prev
			}
			prev = idx
		}
	}

	// Watch every event another shard can park on: bases on other
	// processors (fork fences), await/lock dependencies, and barrier
	// arrival sets.
	for i := 0; i < n; i++ {
		if b := d.basis[i]; b >= 0 && m.Events[b].Proc != m.Events[i].Proc {
			d.watched[b] = true
		}
		if dep := d.dep[i]; dep >= 0 {
			d.watched[dep] = true
		}
	}
	for _, ps := range d.parts {
		for _, ai := range ps {
			d.watched[ai] = true
		}
	}
	return d
}

// ebStats accumulates the Figure 2 waiting classification per shard; the
// per-event determinations are order independent, so per-shard sums added
// together equal the sequential counts. placeholders counts degraded-mode
// conservative resolutions (zero in exact mode). The pad keeps shards off
// each other's cache lines.
type ebStats struct {
	kept, removed, introduced int
	placeholders              int
	_                         [4]int64
}

// publisher is notified when a watched event resolves; schedulers use it
// to wake shards parked on that event.
type publisher interface {
	publish(idx int)
}

// ebEngine holds the shared resolution state of one analysis run. Each
// event is resolved exactly once, by the shard owning its processor; done
// flags are accessed atomically so shards can safely read times resolved
// by other shards.
type ebEngine struct {
	in    *trace.Trace
	cal   instr.Calibration
	deps  *syncDeps
	ta    []trace.Time
	done  []uint32
	pos   []int // per-processor next unresolved position
	stats []ebStats
	// stop is the cooperative-cancellation flag: a context watcher sets it
	// atomically and shards poll it every cancel.CheckEvery events, so a
	// canceled analysis abandons its shards within microseconds of work.
	// Always zero for background contexts.
	stop uint32
	// degraded enables the conservative-placeholder rule for unpaired
	// awaits (see eventBased). The engine has no stall-breaking — a
	// dependency cycle still reports failure, and the caller falls back to
	// the sequential degraded analysis.
	degraded bool
}

// shardCanceled is runShard's blockedOn value when the shard stopped
// because the engine's stop flag was raised rather than on a dependency.
const shardCanceled = -1

// canceled reports whether the engine's stop flag has been raised.
func (g *ebEngine) canceled() bool { return atomic.LoadUint32(&g.stop) != 0 }

func newEngine(m *trace.Trace, cal instr.Calibration, degraded bool) *ebEngine {
	return &ebEngine{
		in:       m,
		cal:      cal,
		deps:     buildDeps(m),
		ta:       make([]trace.Time, m.Len()),
		done:     make([]uint32, m.Len()),
		pos:      make([]int, m.Procs),
		stats:    make([]ebStats, m.Procs),
		degraded: degraded,
	}
}

func (g *ebEngine) isDone(idx int) bool {
	return atomic.LoadUint32(&g.done[idx]) == 1
}

// runShard advances processor p's timeline until it blocks on an
// unresolved dependency, the engine is canceled, or it runs out of events.
// It returns the event index the shard is parked on (shardCanceled when
// the stop flag interrupted it) and whether the shard finished. Resolved
// watched events are published to pub.
func (g *ebEngine) runShard(p int, pub publisher) (blockedOn int, finished bool) {
	list := g.deps.perProc[p]
	events := g.in.Events
	cal := &g.cal
	st := &g.stats[p]
	sinceCheck := 0
	for g.pos[p] < len(list) {
		if sinceCheck++; sinceCheck >= cancelCheckStride {
			sinceCheck = 0
			if g.canceled() {
				return shardCanceled, false
			}
		}
		idx := list[g.pos[p]]
		var taBase, tmBase trace.Time
		if b := g.deps.basis[idx]; b >= 0 {
			if !g.isDone(b) {
				return b, false
			}
			taBase, tmBase = g.ta[b], events[b].Time
		}
		e := &events[idx]
		switch e.Kind {
		case trace.KindAwaitE:
			taAwaitB := taBase // predecessor of awaitE is its awaitB
			adv := g.deps.dep[idx]
			paired := adv >= 0
			if paired && !g.isDone(adv) {
				return adv, false // blocked on the advance
			}
			var taA trace.Time
			if paired {
				taA = g.ta[adv]
			}
			measuredGap := e.Time - tmBase
			waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.AwaitE+cal.SNoWait/2
			if !paired && g.degraded && e.Iter >= 0 {
				// Conservative placeholder: the advance was dropped (same
				// rule as the sequential degraded analysis).
				wait := placeholderWait(*cal, taAwaitB, tmBase, e.Time)
				g.ta[idx] = taAwaitB + wait
				st.placeholders++
				waitedApprox := wait > cal.SNoWait
				if waitedMeasured && waitedApprox {
					st.kept++
				} else if waitedMeasured {
					st.removed++
				} else if waitedApprox {
					st.introduced++
				}
			} else {
				if paired && taA > taAwaitB {
					g.ta[idx] = taA + cal.SWait
					st.kept++
				} else {
					g.ta[idx] = taAwaitB + cal.SNoWait
				}
				waitedApprox := paired && taA > taAwaitB
				if waitedMeasured && !waitedApprox {
					st.removed++
				} else if !waitedMeasured && waitedApprox {
					st.introduced++
				}
			}

		case trace.KindLockAcq:
			taReq := taBase // predecessor of lock-acq is its lock-req
			ri := g.deps.dep[idx]
			held := ri >= 0
			if held && !g.isDone(ri) {
				return ri, false // blocked on the previous holder's release
			}
			var taRel trace.Time
			if held {
				taRel = g.ta[ri]
			}
			if held && taRel > taReq {
				g.ta[idx] = taRel + cal.SWait
				st.kept++
			} else {
				g.ta[idx] = taReq + cal.SNoWait
			}
			measuredGap := e.Time - tmBase
			waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.ForKind(e.Kind)+cal.SNoWait/2
			waitedApprox := held && taRel > taReq
			if waitedMeasured && !waitedApprox {
				st.removed++
			} else if !waitedMeasured && waitedApprox {
				st.introduced++
			}

		case trace.KindBarrierRelease:
			var latest trace.Time
			for _, ai := range g.deps.parts[idx] {
				if !g.isDone(ai) {
					return ai, false
				}
				if g.ta[ai] > latest {
					latest = g.ta[ai]
				}
			}
			g.ta[idx] = latest + cal.Barrier

		default:
			gap := e.Time - tmBase - cal.Overheads.ForKind(e.Kind)
			if gap < 0 {
				// Calibration error can slightly exceed a short
				// measured gap; clamp so approximated per-thread time
				// stays monotonic.
				gap = 0
			}
			g.ta[idx] = taBase + gap
		}

		atomic.StoreUint32(&g.done[idx], 1)
		g.pos[p]++
		if g.deps.watched[idx] {
			pub.publish(idx)
		}
	}
	return 0, true
}

// remaining counts unresolved events across all shards, for the
// ErrUnresolvable message. The resolvable set is the least fixpoint of a
// monotone closure, so the count matches the sequential analysis.
func (g *ebEngine) remaining() int {
	n := 0
	for p, list := range g.deps.perProc {
		n += len(list) - g.pos[p]
	}
	return n
}

// finish assembles the Approximation, producing the canonical (Time, Proc,
// Stmt) order by a P-way merge of the per-processor runs (mergeRuns,
// shared with the incremental engine).
func (g *ebEngine) finish() *Approximation {
	a := &Approximation{
		Trace: trace.New(g.in.Procs),
		Times: g.ta,
	}
	var st ebStats
	for p := range g.stats {
		st.kept += g.stats[p].kept
		st.removed += g.stats[p].removed
		st.introduced += g.stats[p].introduced
	}
	a.WaitsKept = st.kept
	a.WaitsRemoved = st.removed
	a.WaitsIntroduced = st.introduced
	if g.degraded {
		conf := make([]ProcConfidence, len(g.deps.perProc))
		for p := range conf {
			conf[p] = ProcConfidence{
				Proc:         p,
				Events:       len(g.deps.perProc[p]),
				Placeholders: g.stats[p].placeholders,
			}
		}
		scoreConfidence(conf)
		a.Confidence = conf
	}

	a.Trace.Events = mergeRuns(g.in.Events, g.deps.perProc, g.ta)
	a.Duration = a.Trace.End()
	return a
}
