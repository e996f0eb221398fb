package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// assertSameApproximation fails unless two analysis outcomes are
// byte-identical: same error (or none), same approximated times, same
// canonical event order, same waiting statistics.
func assertSameApproximation(t *testing.T, label string, want *core.Approximation, wantErr error, got *core.Approximation, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: sequential %v, parallel %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, core.ErrUnresolvable) != errors.Is(gotErr, core.ErrUnresolvable) {
			t.Fatalf("%s: ErrUnresolvable mismatch: sequential %v, parallel %v", label, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\nsequential: %v\nparallel:   %v", label, wantErr, gotErr)
		}
		return
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%s: times length %d, want %d", label, len(got.Times), len(want.Times))
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("%s: event %d approximated at %d, want %d", label, i, got.Times[i], want.Times[i])
		}
	}
	if got.Trace.Procs != want.Trace.Procs || got.Trace.Len() != want.Trace.Len() {
		t.Fatalf("%s: output trace shape mismatch", label)
	}
	for i := range want.Trace.Events {
		if got.Trace.Events[i] != want.Trace.Events[i] {
			t.Fatalf("%s: output event %d = %v, want %v", label, i, got.Trace.Events[i], want.Trace.Events[i])
		}
	}
	if got.Duration != want.Duration {
		t.Fatalf("%s: duration %d, want %d", label, got.Duration, want.Duration)
	}
	if got.WaitsKept != want.WaitsKept || got.WaitsRemoved != want.WaitsRemoved ||
		got.WaitsIntroduced != want.WaitsIntroduced {
		t.Fatalf("%s: waits (%d,%d,%d), want (%d,%d,%d)", label,
			got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
			want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced)
	}
}

// TestParallelMatchesSequentialProperty: across randomized loop programs,
// machine configurations (processor counts, schedules) and worker counts,
// the sharded engine's output is byte-identical to the default incremental
// engine's — approximated times, canonical order, statistics, and
// errors alike.
func TestParallelMatchesSequentialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1991))
	workersChoices := []int{1, 2, 3, 4, 8, 16}
	for i := 0; i < 120; i++ {
		l := testgen.Loop(r)
		cfg := testgen.Config(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		if r.Intn(3) == 0 {
			cal = instr.Perturbed(cal, r.Uint64(), 1+r.Intn(20))
		}
		seq, seqErr := core.EventBased(measured.Trace, cal)
		for _, w := range workersChoices {
			par, parErr := core.EventBasedParallel(measured.Trace, cal, w)
			assertSameApproximation(t, l.Name, seq, seqErr, par, parErr)
		}
	}
}

// TestParallelMatchesSequentialOnCorruptTraces: the engines also agree on
// malformed input — same rejections, same ErrUnresolvable cases, and
// identical output on corruptions both engines accept.
func TestParallelMatchesSequentialOnCorruptTraces(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	cfg := machine.Alliant()
	for i := 0; i < 150; i++ {
		l := testgen.Loop(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		bad := measured.Trace
		for k := 0; k < 1+r.Intn(3); k++ {
			bad = mutate(r, bad)
		}
		seq, seqErr := core.EventBased(bad, cal)
		workers := 1 + r.Intn(8)
		par, parErr := core.EventBasedParallel(bad, cal, workers)
		assertSameApproximation(t, "corrupt", seq, seqErr, par, parErr)
	}
}

// TestParallelUnresolvableCycle: a cross-processor await cycle (each
// processor's awaitE paired with an advance the other processor only
// reaches after its own await) can never resolve; both engines must
// detect the deadlock and report ErrUnresolvable instead of hanging.
func TestParallelUnresolvableCycle(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAwaitB, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 11, Proc: 1, Stmt: 3, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 0, Stmt: 1, Kind: trace.KindAwaitE, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 21, Proc: 1, Stmt: 3, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 30, Proc: 0, Stmt: 2, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 31, Proc: 1, Stmt: 4, Kind: trace.KindAdvance, Iter: 1, Var: 0})

	_, seqErr := core.EventBased(tr, cal)
	if !errors.Is(seqErr, core.ErrUnresolvable) {
		t.Fatalf("sequential: got %v, want ErrUnresolvable", seqErr)
	}
	for _, w := range []int{1, 2, 4} {
		_, parErr := core.EventBasedParallel(tr, cal, w)
		if !errors.Is(parErr, core.ErrUnresolvable) {
			t.Fatalf("parallel (%d workers): got %v, want ErrUnresolvable", w, parErr)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("error text mismatch:\nsequential: %v\nparallel:   %v", seqErr, parErr)
		}
	}
}

// TestZeroOverheadIdentityParallel (metamorphic): with zero probe
// overheads and a calibration reporting the machine's true
// synchronization costs, the measured trace is the actual trace, and the
// sharded analysis must be the identity on its event times (the
// sequential counterpart lives in core_test.go).
func TestZeroOverheadIdentityParallel(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 40; i++ {
		l := testgen.Loop(r)
		cfg := testgen.StaticConfig(r)
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(instr.Zero, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		a, err := core.EventBasedParallel(actual.Trace, cal, 4)
		if err != nil {
			t.Fatalf("parallel (%s): %v", l.Name, err)
		}
		for j, e := range actual.Trace.Events {
			if a.Times[j] != e.Time {
				t.Fatalf("parallel (%s): event %d re-timed %d -> %d; zero-overhead analysis must be the identity",
					l.Name, j, e.Time, a.Times[j])
			}
		}
	}
}

// permuteInterleaving returns a new trace with the same events in a
// different global interleaving, preserving everything the event-based
// analysis is entitled to depend on: per-processor order, positions of
// fork fences (loop-begin events) relative to all events, the relative
// order of lock acquisitions/releases, and the relative order of advance
// events (first-occurrence pairing).
func permuteInterleaving(r *rand.Rand, tr *trace.Trace) *trace.Trace {
	out := trace.New(tr.Procs)
	ordered := func(e trace.Event) bool {
		switch e.Kind {
		case trace.KindAdvance, trace.KindLockAcq, trace.KindLockRel:
			return true
		}
		return false
	}
	// Split into segments at fork fences; each fence is emitted at its
	// original position, and events never cross a segment boundary.
	var segment []trace.Event
	flush := func() {
		if len(segment) == 0 {
			return
		}
		// Per-processor queues plus the queue of order-critical events.
		perProc := make(map[int][]trace.Event)
		var procs []int
		var critical []trace.Event
		for _, e := range segment {
			if _, seen := perProc[e.Proc]; !seen {
				procs = append(procs, e.Proc)
			}
			perProc[e.Proc] = append(perProc[e.Proc], e)
			if ordered(e) {
				critical = append(critical, e)
			}
		}
		for {
			var eligible []int
			for _, p := range procs {
				q := perProc[p]
				if len(q) == 0 {
					continue
				}
				if ordered(q[0]) && q[0] != critical[0] {
					continue // must wait for earlier order-critical events
				}
				eligible = append(eligible, p)
			}
			if len(eligible) == 0 {
				break
			}
			p := eligible[r.Intn(len(eligible))]
			e := perProc[p][0]
			perProc[p] = perProc[p][1:]
			if ordered(e) {
				critical = critical[1:]
			}
			out.Append(e)
		}
		segment = segment[:0]
	}
	for _, e := range tr.Events {
		if e.Kind == trace.KindLoopBegin {
			flush()
			out.Append(e)
			continue
		}
		segment = append(segment, e)
	}
	flush()
	return out
}

// TestInterleavingPermutationInvariance (metamorphic): permuting the
// global interleaving of events from independent processors — preserving
// per-processor order, fence positions and synchronization pairings —
// must leave every processor's reconstructed timeline unchanged, for both
// engines.
func TestInterleavingPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	cfg := machine.Alliant()
	for i := 0; i < 60; i++ {
		l := testgen.Loop(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)

		base, err := core.EventBased(measured.Trace, cal)
		if err != nil {
			t.Fatal(err)
		}
		baseline := perProcTimeline(measured.Trace, base.Times)

		perm := permuteInterleaving(r, measured.Trace)
		if perm.Len() != measured.Trace.Len() {
			t.Fatalf("permutation changed event count: %d -> %d", measured.Trace.Len(), perm.Len())
		}
		for name, analyze := range map[string]func(*trace.Trace, instr.Calibration) (*core.Approximation, error){
			"sequential": core.EventBased,
			"parallel": func(m *trace.Trace, c instr.Calibration) (*core.Approximation, error) {
				return core.EventBasedParallel(m, c, 3)
			},
		} {
			a, err := analyze(perm, cal)
			if err != nil {
				t.Fatalf("%s on permuted trace: %v", name, err)
			}
			got := perProcTimeline(perm, a.Times)
			if len(got) != len(baseline) {
				t.Fatalf("%s: proc count changed", name)
			}
			for p := range baseline {
				if len(got[p]) != len(baseline[p]) {
					t.Fatalf("%s: proc %d timeline length %d, want %d", name, p, len(got[p]), len(baseline[p]))
				}
				for k := range baseline[p] {
					if got[p][k] != baseline[p][k] {
						t.Fatalf("%s: proc %d step %d = %+v, want %+v", name, p, k, got[p][k], baseline[p][k])
					}
				}
			}
		}
	}
}

// timelineEntry is one step of a per-processor reconstructed timeline:
// the event (measured time included, identifying it uniquely within its
// processor's order) plus its approximated time.
type timelineEntry struct {
	ev trace.Event
	ta trace.Time
}

func perProcTimeline(tr *trace.Trace, times []trace.Time) [][]timelineEntry {
	out := make([][]timelineEntry, tr.Procs)
	for i, e := range tr.Events {
		out[e.Proc] = append(out[e.Proc], timelineEntry{ev: e, ta: times[i]})
	}
	return out
}
