package core

import (
	"context"
	"errors"
	"testing"

	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// cycleTrace builds the cross-processor await cycle from the parallel
// engine's deadlock test: each processor's awaitE pairs with an advance
// the other processor only reaches after its own await, so constructive
// resolution can never complete.
func cycleTrace() *trace.Trace {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAwaitB, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 11, Proc: 1, Stmt: 3, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 0, Stmt: 1, Kind: trace.KindAwaitE, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 21, Proc: 1, Stmt: 3, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 30, Proc: 0, Stmt: 2, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 31, Proc: 1, Stmt: 4, Kind: trace.KindAdvance, Iter: 1, Var: 0})
	return tr
}

// TestDegradedStallBreaking: the sequential degraded analysis resolves a
// dependency cycle by force-resolving blocked events instead of failing,
// and tallies the forced events in the confidence summary.
func TestDegradedStallBreaking(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := cycleTrace()

	if _, err := eventBased(context.Background(), tr, cal, false); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("exact mode: got %v, want ErrUnresolvable", err)
	}

	a, err := eventBased(context.Background(), tr, cal, true)
	if err != nil {
		t.Fatalf("degraded mode failed on cycle: %v", err)
	}
	forced := 0
	for _, c := range a.Confidence {
		forced += c.Forced
	}
	if forced == 0 {
		t.Fatal("cycle resolved without any forced events")
	}
	if a.Trace.Len() != tr.Len() {
		t.Fatalf("degraded output has %d events, want %d", a.Trace.Len(), tr.Len())
	}
}

// TestDegradedParallelFallsBackToSequential: the sharded engine has no
// stall-breaking, so on a cyclic trace the degraded dispatch falls back to
// the sequential analysis and still succeeds.
func TestDegradedParallelFallsBackToSequential(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := cycleTrace()

	if _, err := eventBasedParallel(context.Background(), tr, cal, 2, true); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("engine should not stall-break: got %v", err)
	}

	want, err := eventBased(context.Background(), tr, cal, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyzeEventBased(context.Background(), tr, cal, Options{Repair: true, Workers: 2})
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if got.Duration != want.Duration {
		t.Fatalf("fallback duration %d, want sequential degraded %d", got.Duration, want.Duration)
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Fatalf("fallback time %d = %d, want %d", i, got.Times[i], want.Times[i])
		}
	}
}

// TestDegradedFallbackTelemetry: the sharded attempt and the incremental
// fallback of one degraded analysis count as one run in the telemetry
// (the default path's single-run count is TestDefaultEngineTelemetry's).
func TestDegradedFallbackTelemetry(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := cycleTrace()
	r0, e0, p0 := obsAnaRuns.Value(), obsAnaEvents.Value(), obsEngineParks.Value()
	if _, err := analyzeEventBased(context.Background(), tr, cal, Options{Repair: true, Workers: 2}); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if obsEngineParks.Value() == p0 {
		t.Fatal("the incremental fallback did not run")
	}
	if d := obsAnaRuns.Value() - r0; d != 1 {
		t.Errorf("core.analysis.runs moved by %d, want 1", d)
	}
	if d := obsAnaEvents.Value() - e0; d != int64(tr.Len()) {
		t.Errorf("core.analysis.events moved by %d, want %d", d, tr.Len())
	}
}
