package core_test

import (
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/testgen"
)

// TestDefaultEngineTelemetry: with the obs layer enabled, one default
// Analyze flushes exactly one run and the trace's event count, plus the
// park/wake counters of its scheduler.
func TestDefaultEngineTelemetry(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	runs := obs.NewCounter("core.analysis.runs")
	events := obs.NewCounter("core.analysis.events")
	parks := obs.NewCounter("core.engine.parks")
	wakes := obs.NewCounter("core.engine.wakes")
	r0, e0, p0, w0 := runs.Value(), events.Value(), parks.Value(), wakes.Value()

	m := testgen.BackwardWave(4, 500)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	if _, err := core.Analyze(m, cal, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if d := runs.Value() - r0; d != 1 {
		t.Errorf("core.analysis.runs moved by %d, want 1", d)
	}
	if d := events.Value() - e0; d != int64(m.Len()) {
		t.Errorf("core.analysis.events moved by %d, want %d", d, m.Len())
	}
	// The backward wave's warm-up await blocks every processor until
	// close, so the chain resolves through parks and wakes.
	if parks.Value() == p0 || wakes.Value() == w0 {
		t.Errorf("park/wake counters did not move (parks +%d, wakes +%d)",
			parks.Value()-p0, wakes.Value()-w0)
	}

	obs.SetEnabled(false)
	r1 := runs.Value()
	if _, err := core.Analyze(m, cal, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if runs.Value() != r1 {
		t.Error("telemetry flushed with the obs layer disabled")
	}
}
