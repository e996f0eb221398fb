package perturb_test

import (
	"runtime"
	"testing"

	"perturb"
)

// analyzeAllocBudget caps what one default Analyze of the million-event
// backward wave may allocate. The incremental engine sizes its queues and
// result times from the trace once and reads the events in place
// (about 77 MB: the re-timed trace, its times and the queues); growing
// buffers by append or copying the input again would blow the budget.
const analyzeAllocBudget = 150_000_000

// TestAnalyzeAllocBudget pins the default engine's allocation volume, so
// a regression shows in the test suite rather than only in the
// benchmarks. Allocation counts are deterministic; the race detector's
// instrumentation is not, so the test skips itself under -race.
func TestAnalyzeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not representative under -race")
	}
	tr, cal := bigWorkload()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Len() != tr.Len() {
		t.Fatalf("analysis returned %d events, want %d", a.Trace.Len(), tr.Len())
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > analyzeAllocBudget {
		t.Errorf("default Analyze allocated %d bytes on %d events, budget %d", d, tr.Len(), analyzeAllocBudget)
	}
}
