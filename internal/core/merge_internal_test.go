package core

import (
	"math/rand"
	"testing"

	"perturb/internal/trace"
)

// TestMergeRunsMatchesStableSort: for runs in any state of disorder —
// sorted, locally perturbed (ties with decreasing statements) or
// shuffled — mergeRuns produces exactly Trace.Sort's stable order.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		procs := 1 + r.Intn(12)
		n := r.Intn(400)
		if i%50 == 0 {
			n = 5000 + r.Intn(5000)
		}
		events := make([]trace.Event, n)
		ta := make([]trace.Time, n)
		clock := make([]trace.Time, procs)
		disorder := r.Intn(3)
		for j := range events {
			p := r.Intn(procs)
			events[j] = trace.Event{Proc: p, Stmt: r.Intn(4), Kind: trace.KindCompute, Iter: j} // Iter tells ties apart
			switch disorder {
			case 0: // non-decreasing per processor, with frequent ties
				clock[p] += trace.Time(r.Intn(3))
			case 1: // mostly increasing, occasional step back
				clock[p] += trace.Time(r.Intn(5)) - 1
			default: // arbitrary
				clock[p] = trace.Time(r.Intn(20))
			}
			ta[j] = clock[p]
		}
		runs := make([][]int, procs)
		for j, e := range events {
			runs[e.Proc] = append(runs[e.Proc], j)
		}
		want := &trace.Trace{Procs: procs, Events: make([]trace.Event, n)}
		for j, e := range events {
			e.Time = ta[j]
			want.Events[j] = e
		}
		want.Sort()
		got := mergeRuns(events, runs, ta)
		if len(got) != n {
			t.Fatalf("case %d: merged %d events, want %d", i, len(got), n)
		}
		for j := range got {
			if got[j] != want.Events[j] {
				t.Fatalf("case %d (disorder %d): event %d = %v, want %v", i, disorder, j, got[j], want.Events[j])
			}
		}
	}
}
