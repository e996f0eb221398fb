package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// wideLoop is a DOACROSS loop with every synchronization shape the
// event-based analysis models: the fork fence, an advance/await critical
// region (distance 1 or 2, so warm-up awaits have no advance), a
// lock-based critical section and the closing barrier.
func wideLoop(r *rand.Rand, i int) *program.Loop {
	b := program.NewBuilder(fmt.Sprintf("wide-%d", i), 0, program.DOACROSS, 128+r.Intn(384)).
		Distance(1+r.Intn(2)).
		Head("head", trace.Time(r.Intn(4000))).
		ComputeJitter("pre", trace.Time(300+r.Intn(2000)), trace.Time(1+r.Intn(1500))).
		CriticalBegin(0).
		Compute("crit", trace.Time(100+r.Intn(1500))).
		CriticalEnd(0).
		ComputeJitter("mid", trace.Time(r.Intn(1000)), trace.Time(1+r.Intn(800)))
	if r.Intn(4) > 0 {
		b.LockStmt(3).Compute("locked", trace.Time(50+r.Intn(400))).UnlockStmt(3)
	}
	return b.Tail("tail", trace.Time(r.Intn(3000))).Loop()
}

// twoPhases concatenates two measured loops into one trace, the second
// shifted past the first's end with its synchronization variables
// renumbered. Its fork fence then follows the first loop's barrier on the
// forking processor, so heads of the second phase can block on an
// unresolved fence.
func twoPhases(a, b *trace.Trace) *trace.Trace {
	out := trace.NewWithCap(a.Procs, a.Len()+b.Len())
	out.Events = append(out.Events, a.Events...)
	off := a.End()
	for _, e := range b.Events {
		e.Time += off
		if e.Var != trace.NoVar {
			e.Var += 10
		}
		out.Append(e)
	}
	return out
}

// TestDefaultMatchesShardedWide: on 32-64 processor traces with fences,
// advance/await pairs, locks and barriers, in measured order and in
// permuted interleavings, the default engine is byte-identical to the
// sharded engine (Workers: 1), exact and degraded alike; a sealing
// stream session over the time-sorted trace matches both. Together the
// variants reach every wake source of the default engine's scheduler:
// fences, advances (fed and resolved), releases, barrier participant
// counts, close, and the watermark (whose timing the decision-timing
// goldens pin).
func TestDefaultMatchesShardedWide(t *testing.T) {
	r := rand.New(rand.NewSource(3264))
	for i := 0; i < 16; i++ {
		l, l2 := wideLoop(r, i), wideLoop(r, i)
		cfg := machine.Alliant()
		cfg.Procs = 32 + r.Intn(33)
		cfg.Schedule = program.Schedule(r.Intn(program.NumSchedules))
		ovh := instr.Overheads{
			Event:   trace.Time(r.Intn(3000)),
			Advance: trace.Time(r.Intn(3000)),
			AwaitB:  trace.Time(r.Intn(3000)),
			AwaitE:  trace.Time(r.Intn(3000)),
		}
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		second, err := machine.Run(l2, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatalf("%s: %v", l2.Name, err)
		}
		cal := exactCalFor(cfg, ovh)
		if r.Intn(2) == 0 {
			cal = instr.Perturbed(cal, r.Uint64(), 1+r.Intn(20))
		}
		m := twoPhases(measured.Trace, second.Trace)
		for v, tr := range []*trace.Trace{m, permuteInterleaving(r, m)} {
			for _, repair := range []bool{false, true} {
				label := fmt.Sprintf("%s procs=%d variant=%d repair=%v", l.Name, cfg.Procs, v, repair)
				def, defErr := core.Analyze(tr, cal, core.Options{Repair: repair})
				sh, shErr := core.Analyze(tr, cal, core.Options{Repair: repair, Workers: 1})
				assertSameApproximation(t, label, sh, shErr, def, defErr)
			}
		}
		batch, err := core.Analyze(m, cal, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		opts := core.StreamOptions{Procs: m.Procs, Window: m.End()/9 + 1, Slide: m.End()/18 + 1}
		_, streamed := feedChunks(t, randomChunks(m.Events, int64(i)), cal, opts)
		sameApprox(t, l.Name+" stream", streamed, batch)
	}
}
