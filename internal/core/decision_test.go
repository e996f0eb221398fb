package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions from the current engine")

// The decision-timing goldens pin WHEN the streaming engine decides, not
// only what: each line records the arrival index of the event whose feed
// made a window drainable, with the window's full JSON. Mid-stream
// windows, optimistic absence decisions and the redo trigger all move
// that index if the scheduling changes, even when every final byte stays
// the same — so a rewrite of the engine's bookkeeping must reproduce
// these files exactly.

type decisionCase struct {
	name   string
	events []trace.Event
	cal    instr.Calibration
	opts   core.StreamOptions
}

func decisionCases(t *testing.T) []decisionCase {
	t.Helper()
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	ll17, err := machine.Run(loops.MustGet(17).Loop, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatalf("LL17: %v", err)
	}
	m := ll17.Trace
	sliding := core.StreamOptions{Procs: m.Procs, Window: m.End() / 12, Slide: m.End() / 24}

	locks, err := machine.Run(lockTestLoop(96, 700, 400), instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatalf("lock loop: %v", err)
	}
	lm := locks.Trace

	// The backward wave with processor 0 held back: the other processors'
	// events arrive in time order first, so the watermark seals awaits
	// (and the barrier) whose partners sit on processor 0; processor 0's
	// late arrival contradicts those decisions and forces the exact redo.
	wave := testgen.BackwardWave(4, 120)
	waveCal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	heldBack := func(cut trace.Time) []trace.Event {
		var head, late, rest []trace.Event
		for _, e := range wave.Events {
			switch {
			case e.Time > cut:
				rest = append(rest, e)
			case e.Proc == 0:
				late = append(late, e)
			default:
				head = append(head, e)
			}
		}
		return append(append(head, late...), rest...)
	}
	waveOpts := core.StreamOptions{Procs: wave.Procs, Window: wave.End() / 10, Slide: wave.End() / 20}
	lowWave := waveOpts
	lowWave.LowMemory = true
	lowLL17 := sliding
	lowLL17.LowMemory = true

	return []decisionCase{
		{"ll17-sliding", m.Events, cal, sliding},
		{"ll17-lowmem", m.Events, cal, lowLL17},
		{"locks-tumbling", lm.Events, cal, core.StreamOptions{Procs: lm.Procs, Window: lm.End() / 8}},
		{"locks-discovered", lm.Events, cal, core.StreamOptions{Window: lm.End() / 8, Slide: lm.End() / 5}},
		{"wave-redo-prefix", heldBack(wave.End() / 2), waveCal, waveOpts},
		{"wave-redo-late-proc", heldBack(wave.End()), waveCal, waveOpts},
		{"wave-redo-lowmem", heldBack(wave.End() / 2), waveCal, lowWave},
	}
}

// decisionLog feeds the events one at a time and logs every drained
// window with the arrival index after which it surfaced, then the close
// outcome.
func decisionLog(t *testing.T, c decisionCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	s, err := core.NewStream(c.cal, c.opts)
	if err != nil {
		t.Fatalf("%s: NewStream: %v", c.name, err)
	}
	ctx := context.Background()
	logWindows := func(at string) {
		for _, w := range s.Windows() {
			js, err := json.Marshal(w)
			if err != nil {
				t.Fatalf("%s: marshal: %v", c.name, err)
			}
			fmt.Fprintf(&buf, "%s %s\n", at, js)
		}
	}
	for i := range c.events {
		if err := s.Feed(ctx, c.events[i:i+1]); err != nil {
			t.Fatalf("%s: Feed %d: %v", c.name, i, err)
		}
		logWindows(fmt.Sprint(i))
	}
	a, err := s.Close(ctx)
	if err != nil {
		fmt.Fprintf(&buf, "close error: %v\n", err)
		return buf.Bytes()
	}
	logWindows("close")
	h := fnv.New64a()
	for _, ta := range a.Times {
		fmt.Fprintf(h, "%d,", ta)
	}
	fmt.Fprintf(&buf, "result duration=%d kept=%d removed=%d introduced=%d times=%d/%016x\n",
		a.Duration, a.WaitsKept, a.WaitsRemoved, a.WaitsIntroduced, len(a.Times), h.Sum64())
	return buf.Bytes()
}

// TestStreamDecisionTiming compares each scenario's decision log against
// its golden file.
func TestStreamDecisionTiming(t *testing.T) {
	for _, c := range decisionCases(t) {
		got := decisionLog(t, c)
		path := filepath.Join("testdata", "decisions", c.name+".golden")
		if *updateDecisions {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-decisions to record)", c.name, err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Errorf("%s: line %d differs:\n got  %.200s\n want %.200s", c.name, i+1, gl[i], wl[i])
					break
				}
			}
			if len(gl) != len(wl) {
				t.Errorf("%s: %d lines, golden has %d", c.name, len(gl), len(wl))
			}
		}
	}
}
