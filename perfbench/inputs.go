package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/server"
	"perturb/internal/trace"
)

// codec names one of the repository's three trace encodings.
type codec int

const (
	codecText codec = iota
	codecBinary
	codecColumnar
	numCodecs
)

func (c codec) String() string {
	return [...]string{"text", "binary", "columnar"}[c]
}

// encode writes t in codec c.
func encode(t *trace.Trace, c codec) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch c {
	case codecText:
		err = t.WriteText(&buf)
	case codecBinary:
		err = t.WriteBinary(&buf)
	default:
		err = t.WriteColumnar(&buf)
	}
	if err != nil {
		return nil, fmt.Errorf("encoding %s: %w", c, err)
	}
	return buf.Bytes(), nil
}

// drawMachine returns a seeded machine configuration and probe overheads
// near the paper's: the given processor count, the static interleaved
// schedule, and every cost within ±50% of machine.Alliant and
// loops.PaperOverheads. The draws stay close to the paper so that a seed
// changes the inputs' bytes and timings without changing how hard they
// are to analyse: a blocked schedule, for one, changes the analysis cost
// of a kernel by a third.
func drawMachine(r *rand.Rand, procs int) (machine.Config, instr.Overheads) {
	base, po := machine.Alliant(), loops.PaperOverheads()
	cfg := base
	cfg.Procs = procs
	cfg.SNoWait = near(r, base.SNoWait)
	cfg.SWait = cfg.SNoWait + near(r, base.SWait-base.SNoWait)
	cfg.AdvanceOp = near(r, base.AdvanceOp)
	cfg.Fork = near(r, base.Fork)
	cfg.Barrier = near(r, base.Barrier)
	o := instr.Overheads{Event: near(r, po.Event), Advance: near(r, po.Advance), AwaitB: near(r, po.AwaitB), AwaitE: near(r, po.AwaitE)}
	return cfg, o
}

// near draws uniformly from [v/2, 3v/2].
func near(r *rand.Rand, v trace.Time) trace.Time {
	return v/2 + trace.Time(r.Int63n(int64(v)+1))
}

// simulate runs kernel n for iters iterations under full instrumentation
// (statements and synchronization) and returns the measured trace with
// the exact calibration of the draw. It may run on several goroutines at
// once, so it counts its time instead of opening a span.
func simulate(tr *tracer, n, iters int, cfg machine.Config, o instr.Overheads) (*trace.Trace, instr.Calibration, error) {
	l := *loops.MustGet(n).Loop
	l.Iters = iters
	t0 := time.Now()
	res, err := machine.Run(&l, instr.FullPlan(o, true), cfg)
	tr.count("machine.simulate_s", time.Since(t0).Seconds())
	if err != nil {
		return nil, instr.Calibration{}, fmt.Errorf("simulating LL%d: %w", n, err)
	}
	tr.count("machine.simulate_events", float64(res.Trace.Len()))
	return res.Trace, instr.Exact(o, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier), nil
}

// reference analyses the in-memory trace (no codec) and returns the
// approximation with its wire response encoded as JSON. It runs the
// sharded engine (Workers: 1), which the repository's parity suites pin
// byte-identical to the default engine: the benchmark then checks the
// default path against a second implementation, and set-up stays short.
func reference(t *trace.Trace, cal instr.Calibration) (*core.Approximation, []byte, error) {
	a, err := core.AnalyzeContext(context.Background(), t, cal, core.Options{Workers: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("reference analysis: %w", err)
	}
	resp, err := server.BuildResponse(a)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(resp)
	return a, b, err
}

// responseJSON encodes a response for comparison against a reference,
// without the fields only a caching service sets.
func responseJSON(r *server.Response) ([]byte, error) {
	cp := *r
	cp.InputSHA256, cp.Cached = "", nil
	return json.Marshal(&cp)
}

// digester fingerprints the generated inputs, so two runs can be shown
// to have measured the same bytes.
type digester struct{ h hash.Hash }

func newDigester(workload string, seed int64) *digester {
	d := &digester{h: sha256.New()}
	fmt.Fprintf(d.h, "%s/%d\n", workload, seed)
	return d
}

func (d *digester) add(parts ...[]byte) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%d:", len(p))
		d.h.Write(p)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
