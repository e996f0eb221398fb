package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/server"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// batch-large: the library/CLI path, one goroutine. Each input is decoded
// (trace.NewReader + ReadAllContext), analysed by core.AnalyzeContext with
// zero Options, and turned into a response by server.BuildResponse.

// batchInput is one pre-encoded input with its reference response.
type batchInput struct {
	name   string
	codec  codec
	raw    []byte
	events int
	cal    instr.Calibration
	ref    []byte
}

type batchBench struct {
	inputs []batchInput
	sum    string
}

func (b *batchBench) digest() string { return b.sum }

// batchKernel is a Livermore DOACROSS kernel scaled to about 0.64M events
// (16, 23 and 9 events per iteration), each pre-encoded in its own codec.
type batchKernel struct {
	name        string
	loop        int
	iters, tiny int
	codec       codec
}

var batchKernels = []batchKernel{
	{"ll3", 3, 40_000, 200, codecText},
	{"ll4", 4, 28_000, 100, codecBinary},
	{"ll17", 17, 70_000, 300, codecColumnar},
}

// The backward wave is testgen's adversarial scan order, at the size and
// calibration of BenchmarkEventBasedMillionSequential so the two can be
// compared (ROADMAP's baseline table).
const (
	waveProcs = 8
	waveIters = 250_000 // ~1M events
)

var waveCal = instr.Calibration{Overheads: instr.Uniform(2), SNoWait: 5, SWait: 8, AdvanceOp: 3, Barrier: 4}

func setupBatch(p setupParams, tr *tracer) (bench, error) {
	r := rand.New(rand.NewSource(p.seed))
	d := newDigester("batch-large", p.seed)
	b := &batchBench{}
	add := func(name string, c codec, t *trace.Trace, cal instr.Calibration) error {
		raw, err := encode(t, c)
		if err != nil {
			return err
		}
		_, ref, err := reference(t, cal)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		d.add([]byte(name), raw, ref)
		b.inputs = append(b.inputs, batchInput{name: name, codec: c, raw: raw, events: t.Len(), cal: cal, ref: ref})
		return nil
	}
	for _, k := range batchKernels {
		iters := k.iters
		if p.tiny {
			iters = k.tiny
		}
		cfg, o := drawMachine(r, 8)
		t, cal, err := simulate(tr, k.loop, iters, cfg, o)
		if err != nil {
			return nil, err
		}
		if err := add(k.name, k.codec, t, cal); err != nil {
			return nil, err
		}
	}
	iters := waveIters
	if p.tiny {
		iters = 1000
	}
	if err := add("wave", codecBinary, testgen.BackwardWave(waveProcs, iters), waveCal); err != nil {
		return nil, err
	}
	b.sum = d.sum()
	return b, nil
}

// analyzeInput is one batch operation: decode, analyse, respond. It
// returns the decoded trace and the approximation too, so the caller can
// read the heap while a user of the result would still hold them.
func analyzeInput(ctx context.Context, in *batchInput, tr *tracer) (*server.Response, *trace.Trace, *core.Approximation, error) {
	sp := tr.begin(layerTrace, in.name+".decode")
	rd, err := trace.NewReader(bytes.NewReader(in.raw))
	var t *trace.Trace
	if err == nil {
		t, err = trace.ReadAllContext(ctx, rd)
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("decoding %s: %w", in.name, err)
	}
	tr.count(in.codec.String()+".decode_events", float64(t.Len()))

	var a0 uint64
	if tr != nil {
		a0 = totalAlloc()
	}
	sp = tr.begin(layerCore, in.name+".analyze")
	a, err := core.AnalyzeContext(ctx, t, in.cal, core.Options{})
	tr.end(sp)
	if tr != nil {
		tr.count(in.name+".analyze_alloc_bytes", float64(totalAlloc()-a0))
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analysing %s: %w", in.name, err)
	}

	sp = tr.begin(layerServer, in.name+".build")
	resp, err := server.BuildResponse(a)
	tr.end(sp)
	return resp, t, a, err
}

// run makes whole passes over the inputs until d has elapsed (at least
// one). The live heap is read after each operation, outside the timed
// interval.
func (b *batchBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{layers: map[string]float64{}}
	opTimes := make([][]float64, len(b.inputs))
	opLive := make([][]float64, len(b.inputs))
	var passRates, passOps []float64
	var events int
	var alloc uint64
	var wall time.Duration
	base := liveMB()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		var pev int
		var pdur time.Duration
		for i := range b.inputs {
			in := &b.inputs[i]
			// Every operation starts from a collected heap returned to the
			// OS, as a fresh CLI process does.
			debug.FreeOSMemory()
			a0 := totalAlloc()
			op := tr.begin(layerBench, "op")
			t0 := time.Now()
			resp, t, a, err := analyzeInput(ctx, in, tr)
			dt := time.Since(t0)
			tr.end(op)
			alloc += totalAlloc() - a0
			o.attempted++
			if err == nil {
				var got []byte
				if got, err = json.Marshal(resp); err == nil && !bytes.Equal(got, in.ref) {
					err = fmt.Errorf("%s: response differs from the reference:\n got %s\nwant %s", in.name, got, in.ref)
				}
			}
			if err != nil {
				o.fail(err)
				continue
			}
			opLive[i] = append(opLive[i], liveMB()-base)
			runtime.KeepAlive(t)
			runtime.KeepAlive(a)
			opTimes[i] = append(opTimes[i], dt.Seconds())
			pev += in.events
			pdur += dt
		}
		events += pev
		wall += pdur
		if pdur > 0 {
			passRates = append(passRates, float64(pev)/pdur.Seconds())
			passOps = append(passOps, float64(len(b.inputs))/pdur.Seconds())
		}
	}

	// Latency of one whole-input operation. A run holds only a few passes,
	// so the percentiles are taken over per-input medians: p50 is the
	// median input's, p99 the slowest input's.
	var inputMed, inputLive []float64
	for i := range b.inputs {
		inputMed = append(inputMed, median(opTimes[i]))
		inputLive = append(inputLive, median(opLive[i]))
	}
	o.e2e = map[string]float64{
		"events_per_s":          median(passRates),
		"alloc_bytes_per_event": float64(alloc) / float64(max(events, 1)),
		"live_heap_mb":          maxOf(inputLive),
		"latency_p50_ms":        median(inputMed) * 1e3,
		"latency_p99_ms":        maxOf(inputMed) * 1e3,
		"throughput_rps":        median(passOps),
	}
	o.unitCost = 1 / max(median(passRates), 1e-9)
	o.notes = append(o.notes, fmt.Sprintf("%d passes over %d inputs, %d events analysed in %.3fs timed",
		len(passRates), len(b.inputs), events, wall.Seconds()))
	for i, in := range b.inputs {
		o.notes = append(o.notes, fmt.Sprintf("%-5s %-8s %8d events  median %8.1f ms  live %7.1f MiB",
			in.name, in.codec, in.events, inputMed[i]*1e3, inputLive[i]))
	}
	if tr == nil {
		return o, nil
	}

	o.wall = wall
	o.layerSelf = tr.layerSelf()
	tot := tr.totals()
	for _, in := range b.inputs {
		dec := tot[layerTrace+"/"+in.name+".decode"].self.Seconds()
		an := tot[layerCore+"/"+in.name+".analyze"]
		bld := tot[layerServer+"/"+in.name+".build"].self.Seconds()
		o.layers["trace.decode_s."+in.codec.String()] += dec
		o.layers["core.analyze_s"] += an.self.Seconds()
		o.layers["core.analyze_alloc_bytes"] += tr.counts[in.name+".analyze_alloc_bytes"]
		o.layers["server.build_response_s"] += bld
		ops := float64(max(an.count, 1))
		o.layers["batch."+in.name+".events"] = float64(in.events)
		o.layers["batch."+in.name+".decode_ms"] = dec / ops * 1e3
		o.layers["batch."+in.name+".analyze_ms"] = an.self.Seconds() / ops * 1e3
		o.layers["batch."+in.name+".build_ms"] = bld / ops * 1e3
		o.layers["batch."+in.name+".analyze_alloc_mb"] = tr.counts[in.name+".analyze_alloc_bytes"] / ops / (1 << 20)
	}
	for c := codec(0); c < numCodecs; c++ {
		o.layers["trace.decode_events"] += tr.counts[c.String()+".decode_events"]
	}
	return o, nil
}
