// Command perfbench is the repository's benchmark. It generates seeded
// inputs, runs one workload against the default paths (Analyze with zero
// options, the streaming session, perturbd with no flags), checks every
// result against a reference computed during set-up, and prints each
// end-to-end metric by name and unit. With --trace 1 it runs the workload
// a second time with spans around its own calls into each layer, and
// prints the per-layer breakdown instead.
//
//	bash perfbench/run.sh --workload batch-large --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See perfbench/README.md for the workloads, metric definitions and the
// metric-interaction map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run generates its inputs; setup_s is the
// median, and every repetition must yield the same input digest.
const setupRuns = 3

// bench is one workload's generated inputs, ready to measure.
type bench interface {
	digest() string
	// run measures the workload for about d. A non-nil tracer records
	// spans around the benchmark's calls into each layer, and the
	// outcome then carries per-layer metrics.
	run(d time.Duration, tr *tracer) (*outcome, error)
}

type workloadDef struct {
	name string
	// setup generates the inputs and their references.
	setup func(p setupParams, tr *tracer) (bench, error)
}

// setupParams are what input generation depends on: the seed, the run
// length (service-mix sizes its request sequence by it), and tiny, which
// selects the self-test's small sizes.
type setupParams struct {
	seed    int64
	seconds time.Duration
	tiny    bool
}

var workloads = []workloadDef{
	{"batch-large", setupBatch},
	{"service-mix", setupService},
	{"stream-follow", setupStream},
}

// outcome is one measured phase of a workload.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64 // end-to-end metrics except setup_s
	layers            map[string]float64 // per-layer metrics (traced run)
	// unitCost is the wall time per unit of work (event or request) the
	// tracing overhead compares between the untraced and traced runs.
	unitCost float64
	// wall is the end-to-end time the traced run reconciles: the timed
	// operations of a sequential workload, or the clients' busy time on
	// service-mix. layerSelf is each layer's self time within it.
	wall      time.Duration
	layerSelf map[string]time.Duration
	notes     []string // human-readable detail lines
}

// fail counts a failed operation and keeps the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if o.failed <= 5 {
		o.notes = append(o.notes, "FAIL "+err.Error())
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "batch-large, service-mix, stream-follow, or all")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 25, "measured time per phase, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	d := time.Duration(*seconds) * time.Second
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range defs {
		res, err := measure(w, *seed, d, *traced == 1, false, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(defs) == 1 {
			total = *res
			break
		}
		// Several workloads: print each one's result, then a combined
		// line with the metrics prefixed by workload.
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure sets a workload up setupRuns times, runs it, and assembles the
// result: the end-to-end metrics, or with traced the per-layer ones.
func measure(w workloadDef, seed int64, d time.Duration, traced, tiny bool, out io.Writer) (*result, error) {
	var setupTimes []float64
	var b bench
	var setupTrace *tracer // the last repetition's, in the traced run
	for i := 0; i < setupRuns; i++ {
		if traced && i == setupRuns-1 {
			setupTrace = newTracer()
		}
		var prev string
		if b != nil {
			prev, b = b.digest(), nil
			runtime.GC() // drop the previous repetition's inputs first
		}
		t0 := time.Now()
		nb, err := w.setup(setupParams{seed, d, tiny}, setupTrace)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if prev != "" && nb.digest() != prev {
			return nil, errors.New("set-up is not a pure function of the seed: input digests differ between repetitions")
		}
		b = nb
	}
	fmt.Fprintf(out, "%s seed %d inputs %s set-up %.3fs (median of %d)\n",
		w.name, seed, b.digest(), median(setupTimes), setupRuns)

	plain, err := b.run(d, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	e2e := plain.e2e
	e2e["setup_s"] = median(setupTimes)
	printE2E(out, w.name, "", e2e, plain)
	if !traced {
		for _, m := range endToEnd {
			v, ok := e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload emitted no %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.Correct = plain.failed == 0
		return res, nil
	}

	tr := newTracer()
	tout, err := b.run(d, tr)
	if err != nil {
		return nil, err
	}
	res.Attempted += tout.attempted
	res.Failed += tout.failed
	res.Correct = res.Failed == 0
	printE2E(out, w.name, " (traced)", tout.e2e, tout)
	layers := tout.layers
	layers["machine.simulate_s"] = setupTrace.counts["machine.simulate_s"]
	layers["machine.simulate_events"] = setupTrace.counts["machine.simulate_events"]
	reconcile(layers, tout, plain)
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	printLayers(out, res.Metrics)
	return res, nil
}

// reconcile adds the traced run's accounting: end-to-end wall time, the
// sum of layer self times, the unattributed share, and the tracing
// overhead against the untraced run.
func reconcile(layers map[string]float64, traced, plain *outcome) {
	var sum time.Duration
	for _, l := range []string{layerTrace, layerCore, layerServer, layerCache} {
		layers["layer."+l+"_s"] = traced.layerSelf[l].Seconds()
		sum += traced.layerSelf[l]
	}
	wall := traced.wall.Seconds()
	layers["reconcile.wall_s"] = wall
	layers["reconcile.layer_sum_s"] = sum.Seconds()
	if wall > 0 {
		layers["reconcile.unattributed_share"] = (wall - sum.Seconds()) / wall
	}
	if plain.unitCost > 0 {
		layers["reconcile.tracing_overhead"] = traced.unitCost/plain.unitCost - 1
	}
	within := 0.0
	if s := layers["reconcile.unattributed_share"]; s >= -unattributedTolerance && s <= unattributedTolerance {
		within = 1
	}
	layers["reconcile.within_tolerance"] = within
}

// unattributedTolerance bounds |unattributed share| in the traced run:
// the benchmark's own loop, bookkeeping and correctness checks between
// layer calls must stay under this share of the end-to-end time.
const unattributedTolerance = 0.05

func printE2E(out io.Writer, name, tag string, e2e map[string]float64, o *outcome) {
	fmt.Fprintf(out, "%s%s: %d attempted, %d failed (failed_ratio %.4g)\n", name, tag,
		o.attempted, o.failed, float64(o.failed)/float64(max(o.attempted, 1)))
	for _, m := range endToEnd {
		if v, ok := e2e[m.name]; ok {
			fmt.Fprintf(out, "  %-24s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
}

func printLayers(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
