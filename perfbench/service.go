package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/obs"
	"perturb/internal/server"
)

// service-mix: the default perturbd, server.New(server.Config{}), served
// on loopback inside the benchmark process. Requests go through
// server.Client.AnalyzeReader (the `perturb -remote` client) over at most
// nproc connections; about 1 in 10 go to /v1/analyze/stream instead.
//
// The run is serviceRounds rounds. Each round first sends an open loop at
// serviceRate requests per second for serviceOpenShare of the round: each
// request is timed from when it was due, so a stall delays the requests
// behind it. The rate keeps the daemon under a fifth busy on two cores, so
// latency reads the per-request cost more than the queueing a slower
// machine adds. Then nproc clients run a closed loop over a fixed number
// of requests (serviceClosedRate per second of the rest of the round, a
// little more than the seed code completes): the inputs, and so the
// set-up, do not grow when the service gets faster — the closed loop just
// ends sooner. Throughput is the median over the rounds, so a stall of
// the machine moves one round, not the run. The latency percentiles are
// taken over each third of the run (latencyGroups groups of consecutive
// rounds, about 1000 requests at --seconds 25, so the p99 has ten
// requests beyond it), and the lowest of the thirds is reported. The
// open loop leaves the two cores idle four fifths of the time, and on a
// shared host every wake-up then waits for the host: in its busy spells
// that adds milliseconds to a large request and can raise a third's p99
// by half, while the closed loop, which keeps both cores busy, barely
// moves. Interference only adds latency, so the calmest third is the
// closest to the program's own; a change that slows the program moves
// every third.
const (
	serviceRounds     = 9
	latencyGroups     = 3    // of consecutive rounds, pooled for the latency percentiles
	serviceRate       = 150  // open loop, requests per second
	serviceOpenShare  = 0.8  // of each round spent in the open loop
	serviceClosedRate = 1000 // closed-loop request budget per second
	streamShare       = 0.1  // requests sent to /v1/analyze/stream
	freshShare        = 0.5  // batch requests that upload a trace not sent before
	minEvents         = 1_000
	maxEvents         = 20_000
)

// catalogueEntry is one distinct trace, pre-encoded, with its reference.
type catalogueEntry struct {
	raw    []byte
	events int
	cal    instr.Calibration
	window int64 // stream requests' window, ns
	ref    []byte
}

// request is one scheduled request: a catalogue entry and its endpoint.
type request struct {
	entry  int
	stream bool
}

// round is one open-loop then closed-loop round of requests.
type round struct{ open, closed []request }

type serviceBench struct {
	entries []catalogueEntry
	rounds  []round
	sum     string
}

func (s *serviceBench) digest() string { return s.sum }

// entryDraw is a catalogue entry's seeded parameters, drawn in sequence
// so the entries can then be generated in parallel.
type entryDraw struct {
	loop, iters int
	cfg         machine.Config
	o           instr.Overheads
	codec       codec
}

// setupService draws the request sequence and the catalogue it uses. A
// batch request either uploads a fresh trace (freshShare) or repeats the
// bytes of an earlier one, skewed towards the earliest (most popular)
// traces, so about half of all requests are byte-identical repeats the
// result cache serves. Stream requests replay an earlier trace, picked
// uniformly: streams bypass the cache.
func setupService(p setupParams, tr *tracer) (bench, error) {
	perRound := p.seconds.Seconds() / serviceRounds
	nOpen := int(serviceRate * serviceOpenShare * perRound)
	nClosed := int(serviceClosedRate * (1 - serviceOpenShare) * perRound)
	if p.tiny {
		nOpen, nClosed = 6, 6
	}
	r := rand.New(rand.NewSource(p.seed))
	var seq []request
	var uploaded []int
	var phaseEnds []int // catalogue size at the end of each round's open and closed phase
	for i := 0; i < serviceRounds*(nOpen+nClosed); i++ {
		switch {
		case len(uploaded) > 0 && r.Float64() < streamShare:
			seq = append(seq, request{entry: uploaded[r.Intn(len(uploaded))], stream: true})
		case len(uploaded) == 0 || r.Float64() < freshShare:
			seq = append(seq, request{entry: len(uploaded)})
			uploaded = append(uploaded, len(uploaded))
		default:
			seq = append(seq, request{entry: uploaded[skewed(r, len(uploaded))]})
		}
		if k := (i + 1) % (nOpen + nClosed); k == nOpen || k == 0 {
			phaseEnds = append(phaseEnds, len(uploaded))
		}
	}
	s := &serviceBench{}
	for len(seq) > 0 {
		s.rounds = append(s.rounds, round{open: seq[:nOpen], closed: seq[nOpen : nOpen+nClosed]})
		seq = seq[nOpen+nClosed:]
	}

	perIter, err := eventsPerIteration()
	if err != nil {
		return nil, err
	}
	// The traces a phase uploads are stratified by size, kernel and codec,
	// then shuffled: every phase of every seed holds the same mix of
	// log-uniform sizes, of the 24 kernels and of the three codecs, so a
	// seed changes which trace lands where, not how much work a phase
	// holds. The three DOACROSS kernels cost about three times as much per
	// event as the others, and they take the largest eighth of the strata
	// (their share of the 24 kernels): the open loop's tail is then their
	// large traces alone, about one request in eighteen, and its p99 falls
	// inside that group rather than on whichever few mixed traces a seed
	// made largest.
	doacross := loops.DoacrossNumbers()
	var others []int
	for _, n := range loops.Numbers() {
		if !slices.Contains(doacross, n) {
			others = append(others, n)
		}
	}
	kernels := len(doacross) + len(others)
	draws := make([]entryDraw, len(uploaded))
	lo := 0
	for _, hi := range phaseEnds {
		k := hi - lo
		// The DOACROSS kernels' share of the strata, rounded up.
		nd := (k*len(doacross) + kernels - 1) / kernels
		var dq, oq []int // kernels left in the current permutations
		next := func(q *[]int, from []int) int {
			if len(*q) == 0 {
				for _, i := range r.Perm(len(from)) {
					*q = append(*q, from[i])
				}
			}
			n := (*q)[0]
			*q = (*q)[1:]
			return n
		}
		strata := make([]entryDraw, k)
		for j := range strata {
			target := float64(minEvents) * math.Pow(maxEvents/minEvents, (float64(j)+r.Float64())/float64(k))
			if p.tiny {
				target = 200
			}
			rank := k - 1 - j // from the largest stratum
			var n int
			if rank < nd {
				n = next(&dq, doacross)
			} else {
				n = next(&oq, others)
			}
			strata[j] = entryDraw{loop: n, iters: max(1, int(target/perIter[n])), codec: codec(rank % int(numCodecs))}
		}
		r.Shuffle(k, func(i, j int) { strata[i], strata[j] = strata[j], strata[i] })
		for j, d := range strata {
			d.cfg, d.o = drawMachine(r, 2+r.Intn(7))
			draws[lo+j] = d
		}
		lo = hi
	}
	s.entries = make([]catalogueEntry, len(draws))
	if err := parallel(len(draws), func(i int) error {
		e, err := makeEntry(draws[i], tr)
		s.entries[i] = e
		return err
	}); err != nil {
		return nil, err
	}
	dg := newDigester("service-mix", p.seed)
	for _, e := range s.entries {
		dg.add(e.raw, e.ref)
	}
	for _, rd := range s.rounds {
		for _, rq := range append(rd.open, rd.closed...) {
			fmt.Fprintf(dg.h, "%d/%t,", rq.entry, rq.stream)
		}
	}
	s.sum = dg.sum()
	return s, nil
}

// makeEntry simulates, encodes and references one catalogue trace.
func makeEntry(d entryDraw, tr *tracer) (catalogueEntry, error) {
	t, cal, err := simulate(tr, d.loop, d.iters, d.cfg, d.o)
	if err != nil {
		return catalogueEntry{}, err
	}
	raw, err := encode(t, d.codec)
	if err != nil {
		return catalogueEntry{}, err
	}
	_, ref, err := reference(t, cal)
	if err != nil {
		return catalogueEntry{}, fmt.Errorf("LL%d: %w", d.loop, err)
	}
	return catalogueEntry{raw: raw, events: t.Len(), cal: cal, window: int64(t.Duration()/8) + 1, ref: ref}, nil
}

// parallel runs fn(0..n-1) on nproc goroutines; a worker stops at its
// first error, and the workers' errors are returned joined.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// skewed picks an index in [0, n) with density falling towards n.
func skewed(r *rand.Rand, n int) int {
	u := r.Float64()
	return int(float64(n) * u * u)
}

// eventsPerIteration measures each kernel's events per iteration at its
// paper iteration count under the paper's machine.
func eventsPerIteration() (map[int]float64, error) {
	out := map[int]float64{}
	for _, n := range loops.Numbers() {
		def := loops.MustGet(n)
		t, _, err := simulate(nil, n, def.Iters, machine.Alliant(), loops.PaperOverheads())
		if err != nil {
			return nil, err
		}
		out[n] = float64(t.Len()) / float64(def.Iters)
	}
	return out, nil
}

// reqResult is one completed (or failed) request.
type reqResult struct {
	due, sent, done time.Time
	err             error
}

// roundTrips counts the client's wire attempts and shed responses, in
// the traced run only: retries are wire attempts beyond the calls made.
type roundTrips struct {
	next        http.RoundTripper
	trips, shed atomic.Int64
}

func (c *roundTrips) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	resp, err := c.next.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		c.shed.Add(1)
	}
	return resp, err
}

// serviceRun is one measured run against a fresh daemon.
type serviceRun struct {
	ctx    context.Context // bounds every request, so a hung service fails the run
	s      *serviceBench
	base   string
	client *server.Client
	httpc  *http.Client
}

func (s *serviceBench) run(d time.Duration, tr *tracer) (*outcome, error) {
	conns := runtime.NumCPU()
	cfg := server.Config{}
	var rec *obs.Recorder
	var recEpoch time.Time
	if tr != nil {
		// Room for every record of the run: a request leaves at most a
		// dozen.
		n := 0
		for _, rd := range s.rounds {
			n += len(rd.open) + len(rd.closed)
		}
		rec = obs.NewRecorder(16 * (n + 64))
		recEpoch = time.Now()
		cfg.Recorder = rec
	}
	base := liveMB()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()

	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	var counted *roundTrips
	if tr != nil {
		counted = &roundTrips{next: transport}
		rt = counted
	}
	httpc := &http.Client{Transport: rt}
	baseURL := "http://" + ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 2*d+time.Minute)
	defer cancel()
	sr := &serviceRun{ctx: ctx, s: s, base: baseURL, httpc: httpc,
		client: &server.Client{BaseURL: baseURL, HTTPClient: httpc}}

	o := &outcome{layers: map[string]float64{}}
	openFor := time.Duration(float64(d) / serviceRounds * serviceOpenShare)
	var p50s, p99s []float64 // open-loop latency per group of rounds, ms
	var rps, eps, late []float64
	var alloc uint64
	var calls, closedN, closedEvents int
	var busy, closedWall time.Duration
	var ph serverPhases
	record := func(rr reqResult) bool {
		calls++
		o.attempted++
		if rr.err != nil {
			o.fail(rr.err)
			return false
		}
		return true
	}
	var lat []float64 // the current group's open-loop latencies, s
	for ri, rd := range s.rounds {
		for _, rr := range sr.openLoop(rd.open, openFor) {
			if record(rr) {
				lat = append(lat, rr.done.Sub(rr.due).Seconds())
				late = append(late, rr.sent.Sub(rr.due).Seconds())
			}
		}
		if (ri+1)%(serviceRounds/latencyGroups) == 0 {
			p50s = append(p50s, quantile(lat, 0.5)*1e3)
			p99s = append(p99s, quantile(lat, 0.99)*1e3)
			lat = lat[:0]
		}

		start := time.Now()
		a0 := totalAlloc()
		res := sr.closedLoop(rd.closed, conns)
		end := time.Now()
		alloc += totalAlloc() - a0
		events := 0
		for i, rr := range res {
			if record(rr) {
				events += s.entries[rd.closed[i].entry].events
				busy += rr.done.Sub(rr.sent)
			}
		}
		wall := end.Sub(start)
		rps = append(rps, float64(len(res))/wall.Seconds())
		eps = append(eps, float64(events)/wall.Seconds())
		closedN += len(res)
		closedEvents += events
		closedWall += wall
		if rec != nil {
			ph.add(phaseTimes(rec, start.Sub(recEpoch), end.Sub(recEpoch)))
		}
	}
	live := liveMB() - base

	o.e2e = map[string]float64{
		"events_per_s":          median(eps),
		"alloc_bytes_per_event": float64(alloc) / float64(max(closedEvents, 1)),
		"live_heap_mb":          live,
		"latency_p50_ms":        slices.Min(p50s),
		"latency_p99_ms":        slices.Min(p99s),
		"throughput_rps":        median(rps),
	}
	o.unitCost = 1 / max(median(rps), 1e-9)
	st, _ := srv.CacheStats()
	lookups := st.Hits + st.Coalesced + st.Misses
	o.notes = append(o.notes,
		fmt.Sprintf("%d rounds over %d conns; open loop %d req/s for %v per round, p50 by third of the run %.3g ms, p99 %.3g ms; generator late p99 %.3f ms, max %.3f ms",
			len(s.rounds), conns, serviceRate, openFor, p50s, p99s, quantile(late, 0.99)*1e3, maxOf(late)*1e3),
		fmt.Sprintf("closed loop: %d requests per round, req/s by round %.4g", len(s.rounds[0].closed), rps),
		fmt.Sprintf("cache: %d hits, %d coalesced, %d misses (hit ratio %.3f of %d lookups)",
			st.Hits, st.Coalesced, st.Misses, st.HitRatio(), lookups))
	if tr == nil {
		return o, nil
	}

	if rec.Dropped() > 0 {
		return nil, fmt.Errorf("span recorder dropped %d records", rec.Dropped())
	}
	o.layers["cache.hit_ratio"] = st.HitRatio()
	o.layers["cache.lookups"] = float64(lookups)
	o.layers["cache.coalesced"] = float64(st.Coalesced)
	o.layers["server.shed"] = float64(counted.shed.Load())
	o.layers["server.client_retries"] = float64(counted.trips.Load() - int64(calls))
	o.layers["service.generator_late_p99_ms"] = quantile(late, 0.99) * 1e3
	for _, name := range []string{"admission", "decode", "lookup", "analyze", "encode", "stream"} {
		o.layers["server.phase_s."+name] = ph.phase[name].Seconds()
	}
	o.layers["server.wait_s.queue"] = ph.queue.Seconds()
	o.layers["server.wait_s.flight"] = ph.flight.Seconds()
	httpSelf := busy - ph.requests
	o.layers["server.http_s"] = httpSelf.Seconds()
	o.layers["service.requests"] = float64(closedN)
	o.wall = time.Duration(conns) * closedWall
	o.layerSelf = map[string]time.Duration{
		layerTrace:  ph.phase["decode"],
		layerCore:   ph.phase["analyze"] + ph.phase["stream"],
		layerCache:  ph.phase["lookup"] + ph.flight,
		layerServer: ph.phase["admission"] + ph.phase["encode"] + ph.queue + httpSelf,
	}
	return o, nil
}

// openLoop sends reqs evenly over d, each timed from its due time.
func (sr *serviceRun) openLoop(reqs []request, d time.Duration) []reqResult {
	interval := d / time.Duration(max(len(reqs), 1))
	out := make([]reqResult, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		out[i].due = due
		out[i].sent = time.Now()
		wg.Add(1)
		go func(i int, rq request) {
			defer wg.Done()
			out[i].err = sr.do(rq)
			out[i].done = time.Now()
		}(i, rq)
	}
	wg.Wait()
	return out
}

// closedLoop runs reqs to completion on conns clients.
func (sr *serviceRun) closedLoop(reqs []request, conns int) []reqResult {
	out := make([]reqResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i].sent = time.Now()
				out[i].due = out[i].sent
				out[i].err = sr.do(reqs[i])
				out[i].done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// do sends one request and checks its result against the reference.
func (sr *serviceRun) do(rq request) error {
	e := &sr.s.entries[rq.entry]
	var resp *server.Response
	var err error
	if rq.stream {
		resp, err = sr.stream(e)
	} else {
		resp, err = sr.client.AnalyzeReader(sr.ctx, bytes.NewReader(e.raw), server.Request{Cal: &e.cal})
	}
	if err != nil {
		return err
	}
	got, err := responseJSON(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, e.ref) {
		return fmt.Errorf("response differs from the reference:\n got %s\nwant %s", got, e.ref)
	}
	return nil
}

// stream posts one trace to /v1/analyze/stream and returns the final
// record's result.
func (sr *serviceRun) stream(e *catalogueEntry) (*server.Response, error) {
	q := url.Values{}
	for name, v := range map[string]int64{
		"event": int64(e.cal.Overheads.Event), "advance": int64(e.cal.Overheads.Advance),
		"awaitb": int64(e.cal.Overheads.AwaitB), "awaite": int64(e.cal.Overheads.AwaitE),
		"snowait": int64(e.cal.SNoWait), "swait": int64(e.cal.SWait),
		"advanceop": int64(e.cal.AdvanceOp), "barrier": int64(e.cal.Barrier),
		"window": e.window,
	} {
		q.Set(name, strconv.FormatInt(v, 10))
	}
	req, err := http.NewRequestWithContext(sr.ctx, http.MethodPost, sr.base+"/v1/analyze/stream?"+q.Encode(), bytes.NewReader(e.raw))
	if err != nil {
		return nil, err
	}
	resp, err := sr.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("stream: status %d: %s", resp.StatusCode, b)
	}
	var final *server.Response
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var line struct {
			Final  bool             `json:"final"`
			Result *server.Response `json:"result"`
			Error  string           `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("stream: bad line: %w", err)
		}
		if line.Error != "" {
			return nil, fmt.Errorf("stream: %s", line.Error)
		}
		if line.Final {
			final = line.Result
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if final == nil {
		return nil, errors.New("stream: no final record")
	}
	return final, nil
}

// serverPhases is the recorder's view of the requests that started in
// [from, to): phase self times (nested waits removed), queue waits,
// singleflight waits beyond the flights' own work, and the total
// duration of the request scopes (flight scopes excluded).
type serverPhases struct {
	phase    map[string]time.Duration
	queue    time.Duration
	flight   time.Duration
	requests time.Duration
}

func (p *serverPhases) add(q serverPhases) {
	if p.phase == nil {
		p.phase = map[string]time.Duration{}
	}
	for k, v := range q.phase {
		p.phase[k] += v
	}
	p.queue += q.queue
	p.flight += q.flight
	p.requests += q.requests
}

// phaseTimes folds the recorder's spans of the scopes that began in
// [from, to) after the recorder's creation into per-phase totals. Records
// of one scope share a processor slot and follow its begin mark; a scope
// that runs an "analyze" phase is a singleflight flight, nested inside
// the waits of the requests it serves.
func phaseTimes(rec *obs.Recorder, from, to time.Duration) serverPhases {
	stmts, vars := rec.StmtNames(), rec.VarNames()
	out := serverPhases{phase: map[string]time.Duration{}}
	type scope struct {
		start, end int64
		recs       []obs.SpanRecord
	}
	open := map[int]*scope{}
	var scopes []*scope
	for _, r := range rec.Records() {
		switch r.Kind {
		case obs.RecMark:
			sc := &scope{start: r.Start, end: r.End}
			open[r.Proc] = sc
			scopes = append(scopes, sc)
		case obs.RecPhase, obs.RecWait:
			if sc := open[r.Proc]; sc != nil {
				sc.recs = append(sc.recs, r)
				sc.end = max(sc.end, r.End)
			}
		}
	}
	lo, hi := from.Nanoseconds(), to.Nanoseconds()
	var flightWaits, flightScopes time.Duration
	for _, sc := range scopes {
		if sc.start < lo || sc.start >= hi {
			continue
		}
		isFlight := false
		waitsIn := map[int]time.Duration{} // wait time by containing phase record
		for _, r := range sc.recs {
			if r.Kind == obs.RecPhase && stmts[r.Stmt] == "analyze" {
				isFlight = true
			}
		}
		for _, w := range sc.recs {
			if w.Kind != obs.RecWait {
				continue
			}
			d := time.Duration(w.End - w.Start)
			switch vars[w.Var] {
			case "queue":
				out.queue += d
			case "flight":
				flightWaits += d
			}
			for i, p := range sc.recs {
				if p.Kind == obs.RecPhase && p.Start <= w.Start && w.End <= p.End {
					waitsIn[i] += d
					break
				}
			}
		}
		for i, p := range sc.recs {
			if p.Kind != obs.RecPhase {
				continue
			}
			name := stmts[p.Stmt]
			switch name {
			case "window", "close":
				name = "stream"
			}
			out.phase[name] += time.Duration(p.End-p.Start) - waitsIn[i]
		}
		if isFlight {
			flightScopes += time.Duration(sc.end - sc.start)
		} else {
			out.requests += time.Duration(sc.end - sc.start)
		}
	}
	out.flight = max(0, flightWaits-flightScopes)
	return out
}
