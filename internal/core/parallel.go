package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// Scheduler telemetry. The schedulers accumulate plain integers locally
// (park/wake transitions are off the per-event hot path already) and
// EventBasedParallel flushes them once per analysis when the obs layer is
// enabled.
var (
	obsAnaRuns      = obs.NewCounter("core.analysis.runs")
	obsAnaEvents    = obs.NewCounter("core.analysis.events")
	obsSchedParks   = obs.NewCounter("core.sched.parks")
	obsSchedWakes   = obs.NewCounter("core.sched.wakes")
	obsSchedRetries = obs.NewCounter("core.sched.retries")
	obsSchedDepth   = obs.NewMaxGauge("core.sched.runnable_peak")
	obsShardPeak    = obs.NewMaxGauge("core.sched.shard_events_peak")
	obsShardEvents  = obs.NewHistogram("core.sched.events_per_shard")
)

// schedStats aggregates one analysis run's scheduler activity: how often
// shards parked on an unresolved dependency, how many wakeups publishes
// produced, how many parks were avoided because the dependency resolved
// in the race window (retries), and the peak runnable-queue depth — the
// observable cost of dependency scheduling, and the skew inputs for the
// events-per-shard histogram.
type schedStats struct {
	parks, wakes, retries int64
	depthPeak             int64
}

func (s *schedStats) noteDepth(depth int) {
	if d := int64(depth); d > s.depthPeak {
		s.depthPeak = d
	}
}

// flush publishes the run's scheduler statistics plus the per-shard event
// distribution.
func (g *ebEngine) flushTelemetry(st *schedStats) {
	if !obs.Enabled() {
		return
	}
	obsAnaRuns.Add(1)
	obsAnaEvents.Add(int64(g.in.Len()))
	obsSchedParks.Add(st.parks)
	obsSchedWakes.Add(st.wakes)
	obsSchedRetries.Add(st.retries)
	obsSchedDepth.Observe(st.depthPeak)
	for p, list := range g.deps.perProc {
		if len(list) == 0 {
			continue
		}
		obsShardEvents.Observe(p, int64(len(list)))
		obsShardPeak.Observe(int64(len(list)))
	}
}

// EventBasedParallel applies event-based perturbation analysis (paper
// §4.2.3) with the sharded dependency-scheduled engine: one shard per
// processor, advanced concurrently by the given number of workers. The
// result — approximated times, canonical event order, waiting statistics,
// and error behaviour — is identical to EventBased; the engines differ
// only in how resolution work is scheduled.
//
// workers <= 0 selects GOMAXPROCS workers; workers == 1 runs the sharded
// engine on the calling goroutine (no locking). Like EventBased's
// park/wake scheduling, the scheduler performs O(events + dependencies)
// work regardless of how dependency chains snake across processors; the
// sharded engine additionally precomputes the whole dependency graph.
func EventBasedParallel(m *trace.Trace, cal instr.Calibration, workers int) (*Approximation, error) {
	return eventBasedParallel(context.Background(), m, cal, workers, false)
}

// eventBasedParallel is the sharded engine entry point. With degraded set,
// unpaired awaits resolve with the conservative placeholder rule (see
// eventBased); the engine performs no stall-breaking, so a dependency
// cycle still returns ErrUnresolvable and the caller (Analyze) falls back
// to the sequential degraded analysis.
//
// Cancellation is cooperative: when ctx carries a cancel signal, a watcher
// raises the engine's stop flag (polled by shards every few thousand
// events) and wakes any workers parked on the scheduler condition
// variable; the run then returns the mapped sentinel with every scheduler
// goroutine joined and no partial Approximation.
func eventBasedParallel(ctx context.Context, m *trace.Trace, cal instr.Calibration, workers int, degraded bool) (*Approximation, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input trace: %w", err)
	}
	if err := cancel.Err(ctx); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := newEngine(m, cal, degraded)

	shards := 0
	for _, list := range g.deps.perProc {
		if len(list) > 0 {
			shards++
		}
	}
	if workers > shards {
		workers = shards
	}

	var s *parSched
	if workers > 1 {
		s = newParSched(g)
	}
	if done := ctx.Done(); done != nil {
		quit := make(chan struct{})
		defer close(quit)
		go func() {
			select {
			case <-done:
				atomic.StoreUint32(&g.stop, 1)
				if s != nil {
					s.cancelWorkers()
				}
			case <-quit:
			}
		}()
	}

	var ok bool
	var st schedStats
	if s == nil {
		st, ok = runSerial(g)
	} else {
		st, ok = s.run(workers)
	}
	g.flushTelemetry(&st)
	if !ok {
		if err := cancel.Err(ctx); err != nil && g.canceled() {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %d events unresolved (missing advance pair or barrier participant?)",
			ErrUnresolvable, g.remaining())
	}
	return g.finish(), nil
}

// parkList tracks which shards are parked on which event. At most one
// park entry exists per shard, so a publish scans the parked shards (at
// most the processor count, usually a handful) instead of hashing into a
// map once per watched event.
type parkList struct {
	parkedOn []int // per shard: event index it waits on, -1 if not parked
	parked   []int // shard ids currently parked, unordered
}

func newParkList(shards int) *parkList {
	l := &parkList{parkedOn: make([]int, shards)}
	for i := range l.parkedOn {
		l.parkedOn[i] = -1
	}
	return l
}

func (l *parkList) park(shard, idx int) {
	l.parkedOn[shard] = idx
	l.parked = append(l.parked, shard)
}

// wake moves every shard parked on idx into runnable and returns it.
func (l *parkList) wake(idx int, runnable []int) []int {
	for k := 0; k < len(l.parked); {
		p := l.parked[k]
		if l.parkedOn[p] == idx {
			l.parkedOn[p] = -1
			l.parked[k] = l.parked[len(l.parked)-1]
			l.parked = l.parked[:len(l.parked)-1]
			runnable = append(runnable, p)
		} else {
			k++
		}
	}
	return runnable
}

// serialSched drives all shards on one goroutine: a FIFO of runnable
// shards plus the park list. No locking — publish is only called from
// runShard on this goroutine.
type serialSched struct {
	g        *ebEngine
	runnable []int
	parks    *parkList
	stats    schedStats
}

func (s *serialSched) publish(idx int) {
	if len(s.parks.parked) > 0 {
		was := len(s.runnable)
		s.runnable = s.parks.wake(idx, s.runnable)
		s.stats.wakes += int64(len(s.runnable) - was)
		s.stats.noteDepth(len(s.runnable))
	}
}

func runSerial(g *ebEngine) (schedStats, bool) {
	s := &serialSched{g: g, parks: newParkList(g.in.Procs)}
	for p, list := range g.deps.perProc {
		if len(list) > 0 {
			s.runnable = append(s.runnable, p)
		}
	}
	s.stats.noteDepth(len(s.runnable))
	for len(s.runnable) > 0 {
		p := s.runnable[0]
		s.runnable = s.runnable[1:]
		if blockedOn, finished := g.runShard(p, s); !finished {
			if blockedOn == shardCanceled {
				return s.stats, false
			}
			// Within one goroutine a dependency reported as blocking
			// cannot have resolved in the meantime; park directly.
			s.parks.park(p, blockedOn)
			s.stats.parks++
		}
	}
	return s.stats, g.remaining() == 0
}

// parSched coordinates worker goroutines: a shared runnable queue, park
// lists, and idle-detection. Shards publish resolved times with atomic
// stores (in runShard); the mutex serializes only park/wake transitions,
// which occur once per blocked dependency rather than once per event.
type parSched struct {
	g  *ebEngine
	mu sync.Mutex
	// cond signals workers waiting for runnable shards.
	cond       sync.Cond
	runnable   []int
	parks      *parkList
	running    int // shards currently held by workers
	unfinished int // shards with events left to resolve
	dead       bool
	canceled   bool       // context canceled: workers drain and exit
	stats      schedStats // guarded by mu
}

func newParSched(g *ebEngine) *parSched {
	s := &parSched{g: g, parks: newParkList(g.in.Procs)}
	s.cond.L = &s.mu
	return s
}

// cancelWorkers is called by the context watcher: it marks the run
// canceled and wakes every worker parked on the condition variable so the
// scheduler winds down promptly even when no shard is runnable.
func (s *parSched) cancelWorkers() {
	s.mu.Lock()
	s.canceled = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *parSched) publish(idx int) {
	s.mu.Lock()
	if len(s.parks.parked) > 0 {
		was := len(s.runnable)
		s.runnable = s.parks.wake(idx, s.runnable)
		if len(s.runnable) > was {
			s.stats.wakes += int64(len(s.runnable) - was)
			s.stats.noteDepth(len(s.runnable))
			s.cond.Broadcast()
		}
	}
	s.mu.Unlock()
}

func (s *parSched) worker() {
	s.mu.Lock()
	for {
		for len(s.runnable) == 0 && s.unfinished > 0 && !s.dead && !s.canceled {
			s.cond.Wait()
		}
		if s.dead || s.canceled || s.unfinished == 0 {
			s.mu.Unlock()
			return
		}
		p := s.runnable[0]
		s.runnable = s.runnable[1:]
		s.running++
		s.mu.Unlock()

		blockedOn, finished := s.g.runShard(p, s)

		s.mu.Lock()
		s.running--
		switch {
		case !finished && blockedOn == shardCanceled:
			// The stop flag interrupted the shard mid-run; the watcher
			// has set (or is about to set) canceled — mirror it here so
			// this worker and its peers exit without re-queuing the shard.
			s.canceled = true
			s.cond.Broadcast()
		case finished:
			s.unfinished--
			if s.unfinished == 0 {
				s.cond.Broadcast()
			}
		case s.g.isDone(blockedOn):
			// The dependency resolved between the blocked check and
			// the park; the shard is still runnable.
			s.runnable = append(s.runnable, p)
			s.stats.retries++
			s.stats.noteDepth(len(s.runnable))
		default:
			s.parks.park(p, blockedOn)
			s.stats.parks++
			if s.running == 0 && len(s.runnable) == 0 {
				// Every remaining shard is parked and no producer is
				// running: the dependencies can never resolve.
				s.dead = true
				s.cond.Broadcast()
			}
		}
	}
}

func (s *parSched) run(workers int) (schedStats, bool) {
	g := s.g
	for p, list := range g.deps.perProc {
		if len(list) > 0 {
			s.runnable = append(s.runnable, p)
			s.unfinished++
		}
	}
	s.stats.noteDepth(len(s.runnable))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
	// The context watcher may still be about to call cancelWorkers;
	// snapshot the outcome under the lock it uses.
	s.mu.Lock()
	st, ok := s.stats, !s.dead && !s.canceled
	s.mu.Unlock()
	return st, ok
}
