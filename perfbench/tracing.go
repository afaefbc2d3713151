package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/isa"
	"shotgun/internal/sim"
	"shotgun/internal/store"
	"shotgun/internal/workload"
)

// Tracing lives entirely in the benchmark's own files: spans are
// recorded around the calls into each layer — the store.Backend,
// dispatch.Executor/Sink and workload.Stream decorators below, plus the
// workloads' own call sites — never inside the program. A nil *tracer
// is tracing off; every method is a no-op on it.

// span is one timed interval at a layer boundary. Spans of one farm
// request share the request's content key in their ids.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer holds the spans and counters of one traced run in memory.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) span(name, id, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) add(counter string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[counter] += v
	t.mu.Unlock()
}

func (t *tracer) count(counter string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[counter]
}

// durations returns the durations (ms) of every span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// durationsByID returns the duration (ms) of every span with the name,
// by span id.
func (t *tracer) durationsByID(name string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.ID] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore decorates a store.Backend with spans: puts are children of
// the job run that produced them, key lookups of the request that made
// them.
type timedStore struct {
	store.Backend
	t *tracer
}

func (s timedStore) GetScenario(sc sim.Scenario) (sim.ScenarioResult, bool) {
	start := time.Now()
	res, ok := s.Backend.GetScenario(sc)
	key := store.ScenarioKey(sc)
	s.got(start, "run:"+key, ok)
	return res, ok
}

func (s timedStore) GetKey(key string) (store.Record, bool) {
	start := time.Now()
	rec, ok := s.Backend.GetKey(key)
	s.got(start, "req:"+key, ok)
	return rec, ok
}

func (s timedStore) got(start time.Time, parent string, hit bool) {
	s.t.span("store.get", "", parent, start, time.Now())
	s.t.add("store.gets", 1)
	if hit {
		s.t.add("store.hits", 1)
	}
}

func (s timedStore) PutScenario(sc sim.Scenario, res sim.ScenarioResult) error {
	start := time.Now()
	err := s.Backend.PutScenario(sc, res)
	key := store.ScenarioKey(sc)
	s.t.span("store.put", "put:"+key, "run:"+key, start, time.Now())
	return err
}

// timedSink decorates the server's dispatch.Sink: Enqueue → JobRunning
// is a job's queue wait, JobRunning → JobDone its run.
type timedSink struct {
	dispatch.Sink
	t *tracer

	mu       sync.Mutex
	enqueued map[string]time.Time
	running  map[string]time.Time
}

func (s *timedSink) JobRunning(key string) {
	now := time.Now()
	s.mu.Lock()
	start, ok := s.enqueued[key]
	s.running[key] = now
	s.mu.Unlock()
	if ok {
		s.t.span("dispatch.queue", "queue:"+key, "req:"+key, start, now)
	}
	s.Sink.JobRunning(key)
}

func (s *timedSink) JobDone(key string, res sim.ScenarioResult) {
	s.finish(key)
	s.Sink.JobDone(key, res)
}

func (s *timedSink) JobFailed(key, msg string) {
	s.finish(key)
	s.Sink.JobFailed(key, msg)
}

func (s *timedSink) finish(key string) {
	now := time.Now()
	s.mu.Lock()
	start, ok := s.running[key]
	delete(s.running, key)
	delete(s.enqueued, key)
	s.mu.Unlock()
	if ok {
		s.t.span("dispatch.run", "run:"+key, "req:"+key, start, now)
	}
}

// timedExec decorates the local executor, stamping each enqueue.
type timedExec struct {
	dispatch.Executor
	sink *timedSink
}

func (e timedExec) Enqueue(key string, sc sim.Scenario) error {
	e.sink.mu.Lock()
	e.sink.enqueued[key] = time.Now()
	e.sink.mu.Unlock()
	return e.Executor.Enqueue(key, sc)
}

// newTimedExecutor is a server.Config.NewExecutor building the classic
// local pool behind the timing decorators.
func newTimedExecutor(t *tracer, depth int) func(*harness.Runner, dispatch.Sink) dispatch.Executor {
	return func(r *harness.Runner, sink dispatch.Sink) dispatch.Executor {
		ts := &timedSink{Sink: sink, t: t, enqueued: map[string]time.Time{}, running: map[string]time.Time{}}
		return timedExec{Executor: dispatch.NewLocalPool(r, ts, depth), sink: ts}
	}
}

// timedStream decorates the stream handed to sim.RunStream, timing one
// Next call in sixteen (timing every call would cost as much as the
// call itself).
type timedStream struct {
	workload.Stream
	n, calls uint64
	ns       int64
}

func (s *timedStream) Next() isa.BasicBlock {
	s.n++
	if s.n&15 != 0 {
		return s.Stream.Next()
	}
	start := time.Now()
	bb := s.Stream.Next()
	s.ns += int64(time.Since(start))
	s.calls++
	return bb
}

// flush moves the stream's timings into the tracer.
func (s *timedStream) flush(t *tracer) {
	t.add("trace.next.ns", float64(s.ns))
	t.add("trace.next.calls", float64(s.calls))
}

// runtimeSample reads the allocation and GC CPU counters.
type runtimeSample struct {
	mallocs, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{mallocs: val(0), gcCPU: val(1), totalCPU: val(2)}
}
