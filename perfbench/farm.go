package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shotgun/internal/client"
	"shotgun/internal/harness"
	"shotgun/internal/server"
	"shotgun/internal/sim"
	"shotgun/internal/store"
)

// farm: a closed loop of two clients against an in-process server over
// a real httptest listener, LocalPool executor with two workers, and an
// on-disk store. The cold phase sends only new requests (simulated, then
// put); the server is then restarted over the same store and the warm
// phase repeats the cold requests (served by store lookups), batched,
// with every farmWarmNewEvery-th request a new one.
type farmBench struct {
	seed    uint64
	sz      size
	dir     string
	specDir string

	reqs []farmRequest
	// docs are the sweep documents by name.
	docs map[string][]byte
	// st is the store set-up opened; the first measured run uses it,
	// later ones open their own.
	st    *store.Store
	stDir string
	dirs  []string
}

func newFarm(o options, sz size) bench {
	return &farmBench{seed: o.seed, sz: sz, dir: o.outDir, specDir: o.specDir}
}

func (b *farmBench) close() {
	for _, d := range b.dirs {
		os.RemoveAll(d)
	}
}

// openStore opens an empty store in a fresh directory under the run's
// output directory.
func (b *farmBench) openStore() (*store.Store, string, time.Duration, error) {
	dir, err := os.MkdirTemp(b.dir, "farm-store-")
	if err != nil {
		return nil, "", 0, err
	}
	b.dirs = append(b.dirs, dir)
	start := time.Now()
	st, err := store.Open(dir)
	return st, dir, time.Since(start), err
}

func (b *farmBench) setup(st *setupTimes) error {
	buildPrograms(st)
	fs, err := loadSpecs(b.specDir)
	if err != nil {
		return err
	}
	b.docs = map[string][]byte{}
	for _, d := range fs.Sweeps {
		b.docs[d.Name] = d.Doc
	}
	b.reqs = genFarm(b.seed, b.sz, fs)
	s, dir, open, err := b.openStore()
	if err != nil {
		return err
	}
	st.storeOpenMs = float64(open) / 1e6
	b.st, b.stDir = s, dir
	return nil
}

// scale is the server's pinned simulation scale.
func (b *farmBench) scale() harness.Scale {
	return harness.Scale{WarmupInstr: b.sz.farmWarmup, MeasureInstr: b.sz.farmMeasure, Samples: 1}
}

// instrOf is the simulated instruction budget one request delivers at
// the pinned scale.
func (b *farmBench) instrOf(r farmRequest) uint64 {
	return uint64(r.Cores) * (b.sz.farmWarmup + b.sz.farmMeasure)
}

// coldResult is what the cold phase kept of one completed request: the
// scenario's content key and its result body, or a sweep's response.
type coldResult struct {
	key   string
	body  []byte
	sweep bool
}

// farmServer is one life of the service.
type farmServer struct {
	srv *server.Server
	hs  *httptest.Server
	cl  *client.Client
	tr  *http.Transport
}

// statusCounter counts responses outside 2xx.
type statusCounter struct {
	rt     http.RoundTripper
	non2xx atomic.Int64
}

func (c *statusCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		c.non2xx.Add(1)
	}
	return resp, err
}

func (b *farmBench) start(backend store.Backend, t *tracer, counter *statusCounter) *farmServer {
	cfg := server.Config{Scale: b.scale(), ScaleName: "bench", Workers: 2, Store: backend}
	if t != nil {
		cfg.Store = timedStore{Backend: backend, t: t}
		cfg.NewExecutor = newTimedExecutor(t, 4096)
	}
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	counter.rt = tr
	cl := client.New(hs.URL, client.WithHTTPClient(&http.Client{Transport: counter}))
	return &farmServer{srv: srv, hs: hs, cl: cl, tr: tr}
}

func (f *farmServer) stop() {
	f.hs.Close()
	f.srv.Close()
	f.tr.CloseIdleConnections()
}

// answer is one completed request: one result body per request it
// carried (a scenario result, or the sweep response), the scenario
// results themselves, and its outcome.
type answer struct {
	keys   []string
	bodies [][]byte
	res    []sim.ScenarioResult
	lat    time.Duration
	polls  int
}

// pollEvery is how often a client polls a pending scenario.
const pollEvery = time.Millisecond

// do sends one request — a sweep, or one submit of a batch of scenarios
// — and waits until every result is ready.
func (f *farmServer) do(ctx context.Context, batch []farmRequest, doc []byte, t *tracer, phaseName string) (answer, error) {
	start := time.Now()
	if batch[0].Sweep != "" {
		body, err := f.cl.Sweep(ctx, doc, "json")
		end := time.Now()
		t.span("spec.sweep", "", phaseName, start, end)
		return answer{bodies: [][]byte{body}, lat: end.Sub(start)}, err
	}
	scs := make([]sim.Scenario, len(batch))
	for i, r := range batch {
		scs[i] = r.Scenario
	}
	sts, err := f.cl.SubmitScenarios(ctx, scs)
	t.span("server.submit", "", "", start, time.Now())
	if err != nil {
		return answer{}, err
	}
	if len(sts) != len(scs) {
		return answer{}, fmt.Errorf("submit answered %d statuses for %d scenarios", len(sts), len(scs))
	}
	var a answer
	for i, st := range sts {
		for st.Status != client.StatusDone && st.Status != client.StatusFailed {
			time.Sleep(pollEvery)
			pollStart := time.Now()
			st, err = f.cl.Scenario(ctx, st.Key)
			t.span("server.poll", "", "req:"+st.Key, pollStart, time.Now())
			a.polls++
			if err != nil {
				return a, err
			}
		}
		if st.Status == client.StatusFailed || st.Result == nil {
			return a, fmt.Errorf("scenario %s failed: %s", st.Key, st.Error)
		}
		sts[i] = st
	}
	end := time.Now()
	t.span(phaseName, "req:"+sts[0].Key, "", start, end)
	a.lat = end.Sub(start)
	// The bodies the checks compare are made outside the timed request.
	for _, st := range sts {
		body, err := json.Marshal(st.Result)
		if err != nil {
			return a, err
		}
		a.keys = append(a.keys, st.Key)
		a.bodies = append(a.bodies, body)
		a.res = append(a.res, *st.Result)
	}
	return a, nil
}

// farmPhase drives the two clients over a sequence of requests until
// the deadline, never stopping before min requests. Each request carries
// the pool requests next names: one sweep or a batch of scenarios. done
// receives every completed request, one at a time; an error from it is
// a failed correctness check and ends the run.
type farmPhase struct {
	name     string
	next     func(i int) (idxs []int, ok bool)
	min      int
	deadline time.Time
	done     func(idxs []int, a answer) error
}

// drive runs one phase and returns how many requests completed.
func (b *farmBench) drive(ctx context.Context, f *farmServer, ph farmPhase, t *tracer, o *outcome) (int, error) {
	var (
		mu        sync.Mutex
		completed int
		firstErr  error
		checkErr  error
		counter   atomic.Int64
		wg        sync.WaitGroup
	)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(counter.Add(1) - 1)
				if i >= ph.min && time.Now().After(ph.deadline) {
					return
				}
				idxs, ok := ph.next(i)
				if !ok {
					return
				}
				batch := make([]farmRequest, len(idxs))
				for j, idx := range idxs {
					batch[j] = b.reqs[idx]
				}
				a, err := f.do(ctx, batch, b.docs[batch[0].Sweep], t, ph.name)
				mu.Lock()
				o.attempted++
				switch {
				case err != nil:
					o.failed++
					if firstErr == nil {
						firstErr = err
					}
				case checkErr == nil:
					completed++
					checkErr = ph.done(idxs, a)
				}
				stop := checkErr != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if checkErr != nil {
		return completed, checkErr
	}
	if completed == 0 {
		return 0, fmt.Errorf("%s: no request completed: %v", ph.name, firstErr)
	}
	return completed, nil
}

func (b *farmBench) run(d time.Duration, t *tracer) (*outcome, error) {
	o := newOutcome("farm.cold", "farm.warm")
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()

	st, dir := b.st, b.stDir
	if st == nil {
		var err error
		if st, dir, _, err = b.openStore(); err != nil {
			return nil, err
		}
	}
	b.st = nil // a store serves one run

	// Cold phase: every request is new, one scenario or sweep each. Its
	// result bodies are kept: the warm phase compares against them and
	// the digest hashes a prefix.
	var (
		cold   = map[int]coldResult{}
		maxIdx int
		work   modelled
		cycles float64
		polls  int
	)
	pinned := b.scale()
	counter := &statusCounter{}
	begin, cpu0 := time.Now(), cpuTime()
	f := b.start(st, t, counter)
	nCold, err := b.drive(ctx, f, farmPhase{
		name: "farm.cold",
		next: func(i int) ([]int, bool) { return []int{i}, i < len(b.reqs) },
		min:  b.sz.farmMinCold, deadline: begin.Add(d * 6 / 10),
		done: func(idxs []int, a answer) error {
			idx := idxs[0]
			maxIdx = max(maxIdx, idx)
			polls += a.polls
			o.p1.instr += float64(b.instrOf(b.reqs[idx]))
			if len(a.res) == 0 {
				cold[idx] = coldResult{body: a.bodies[0], sweep: true}
				return nil
			}
			cold[idx] = coldResult{key: a.keys[0], body: a.bodies[0]}
			o.p1.lat = append(o.p1.lat, float64(a.lat)/1e6)
			for _, r := range a.res[0].Cores {
				work.add(r)
				cycles += coreCycles(r, sim.Config{WarmupInstr: pinned.WarmupInstr, MeasureInstr: pinned.MeasureInstr})
			}
			return b.check(b.reqs[idx].Scenario, a.res[0])
		},
	}, t, o)
	o.p1.dur, o.p1.cpu = time.Since(begin), cpuTime()-cpu0
	f.stop()
	if err != nil {
		return nil, err
	}
	// The cold phase's garbage is collected outside both phases, so the
	// warm phase starts from the same heap whatever the cold phase left.
	runtime.GC()

	// The digest covers the first farmMinCold requests of the pool, all
	// of which the cold phase always completes.
	dig := newDigester()
	for i := 0; i < b.sz.farmMinCold; i++ {
		c, ok := cold[i]
		if !ok {
			return nil, fmt.Errorf("cold phase did not complete request %d", i)
		}
		dig.add(json.RawMessage(c.body))
	}
	o.digest = dig.sum()

	// Warm phase: restart over the same store and repeat the completed
	// cold requests, each sweep alone and the scenarios farmWarmBatch to
	// a submit, with a new scenario every farmWarmNewEvery-th request.
	start := time.Now()
	reopened, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	o.record["store_reopen_ms"] = float64(time.Since(start)) / 1e6
	o.record["store_records"] = reopened.Len()
	var replay [][]int
	var batch []int
	for i := 0; i <= maxIdx; i++ {
		c, ok := cold[i]
		switch {
		case !ok:
		case c.sweep:
			replay = append(replay, []int{i})
		default:
			if batch = append(batch, i); len(batch) == b.sz.farmWarmBatch {
				replay = append(replay, batch)
				batch = nil
			}
		}
	}
	if len(replay) == 0 {
		replay = append(replay, batch)
	}
	fresh := maxIdx + 1
	var freshMu sync.Mutex
	warmBegin, cpu0 := time.Now(), cpuTime()
	f = b.start(reopened, t, counter)
	nWarm, err := b.drive(ctx, f, farmPhase{
		name: "farm.warm",
		next: func(i int) ([]int, bool) {
			if (i+1)%b.sz.farmWarmNewEvery == 0 {
				freshMu.Lock()
				defer freshMu.Unlock()
				if fresh < len(b.reqs) {
					fresh++
					return []int{fresh - 1}, true
				}
			}
			return replay[i%len(replay)], true
		},
		min: b.sz.farmMinCold, deadline: begin.Add(d),
		done: func(idxs []int, a answer) error {
			polls += a.polls
			for j, idx := range idxs {
				o.p2.instr += float64(b.instrOf(b.reqs[idx]))
				if c, ok := cold[idx]; ok && !bytes.Equal(c.body, a.bodies[j]) {
					return fmt.Errorf("warm result of request %d differs from its cold result", idx)
				}
			}
			if len(a.res) == 0 {
				return nil
			}
			o.p2.lat = append(o.p2.lat, float64(a.lat)/1e6)
			for j, idx := range idxs {
				if err := b.check(b.reqs[idx].Scenario, a.res[j]); err != nil {
					return err
				}
			}
			return nil
		},
	}, t, o)
	o.p2.dur, o.p2.cpu = time.Since(warmBegin), cpuTime()-cpu0
	f.stop()
	if err != nil {
		return nil, err
	}

	work.into(o.layer)
	if t != nil {
		// Host time of the cold scenario jobs whose cycles were counted.
		runMs := t.durationsByID("dispatch.run")
		var ns float64
		for _, c := range cold {
			if !c.sweep {
				ns += runMs["run:"+c.key] * 1e6
			}
		}
		o.layer["sim.host_ns_per_core_cycle"] = ns / cycles
	}
	o.layer["farm.cold_p50_ms"] = quantile(o.p1.lat, 0.5)
	o.layer["farm.cold_p95_ms"] = quantile(o.p1.lat, 0.95)
	o.layer["farm.warm_p50_ms"] = quantile(o.p2.lat, 0.5)
	o.layer["farm.warm_p95_ms"] = quantile(o.p2.lat, 0.95)
	o.layer["farm.req_per_s"] = float64(nCold+nWarm) / (o.p1.dur + o.p2.dur).Seconds()
	o.layer["server.polls_per_req"] = float64(polls) / float64(len(o.p1.lat)+len(o.p2.lat))
	o.layer["server.http_non2xx"] = float64(counter.non2xx.Load())
	o.record["cold_requests"] = nCold
	o.record["warm_requests"] = nWarm
	o.simInstr = o.p1.instr
	return o, nil
}

// check applies the result invariants to a farm result at the pinned
// scale.
func (b *farmBench) check(sc sim.Scenario, res sim.ScenarioResult) error {
	pinned := sim.Scenario{Cores: make([]sim.Config, len(sc.Cores)), LLCSizeBytes: sc.LLCSizeBytes}
	for i, c := range sc.Cores {
		c.MeasureInstr = b.sz.farmMeasure
		pinned.Cores[i] = c
	}
	return checkScenario(pinned, res)
}
