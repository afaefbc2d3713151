package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sync/atomic"

	"shotgun/internal/sim"
	"shotgun/internal/uncore"
)

// retireWidth is the modelled core's retire width (core.Config's
// default): no result may retire more instructions per cycle.
const retireWidth = 3

// prefetchCarry bounds, per measured window, the prefetches issued
// before the window (and so not counted as issued in it) that a demand
// fetch may still use inside it: the prefetch buffer holds at most this
// many such blocks when the window opens. Fills then in flight could add
// more, but no run of the benchmark has shown any; the largest excess a
// run sees is recorded as prefetch_excess_max in its run record.
var prefetchCarry = uint64(uncore.DefaultConfig().PrefetchBufferEntries)

// prefetchExcess is the largest amount by which useful prefetches have
// exceeded issued ones in a checked result since the run began.
var prefetchExcess atomic.Int64

// checkResult enforces the accounting invariants every simulated result
// must satisfy, whatever the seed. measured is the measured-instruction
// budget the run was given (0 skips that check, as for sampled runs).
func checkResult(r sim.Result, measured uint64) error {
	c, h := r.Core, r.Hier
	useful := h.DemandPrefBufHits + h.PrefetchUsefulInflight
	if excess := int64(useful) - int64(h.PrefetchesIssued); excess > prefetchExcess.Load() {
		prefetchExcess.Store(excess)
	}
	windows := uint64(1)
	if r.Sampled != nil {
		windows = uint64(r.Sampled.Units)
	}
	switch {
	case c.Instructions < measured:
		return fmt.Errorf("%s/%s retired %d instructions, below its %d budget", r.Workload, r.Mechanism, c.Instructions, measured)
	case c.Cycles == 0 || c.Instructions == 0:
		return fmt.Errorf("%s/%s simulated nothing", r.Workload, r.Mechanism)
	case r.IPC() > retireWidth:
		return fmt.Errorf("%s/%s IPC %.3f exceeds the retire width %d", r.Workload, r.Mechanism, r.IPC(), retireWidth)
	case c.FrontEndStallCycles+c.BackEndStallCycles > c.Cycles:
		return fmt.Errorf("%s/%s stall cycles %d+%d exceed %d cycles", r.Workload, r.Mechanism,
			c.FrontEndStallCycles, c.BackEndStallCycles, c.Cycles)
	case h.DemandL1IHits+h.DemandPrefBufHits+h.DemandInflight+h.DemandLLCHits+h.DemandMemFills != h.DemandFetches:
		return fmt.Errorf("%s/%s demand-fetch sources do not sum to %d fetches: %+v", r.Workload, r.Mechanism, h.DemandFetches, h)
	case useful > h.PrefetchesIssued+windows*prefetchCarry:
		return fmt.Errorf("%s/%s useful prefetches %d exceed the %d issued by more than %d carried into %d windows",
			r.Workload, r.Mechanism, useful, h.PrefetchesIssued, windows*prefetchCarry, windows)
	}
	return nil
}

// checkScenario applies checkResult to every core of a scenario result.
func checkScenario(sc sim.Scenario, res sim.ScenarioResult) error {
	if len(res.Cores) != len(sc.Cores) {
		return fmt.Errorf("scenario of %d cores returned %d results", len(sc.Cores), len(res.Cores))
	}
	for i, r := range res.Cores {
		if err := checkResult(r, sc.Cores[i].MeasureInstr); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// digester hashes simulated statistics in a fixed order.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // results are plain structs of numbers and strings
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

//go:embed digests.json
var digestsJSON []byte

// checkDigest compares a default-seed run's digest with the pinned one:
// a change to any simulated number fails the run.
func checkDigest(workload, got string) error {
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if w, ok := want[workload]; !ok || w != got {
		return fmt.Errorf("simulated statistics of %s at seed %d changed: digest %s, pinned %q", workload, defaultSeed, got, w)
	}
	return nil
}
