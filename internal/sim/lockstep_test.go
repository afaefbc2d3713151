package sim

import "testing"

// runLockstep is the test oracle of the event kernel: it drives N cores
// cycle-by-cycle over one shared uncore. All cores tick in round-robin
// within each cycle, so their clocks never drift by more than one cycle
// and shared-resource contention (LLC occupancy, mesh backlog) is
// time-coherent. A core that finishes its schedule keeps ticking — still
// generating real traffic — until every core has finished measuring, but
// its extra work is never accumulated.
//
// Production runs every exact simulation on the event kernel (event.go);
// TestEventKernelMatchesLockstep pins the two executions to bit-equal
// results. Keep both loops' semantics in sync.
func runLockstep(sc Scenario) (ScenarioResult, error) {
	states, err := buildStates(sc, nil)
	if err != nil {
		return ScenarioResult{}, err
	}

	// live counts cores still walking their schedule; finished cores
	// keep ticking (real traffic) until the round in which the last
	// core finishes, exactly like the rescan-every-cycle formulation
	// but without the per-cycle O(N) scan.
	live := len(states)
	for live > 0 {
		for _, cs := range states {
			cs.c.Tick()
			if cs.done {
				continue
			}
			cs.step()
			if cs.done {
				live--
			}
		}
	}
	return results(states), nil
}

// runExact runs a normalized exact scenario through the production path
// (buildStates, then the event kernel) in runLockstep's signature, so
// tests can drive both engines side by side.
func runExact(sc Scenario) (ScenarioResult, error) { return simulate(sc, nil) }

func BenchmarkEngineLockstep8Core(b *testing.B) { benchEngine(b, runLockstep) }
