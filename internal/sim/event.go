// The event-driven kernel: the one driver of every exact simulation,
// from the single-core Run to 256-core scenarios. It advances a shared
// clock straight to the next pending event and ticks only the cores that
// are active in that cycle, so cost scales with events rather than with
// cycles × cores — most cores spend most cycles stalled on L1-I/LLC
// fills, the common case the paper studies.
//
// Its reference is a lockstep loop that ticks every core every cycle,
// kept as the test oracle in lockstep_test.go. Bit-identity with it is
// the design invariant, not an approximation target:
//
//   - Activity: core.NextEvent returns the earliest cycle at which the
//     core's Tick does anything beyond idle accounting. The kernel keeps
//     one cached deadline per core and only ever ticks a core at exactly
//     that cycle, so every skipped cycle is provably idle.
//   - Idle accounting: an idle Tick mutates nothing but the stall
//     counters, Cycles and the clock, and touches no shared state
//     (PollArrivals early-returns on the next-arrival watermark, the
//     mesh fluid queue integrates lazily inside Traverse, the caches
//     are time-free). core.AdvanceIdle bulk-applies exactly that, so a
//     core catching up over a skipped span lands in the same state a
//     cycle-by-cycle execution would reach.
//   - Interleaving: within an event cycle, active cores tick in the
//     same canonical index order the lockstep loop uses, so the shared
//     LLC and mesh observe the identical (cycle, core) call sequence.
//   - Isolation of deadlines: one core's activity can change another's
//     *future* latencies (LLC eviction, mesh backlog) but never an
//     already-pending deadline — those are fixed timestamps (fill
//     completion, stall expiry, ROB head completion) — so cached
//     deadlines of idle cores stay valid between their ticks.
//
// TestEventKernelMatchesLockstep holds the two bit-equal across core
// counts, context counts and all mechanisms, and the golden corpus pins
// the results at scale.

package sim

// runEvent drives built per-core states (buildStates) through their
// phase schedules on the event kernel.
func runEvent(states []*coreState) ScenarioResult {
	k := newKernel(states)
	for k.live > 0 {
		k.step()
	}
	return results(states)
}

// kernel is the event kernel between event cycles. Like the lockstep
// loop, finished cores keep running — their traffic is real — until the
// event cycle in which the last live core finishes its schedule.
type kernel struct {
	states []*coreState
	// next[i] caches core i's pending-event deadline; a core is ticked
	// only in the cycle its deadline names.
	next []uint64
	// clock is the earliest deadline in next: the next event cycle.
	clock uint64
	// live counts cores whose phase schedule is unfinished.
	live int
}

func newKernel(states []*coreState) *kernel {
	k := &kernel{states: states, next: make([]uint64, len(states)), clock: ^uint64(0), live: len(states)}
	for i, cs := range states {
		k.next[i] = cs.c.NextEvent()
		k.clock = min(k.clock, k.next[i])
	}
	return k
}

// step runs one event cycle: the clock jumps to the earliest pending
// deadline and every core due in it ticks, in index order. The same scan
// finds the following event cycle: a tick moves only its own core's
// deadline, so the minimum over next as the scan passes each core is
// the minimum after the whole cycle.
func (k *kernel) step() {
	clock := k.clock
	if clock == ^uint64(0) {
		// NextEvent always has a finite deadline for a core with trace
		// left; reaching here means its contract broke.
		panic("sim: event kernel stalled with no pending event")
	}
	next := k.next
	soonest := ^uint64(0)
	for i, cs := range k.states {
		// next[i] >= clock for every core (clock is the minimum), so
		// this picks exactly the cores whose deadline is due.
		if next[i] == clock {
			c := cs.c
			// Lazy catch-up: account the idle span since the core's
			// last tick, then run the one active cycle.
			if lag := clock - c.Now(); lag > 0 {
				c.AdvanceIdle(lag)
			}
			c.Tick()
			if !cs.done {
				cs.step()
				if cs.done {
					k.live--
				}
			}
			next[i] = c.NextEvent()
		}
		soonest = min(soonest, next[i])
	}
	k.clock = soonest
}
