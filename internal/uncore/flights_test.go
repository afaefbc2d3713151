package uncore

import (
	"testing"

	"shotgun/internal/isa"
)

// TestFlightTableMatchesMap drives the in-flight index and a Go map
// through the same random puts and removes, past several doublings and
// back down, over blocks that collide in the table's low bits, and
// requires the same membership for every block after every operation.
func TestFlightTableMatchesMap(t *testing.T) {
	tab := newFlightTable()
	ref := map[isa.Addr]*flight{}
	const universe = 1200
	block := func(i uint64) isa.Addr { return isa.Addr(i*4096+i%3) * isa.BlockBytes }
	x := uint64(7)
	for op := 0; op < 20000; op++ {
		x = x*6364136223846793005 + 1442695040888963407
		b := block((x >> 33) % universe)
		// Fill up for the first half, drain for the second.
		fill := (x>>20)%4 != 0
		if op >= 10000 {
			fill = !fill
		}
		if fl, ok := ref[b]; ok {
			if !fill {
				tab.remove(b)
				delete(ref, b)
			} else if got, _ := tab.get(b); got != fl {
				t.Fatalf("op %d: get(%v) = %p, want %p", op, b, got, fl)
			}
		} else if fill {
			fl := &flight{block: b}
			tab.put(fl)
			ref[b] = fl
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: %d entries, want %d", op, tab.n, len(ref))
		}
		if op%97 == 0 {
			for i := uint64(0); i < universe; i++ {
				got, ok := tab.get(block(i))
				if want, wok := ref[block(i)]; ok != wok || got != want {
					t.Fatalf("op %d: get(%v) = (%p, %v), want (%p, %v)", op, block(i), got, ok, want, wok)
				}
			}
		}
	}
	if len(tab.slots) <= 2*flightReserve {
		t.Fatalf("table never grew: %d slots", len(tab.slots))
	}
}

// TestFillsWithinReserveAllocateNothing keeps a hierarchy's fills at
// flightReserve in flight while they arrive and requires no
// allocation: the flight pool, heap, arrival buffer and index are all
// sized up front.
func TestFillsWithinReserveAllocateNothing(t *testing.T) {
	h := New(DefaultConfig())
	now := uint64(0)
	next := uint64(0)
	peak := 0
	churn := func() {
		for i := 0; i < 4*flightReserve; i++ {
			for h.InflightCount() < flightReserve {
				h.PrefetchBlock(now, isa.Addr(next*isa.BlockBytes))
				next++
			}
			peak = max(peak, h.InflightCount())
			now += 3
			h.PollArrivals(now)
		}
	}
	churn() // the first pass fills the caches' sets, which allocates nothing either
	// One run of five passes: AllocsPerRun truncates its mean per run, so
	// only a single run counts every allocation.
	allocs := testing.AllocsPerRun(1, func() {
		for range 5 {
			churn()
		}
	})
	if allocs != 0 {
		t.Fatalf("fills within the reserve allocate %.0f times", allocs)
	}
	if peak != flightReserve {
		t.Fatalf("peak of %d fills in flight, want %d", peak, flightReserve)
	}
}

// TestFlightTableRemoveAcrossWrap removes the head of a probe run that
// wraps past the table's last slot: the entries that wrapped to the
// front must move back and stay reachable.
func TestFlightTableRemoveAcrossWrap(t *testing.T) {
	tab := newFlightTable()
	last := len(tab.slots) - 1
	var run []isa.Addr // blocks whose home is the last slot
	for n := uint64(0); len(run) < 3; n++ {
		if b := isa.Addr(n * isa.BlockBytes); tab.home(b) == last {
			run = append(run, b)
		}
	}
	for _, b := range run {
		tab.put(&flight{block: b})
	}
	tab.remove(run[0])
	for _, b := range run[1:] {
		if _, ok := tab.get(b); !ok {
			t.Fatalf("block %v lost after removing %v", b, run[0])
		}
	}
	if _, ok := tab.get(run[0]); ok {
		t.Fatalf("removed block %v still found", run[0])
	}
}
