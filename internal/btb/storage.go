package btb

import "fmt"

// Per-entry storage costs in bits, from Section 5.2 of the paper.
const (
	// ConventionalEntryBits: 37 tag + 46 target + 5 size + 3 type +
	// 2 direction.
	ConventionalEntryBits = 93
	// UEntryBaseBits excludes the two footprints (added per layout):
	// 38 tag + 46 target + 5 size + 1 type.
	UEntryBaseBits = 90
	// CEntryBits: 41 tag + 22 target offset + 5 size + 2 direction.
	CEntryBits = 70
	// REntryBits: 39 tag + 5 size + 1 type.
	REntryBits = 45
)

// ShotgunSizesForBudget returns the Shotgun structure capacities whose
// combined storage matches a conventional BTB of the given entry count,
// following Section 6.5: the baseline 2K budget maps to 1.5K U-BTB +
// 128 C-BTB + 512 RIB; 512-4K budgets scale those proportionally; the 8K
// budget caps the U-BTB at 4K entries (Figure 4 shows that suffices for
// the whole unconditional working set) and spends the remainder on a 1K
// RIB and 4K C-BTB.
func ShotgunSizesForBudget(conventionalEntries int) (Sizes, error) {
	switch conventionalEntries {
	case 512:
		return Sizes{UEntries: 384, CEntries: 32, REntries: 128}, nil
	case 1024:
		return Sizes{UEntries: 768, CEntries: 64, REntries: 256}, nil
	case 2048:
		return Sizes{UEntries: 1536, CEntries: 128, REntries: 512}, nil
	case 4096:
		return Sizes{UEntries: 3072, CEntries: 256, REntries: 1024}, nil
	case 8192:
		return Sizes{UEntries: 4096, CEntries: 4096, REntries: 1024}, nil
	}
	return Sizes{}, fmt.Errorf("btb: no Shotgun size mapping for %d-entry budget", conventionalEntries)
}

// MustShotgunSizesForBudget panics on unknown budgets.
func MustShotgunSizesForBudget(conventionalEntries int) Sizes {
	s, err := ShotgunSizesForBudget(conventionalEntries)
	if err != nil {
		panic(err)
	}
	return s
}

// ConventionalStorageBits returns the bit cost of an n-entry conventional
// BTB.
func ConventionalStorageBits(n int) int { return n * ConventionalEntryBits }

// ShotgunSizesNoRIB returns a Shotgun configuration without a dedicated
// RIB at the same storage budget: returns occupy full U-BTB entries
// (whose Target and both footprint fields go unused — the inefficiency
// Section 4.2.1 quantifies at >50% of entry storage), so the freed RIB
// bits buy U-BTB entries instead. Used by the RIB ablation benchmark.
func ShotgunSizesNoRIB(conventionalEntries int) (Sizes, error) {
	base, err := ShotgunSizesForBudget(conventionalEntries)
	if err != nil {
		return Sizes{}, err
	}
	uBits := UEntryBaseBits + 16 // 8-bit footprints
	u := GrowUEntries(base.UEntries, base.REntries*REntryBits, uBits)
	return Sizes{UEntries: u, CEntries: base.CEntries, REntries: 0}, nil
}

// GrowUEntries spends freedBits of storage on more U-BTB entries of
// entryBits each, rounding down to the largest entry count a table can
// factor into ways x power-of-two sets. It returns entries unchanged
// when no larger count up to the budget factors.
func GrowUEntries(entries, freedBits, entryBits int) int {
	for n := entries + freedBits/entryBits; n > entries; n-- {
		if _, _, err := geometry(n); err == nil {
			return n
		}
	}
	return entries
}
