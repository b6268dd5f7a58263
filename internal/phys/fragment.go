package phys

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
)

// Fragmenter drives a fresh Memory to a target FMFI, mimicking the
// open-source fragmentation tool the paper uses [1]. It works by pinning
// blocker pages: whole reference-order regions are either left fully free
// (usable for large allocations) or shredded into isolated free 4KB frames
// that can never coalesce.
type Fragmenter struct {
	mem *Memory
}

// NewFragmenter returns a fragmenter over mem. The memory should be fresh
// (nothing allocated) for the target FMFI to be reached accurately.
func NewFragmenter(mem *Memory) *Fragmenter { return &Fragmenter{mem: mem} }

// Fragment drives memory to approximately targetFMFI at refOrder, leaving
// freeFraction of the capacity free. rng controls which regions stay intact.
//
// With probability derived from the target, each refOrder-sized region is
// left fully free; the remaining regions are fully allocated and then have
// alternating 4KB frames freed so their free memory is maximally fragmented.
// FMFI(refOrder) = scatteredFree / totalFree, so:
//
//	intact fraction q satisfies  q = (1-target) * freeFraction
//	scatter density s satisfies  (1-q) * s = target * freeFraction
func (fr *Fragmenter) Fragment(targetFMFI, freeFraction float64, refOrder int, rng *rand.Rand) error {
	if targetFMFI < 0 || targetFMFI > 1 {
		return fmt.Errorf("phys: target FMFI %v out of [0,1]", targetFMFI)
	}
	if freeFraction <= 0 || freeFraction > 1 {
		return fmt.Errorf("phys: free fraction %v out of (0,1]", freeFraction)
	}
	if refOrder > fr.mem.maxOrder {
		return fmt.Errorf("phys: ref order %d exceeds max %d", refOrder, fr.mem.maxOrder)
	}
	regionFrames := uint64(1) << refOrder
	numRegions := fr.mem.frames / regionFrames
	if numRegions == 0 {
		return fmt.Errorf("phys: memory smaller than one region")
	}

	q := (1 - targetFMFI) * freeFraction
	s := 0.0
	if q < 1 {
		s = targetFMFI * freeFraction / (1 - q)
	}
	if s > 0.5 {
		return fmt.Errorf("phys: infeasible target (scatter density %.2f > 0.5); lower freeFraction", s)
	}

	// Pass 1: allocate every region at refOrder so we control the layout.
	regions := make([]addr.PPN, 0, numRegions)
	for i := uint64(0); i < numRegions; i++ {
		ppn, err := fr.mem.AllocOrder(refOrder)
		if err != nil {
			return fmt.Errorf("phys: fragmenter pass 1: %w", err)
		}
		regions = append(regions, ppn)
	}
	// Residual frames (capacity not a multiple of region size) stay free;
	// they are below refOrder so they only add scattered free memory.

	// Pass 2: decide each region's fate.
	intactWanted := int(q*float64(numRegions) + 0.5)
	perm := rng.Perm(int(numRegions))
	intact := make(map[int]bool, intactWanted)
	for _, idx := range perm[:intactWanted] {
		intact[idx] = true
	}
	// Scatter density: frames freed per shredded region, at even offsets so
	// no two are buddies.
	scatterPer := int(s*float64(regionFrames) + 0.5)
	if scatterPer > int(regionFrames/2) {
		scatterPer = int(regionFrames / 2)
	}

	for i, base := range regions {
		if intact[i] {
			fr.mem.Free(base, refOrder)
			continue
		}
		// Shredded region: free scatterPer isolated 4KB frames at even
		// offsets, keep the rest pinned.
		for _, off := range rng.Perm(int(regionFrames / 2))[:scatterPer] {
			fr.mem.Free(base+addr.PPN(2*off), 0)
		}
	}
	return nil
}
