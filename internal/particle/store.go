package particle

import (
	"fmt"
	"sort"

	"pscluster/internal/geom"
)

// Store holds the particles of one (system, calculator) pair: the slice
// of the system's particles whose coordinate along the split axis falls
// in the process's domain interval [Lo, Hi).
//
// Instead of one flat vector, the domain is broken into sub-domain bins,
// each stored separately (paper §4): exchange detection only touches the
// particles that actually moved out of the interval, and load-balancing
// donation only needs to sort the edge bins rather than the whole
// domain.
//
// Store is the array-of-structs layout. The engines run on ColumnStore;
// Store remains as the view StoreActions work on (ColumnStore.WithStore),
// the store of the Sims baseline, and the reference ColumnStore's
// equivalence tests compare against.
type Store struct {
	axis   geom.Axis
	lo, hi float64
	bins   [][]Particle
	count  int
}

// NewStore returns an empty store for the interval [lo, hi) along axis,
// split into nbins sub-domains. nbins must be at least 1 and lo < hi.
func NewStore(axis geom.Axis, lo, hi float64, nbins int) *Store {
	if nbins < 1 {
		panic("particle: NewStore needs at least one bin")
	}
	if hi < lo {
		panic(fmt.Sprintf("particle: NewStore with reversed interval [%g, %g)", lo, hi))
	}
	lo, hi = widenDegenerate(lo, hi)
	return &Store{axis: axis, lo: lo, hi: hi, bins: make([][]Particle, nbins)}
}

// minWidth is the smallest domain extent a store represents. Load
// balancing can donate a process's entire domain, collapsing its
// interval to a point; the store keeps a sliver so binning stays
// well-defined (no particle can fall in it, since ownership is decided
// by the global domain table).
const minWidth = 1e-9

func widenDegenerate(lo, hi float64) (float64, float64) {
	if hi-lo < minWidth {
		hi = lo + minWidth
	}
	return lo, hi
}

// Axis returns the split axis.
func (s *Store) Axis() geom.Axis { return s.axis }

// Bounds returns the domain interval [lo, hi).
func (s *Store) Bounds() (lo, hi float64) { return s.lo, s.hi }

// Len returns the number of stored particles.
func (s *Store) Len() int { return s.count }

// NumBins returns the number of sub-domain bins.
func (s *Store) NumBins() int { return len(s.bins) }

// BinCounts returns the particle count of each sub-domain bin.
func (s *Store) BinCounts() []int {
	c := make([]int, len(s.bins))
	for i, b := range s.bins {
		c[i] = len(b)
	}
	return c
}

// binIndex maps an axis coordinate to a bin, clamping coordinates at the
// domain edges into the edge bins so that Add never loses a particle.
func (s *Store) binIndex(c float64) int {
	return binIndexIn(s.lo, s.hi, len(s.bins), c)
}

// binIndexIn maps an axis coordinate to one of nbins bins over
// [lo, hi), clamping out-of-range coordinates into the edge bins. Both
// store layouts use this one function so their binning arithmetic
// cannot drift apart.
func binIndexIn(lo, hi float64, nbins int, c float64) int {
	f := (c - lo) / (hi - lo)
	i := int(f * float64(nbins))
	if i < 0 {
		i = 0
	}
	if i >= nbins {
		i = nbins - 1
	}
	return i
}

// Add stores one particle, binning it by its axis coordinate.
func (s *Store) Add(p Particle) {
	i := s.binIndex(p.Pos.Component(s.axis))
	s.bins[i] = append(s.bins[i], p)
	s.count++
}

// AddSlice stores every particle in ps.
func (s *Store) AddSlice(ps []Particle) {
	for i := range ps {
		s.Add(ps[i])
	}
}

// AddBatch stores every particle of b.
func (s *Store) AddBatch(b *Batch) {
	for i := 0; i < b.Len(); i++ {
		s.Add(b.At(i))
	}
}

// ForEach calls fn for every stored particle; fn may mutate the particle
// in place (property and position actions do). Iteration order is
// deterministic: bins in order, insertion order within a bin.
func (s *Store) ForEach(fn func(*Particle)) {
	for bi := range s.bins {
		b := s.bins[bi]
		for i := range b {
			fn(&b[i])
		}
	}
}

// EachBatch calls fn once per non-empty bin with the bin's particles
// copied into a scratch Batch, writing mutated values back afterwards.
// fn must not grow or shrink the batch.
func (s *Store) EachBatch(fn func(*Batch)) {
	var tmp Batch
	for bi := range s.bins {
		bin := s.bins[bi]
		if len(bin) == 0 {
			continue
		}
		tmp.Clear()
		tmp.AppendSlice(bin)
		fn(&tmp)
		for i := range bin {
			bin[i] = tmp.At(i)
		}
	}
}

// All returns a copy of every stored particle, in deterministic order.
func (s *Store) All() []Particle {
	out := make([]Particle, 0, s.count)
	for _, b := range s.bins {
		out = append(out, b...)
	}
	return out
}

// Clear removes all particles, keeping the domain interval.
func (s *Store) Clear() {
	for i := range s.bins {
		s.bins[i] = s.bins[i][:0]
	}
	s.count = 0
}

// RemoveDead drops every particle marked Dead and returns how many were
// removed.
func (s *Store) RemoveDead() int {
	removed := 0
	for bi := range s.bins {
		b := s.bins[bi]
		kept := b[:0]
		for i := range b {
			if b[i].Dead {
				removed++
				continue
			}
			kept = append(kept, b[i])
		}
		s.bins[bi] = kept
	}
	s.count -= removed
	return removed
}

// Partition removes and returns every particle whose axis coordinate has
// left the domain interval, and re-bins the particles that moved between
// sub-domains. This is the end-of-frame step of the model (§3.1.5): the
// returned particles must be sent to their new owner processes.
func (s *Store) Partition() []Particle {
	var out, moved []Particle
	for bi := range s.bins {
		b := s.bins[bi]
		kept := b[:0]
		for i := range b {
			c := b[i].Pos.Component(s.axis)
			switch {
			case c < s.lo || c >= s.hi:
				out = append(out, b[i])
			case s.binIndex(c) != bi:
				// Moved to another sub-domain: re-add after the scan to
				// avoid disturbing the slices being compacted.
				moved = append(moved, b[i])
			default:
				kept = append(kept, b[i])
			}
		}
		s.bins[bi] = kept
	}
	s.count = 0
	for _, b := range s.bins {
		s.count += len(b)
	}
	s.AddSlice(moved)
	return out
}

// PartitionOwned removes and returns every particle for which keep
// reports false, re-binning survivors that moved between sub-domains —
// Partition generalized from the axis-interval test to an arbitrary
// ownership predicate (non-slab decompositions own regions no single
// interval describes). Scan, output and re-add orders match Partition
// exactly.
func (s *Store) PartitionOwned(keep func(geom.Vec3) bool) []Particle {
	var out, moved []Particle
	for bi := range s.bins {
		b := s.bins[bi]
		kept := b[:0]
		for i := range b {
			switch {
			case !keep(b[i].Pos):
				out = append(out, b[i])
			case s.binIndex(b[i].Pos.Component(s.axis)) != bi:
				moved = append(moved, b[i])
			default:
				kept = append(kept, b[i])
			}
		}
		s.bins[bi] = kept
	}
	s.count = 0
	for _, b := range s.bins {
		s.count += len(b)
	}
	s.AddSlice(moved)
	return out
}

// PartitionOwnedBatch is PartitionOwned returning a Batch, the shape
// ColumnStore.PartitionOwnedBatch returns.
func (s *Store) PartitionOwnedBatch(keep func(geom.Vec3) bool) *Batch {
	return BatchOf(s.PartitionOwned(keep))
}

// Resize changes the domain interval to [lo, hi) and re-bins every
// stored particle. Particles now outside the interval are clamped into
// the edge bins; callers exchange them explicitly via Partition or
// SelectDonation before or after resizing.
func (s *Store) Resize(lo, hi float64) {
	if hi < lo {
		panic(fmt.Sprintf("particle: Resize with reversed interval [%g, %g)", lo, hi))
	}
	lo, hi = widenDegenerate(lo, hi)
	all := s.All()
	s.lo, s.hi = lo, hi
	s.Clear()
	s.AddSlice(all)
}

// Side selects the edge of the domain a donation leaves from.
type Side int

// The two donation directions.
const (
	LowSide  Side = iota // toward the left (lower-rank) neighbor
	HighSide             // toward the right (higher-rank) neighbor
)

// String returns "low" or "high".
func (sd Side) String() string {
	if sd == LowSide {
		return "low"
	}
	return "high"
}

// SelectDonation removes the n particles nearest the given edge of the
// domain and returns them together with the new domain boundary that
// separates the donated span from the kept span (paper §3.2.5: "the
// particles must be ordered in accordance to the axis chosen for the
// division of the domains ... based on the ordering and selection of the
// particles, it is possible to define the new dimensions of the
// domains").
//
// The new boundary lies halfway between the last donated particle and
// the first kept one. If n >= Len, everything is donated and the
// boundary collapses to the opposite edge. Only the bins at the donating
// edge are sorted — the reason the store is binned at all.
func (s *Store) SelectDonation(n int, side Side) (donated []Particle, newBoundary float64) {
	if n <= 0 {
		if side == LowSide {
			return nil, s.lo
		}
		return nil, s.hi
	}
	if n >= s.count {
		donated = s.All()
		s.Clear()
		if side == LowSide {
			return donated, s.hi
		}
		return donated, s.lo
	}

	// Walk bins from the donating edge, consuming whole bins while they
	// fit and sorting only the bin the cut lands in.
	remaining := n
	donated = make([]Particle, 0, n)
	order := make([]int, len(s.bins))
	for i := range order {
		if side == LowSide {
			order[i] = i
		} else {
			order[i] = len(s.bins) - 1 - i
		}
	}
	var lastDonatedC, firstKeptC float64
	for _, bi := range order {
		b := s.bins[bi]
		if len(b) == 0 {
			continue
		}
		if len(b) <= remaining {
			donated = append(donated, b...)
			remaining -= len(b)
			s.bins[bi] = b[:0]
			if remaining == 0 {
				// Cut falls exactly on a bin edge; find the extreme
				// donated coordinate and the next kept coordinate.
				lastDonatedC = extremeC(donated, s.axis, side)
				firstKeptC = s.nearestKeptC(side)
				break
			}
			continue
		}
		// Partial bin: sort it along the axis and split.
		sort.Slice(b, func(i, j int) bool {
			ci := b[i].Pos.Component(s.axis)
			cj := b[j].Pos.Component(s.axis)
			if side == LowSide {
				return ci < cj
			}
			return ci > cj
		})
		donated = append(donated, b[:remaining]...)
		kept := append([]Particle(nil), b[remaining:]...)
		s.bins[bi] = kept
		lastDonatedC = donated[len(donated)-1].Pos.Component(s.axis)
		firstKeptC = kept[0].Pos.Component(s.axis)
		remaining = 0
		break
	}
	s.count -= len(donated)
	newBoundary = (lastDonatedC + firstKeptC) / 2
	// Keep the boundary inside the old interval even with numeric ties.
	if newBoundary <= s.lo {
		newBoundary = s.lo
	}
	if newBoundary >= s.hi {
		newBoundary = s.hi
	}
	if side == LowSide {
		s.lo = newBoundary
	} else {
		s.hi = newBoundary
	}
	return donated, newBoundary
}

// extremeC returns the donated coordinate closest to the cut: the
// maximum for a low-side donation, the minimum for a high-side one.
func extremeC(ps []Particle, axis geom.Axis, side Side) float64 {
	c := ps[0].Pos.Component(axis)
	for i := 1; i < len(ps); i++ {
		ci := ps[i].Pos.Component(axis)
		if (side == LowSide && ci > c) || (side == HighSide && ci < c) {
			c = ci
		}
	}
	return c
}

// nearestKeptC returns the kept coordinate closest to the donating edge.
func (s *Store) nearestKeptC(side Side) float64 {
	first := true
	var c float64
	for _, b := range s.bins {
		for i := range b {
			ci := b[i].Pos.Component(s.axis)
			if first || (side == LowSide && ci < c) || (side == HighSide && ci > c) {
				c = ci
				first = false
			}
		}
	}
	if first {
		// No kept particles; callers handle the n >= count case before
		// reaching here, but stay safe.
		if side == LowSide {
			return s.hi
		}
		return s.lo
	}
	return c
}
