package particle

import (
	"fmt"
	"sort"

	"pscluster/internal/geom"
)

// ColumnStore is the store the engines run on: the sub-domain binned
// container of the paper's §4, with each bin keeping its particles as a
// Batch of per-field columns — the layout the batch kernels and the
// columnar wire codec stream over without per-particle copies. Every
// operation — binning, partition, resize, donation — reproduces Store's
// iteration orders, float operations and sort permutations exactly, so
// the record-based Store serves as its reference.
//
// Scratch ownership: the batch PartitionBatch and PartitionOwnedBatch
// return is owned by the store and reused. It stays valid only until
// the next structural call on the same store (Clear, RemoveDead, either
// partition, Resize, DonateBatch, WithStore); a caller that needs the
// particles longer must group or copy them first. Adds do not
// invalidate it, so a caller may add part of the result back.
// DonateBatch returns a batch the caller owns.
type ColumnStore struct {
	axis   geom.Axis
	lo, hi float64
	bins   []Batch
	count  int

	// Store-owned scratch reused by the structural calls, so a warm
	// store re-bins and partitions without allocating (see the
	// ownership contract above). out is the partition result handed to
	// the caller; moved holds the particles changing bins mid-call,
	// with moveSrc/moveDst their source and destination bins during
	// Resize; binCounts (two ints per bin) is Resize's mover tally and
	// cursor space.
	out              Batch
	moved            Batch
	moveSrc, moveDst []int
	binCounts        []int
}

// NewColumnStore returns an empty columnar store for the interval
// [lo, hi) along axis, split into nbins sub-domains.
func NewColumnStore(axis geom.Axis, lo, hi float64, nbins int) *ColumnStore {
	if nbins < 1 {
		panic("particle: NewColumnStore needs at least one bin")
	}
	if hi < lo {
		panic(fmt.Sprintf("particle: NewColumnStore with reversed interval [%g, %g)", lo, hi))
	}
	lo, hi = widenDegenerate(lo, hi)
	return &ColumnStore{axis: axis, lo: lo, hi: hi, bins: make([]Batch, nbins),
		binCounts: make([]int, 2*nbins)}
}

// Axis returns the split axis.
func (s *ColumnStore) Axis() geom.Axis { return s.axis }

// Bounds returns the domain interval [lo, hi).
func (s *ColumnStore) Bounds() (lo, hi float64) { return s.lo, s.hi }

// Len returns the number of stored particles.
func (s *ColumnStore) Len() int { return s.count }

// NumBins returns the number of sub-domain bins.
func (s *ColumnStore) NumBins() int { return len(s.bins) }

// BinCounts returns the particle count of each sub-domain bin.
func (s *ColumnStore) BinCounts() []int {
	c := make([]int, len(s.bins))
	for i := range s.bins {
		c[i] = s.bins[i].Len()
	}
	return c
}

// binIndex maps an axis coordinate to a bin with the same clamped
// arithmetic as Store.binIndex.
func (s *ColumnStore) binIndex(c float64) int {
	return binIndexIn(s.lo, s.hi, len(s.bins), c)
}

// Add stores one particle, binning it by its axis coordinate.
func (s *ColumnStore) Add(p Particle) {
	i := s.binIndex(p.Pos.Component(s.axis))
	s.bins[i].Append(p)
	s.count++
}

// AddSlice stores every particle in ps.
func (s *ColumnStore) AddSlice(ps []Particle) {
	for i := range ps {
		s.Add(ps[i])
	}
}

// AddBatch stores every particle of b, moving columns directly.
func (s *ColumnStore) AddBatch(b *Batch) {
	for i := range b.Pos {
		bi := s.binIndex(b.Pos[i].Component(s.axis))
		s.bins[bi].AppendIndex(b, i)
	}
	s.count += b.Len()
}

// ForEach calls fn for every stored particle; fn may mutate the
// particle. Iteration order matches Store.ForEach: bins in order,
// insertion order within a bin. Each particle is materialized from the
// columns and scattered back — per-particle callers should prefer
// EachBatch.
func (s *ColumnStore) ForEach(fn func(*Particle)) {
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := 0; i < b.Len(); i++ {
			p := b.At(i)
			fn(&p)
			b.Set(i, p)
		}
	}
}

// EachBatch calls fn once per non-empty bin with the bin's live
// columns — the zero-copy hot path. fn may mutate column values but
// must not grow or shrink the batch.
func (s *ColumnStore) EachBatch(fn func(*Batch)) {
	for bi := range s.bins {
		if s.bins[bi].Len() == 0 {
			continue
		}
		fn(&s.bins[bi])
	}
}

// Bin returns bin bi's live columns (possibly empty). The indexable,
// closure-free form of EachBatch: allocation-sensitive encoders walk
// bins by index so nothing escapes. The pointer aliases the live bin.
func (s *ColumnStore) Bin(bi int) *Batch { return &s.bins[bi] }

// All returns a copy of every stored particle, in deterministic order.
func (s *ColumnStore) All() []Particle {
	out := make([]Particle, 0, s.count)
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.At(i))
		}
	}
	return out
}

// Clear removes all particles, keeping the domain interval.
func (s *ColumnStore) Clear() {
	for i := range s.bins {
		s.bins[i].Clear()
	}
	s.count = 0
}

// RemoveDead drops every particle whose Dead flag is set and returns
// how many were removed. Compaction preserves order within each bin,
// exactly as Store.RemoveDead does.
func (s *ColumnStore) RemoveDead() int {
	removed := 0
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			if b.Dead[i] {
				removed++
				continue
			}
			if kept != i {
				b.copyElem(kept, i)
			}
			kept++
		}
		b.Truncate(kept)
	}
	s.count -= removed
	return removed
}

// PartitionBatch removes and returns every particle whose axis
// coordinate has left the domain interval, re-binning the particles
// that moved between sub-domains — Store.Partition in columnar form,
// with the same output and re-add orders. The result is the store's
// scratch batch: it stays valid until the next structural call.
//
//pslint:hotpath
func (s *ColumnStore) PartitionBatch() *Batch {
	out, moved := &s.out, &s.moved
	out.Clear()
	moved.Clear()
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			c := b.Pos[i].Component(s.axis)
			switch {
			case c < s.lo || c >= s.hi:
				out.AppendIndex(b, i)
			case s.binIndex(c) != bi:
				// Moved to another sub-domain: re-add after the scan, as
				// Store.Partition does.
				moved.AppendIndex(b, i)
			default:
				if kept != i {
					b.copyElem(kept, i)
				}
				kept++
			}
		}
		b.Truncate(kept)
	}
	s.count = 0
	for i := range s.bins {
		s.count += s.bins[i].Len()
	}
	s.AddBatch(moved)
	return out
}

// PartitionOwnedBatch removes and returns every particle for which
// keep reports false — Store.PartitionOwned in columnar form, with the
// same output and re-add orders. Like PartitionBatch, it returns the
// store's scratch batch, valid until the next structural call.
//
//pslint:hotpath
func (s *ColumnStore) PartitionOwnedBatch(keep func(geom.Vec3) bool) *Batch {
	out, moved := &s.out, &s.moved
	out.Clear()
	moved.Clear()
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			switch {
			case !keep(b.Pos[i]):
				out.AppendIndex(b, i)
			case s.binIndex(b.Pos[i].Component(s.axis)) != bi:
				moved.AppendIndex(b, i)
			default:
				if kept != i {
					b.copyElem(kept, i)
				}
				kept++
			}
		}
		b.Truncate(kept)
	}
	s.count = 0
	for i := range s.bins {
		s.count += s.bins[i].Len()
	}
	s.AddBatch(moved)
	return out
}

// Resize changes the domain interval to [lo, hi) and re-bins every
// stored particle in place, in the same order Store.Resize re-adds
// them. That order — concatenate the bins, then re-add — puts into bin
// j first the particles arriving from lower bins, then bin j's own
// stayers, then the arrivals from higher bins, each group in source
// order. One pass compacts the stayers and collects the movers (with
// their source and destination bins) into store-owned scratch; a
// second pass opens each destination's gap and writes its movers in
// that order. A resize that moves no particle copies nothing.
//
//pslint:hotpath
func (s *ColumnStore) Resize(lo, hi float64) {
	if hi < lo {
		panic(fmt.Sprintf("particle: Resize with reversed interval [%g, %g)", lo, hi)) //pslint:alloc-ok panic message on the cold failure path
	}
	s.lo, s.hi = widenDegenerate(lo, hi)
	moved := &s.moved
	moved.Clear()
	s.moveSrc, s.moveDst = s.moveSrc[:0], s.moveDst[:0]
	for bi := range s.bins {
		b := &s.bins[bi]
		kept := 0
		for i := 0; i < b.Len(); i++ {
			j := s.binIndex(b.Pos[i].Component(s.axis))
			if j != bi {
				moved.AppendIndex(b, i)
				s.moveSrc = append(s.moveSrc, bi)
				s.moveDst = append(s.moveDst, j)
				continue
			}
			if kept != i {
				b.copyElem(kept, i)
			}
			kept++
		}
		b.Truncate(kept)
	}
	if moved.Len() == 0 {
		return
	}

	// fromLow[j] counts bin j's arrivals from lower bins and arrive[j]
	// all of its arrivals; both then serve as write cursors.
	nb := len(s.bins)
	clear(s.binCounts)
	fromLow, arrive := s.binCounts[:nb], s.binCounts[nb:]
	src, dst := s.moveSrc, s.moveDst
	for k, j := range dst {
		if src[k] < j {
			fromLow[j]++
		}
		arrive[j]++
	}
	for j := range s.bins {
		if arrive[j] == 0 {
			continue
		}
		b := &s.bins[j]
		stay := b.Len()
		b.Grow(arrive[j])
		b.shift(fromLow[j], 0, stay)
		// Cursors: low arrivals fill [0, fromLow), high ones start
		// after the shifted stayers.
		arrive[j] = fromLow[j] + stay
		fromLow[j] = 0
	}
	for k, j := range dst {
		at := &arrive[j]
		if src[k] < j {
			at = &fromLow[j]
		}
		s.bins[j].setIndex(*at, moved, k)
		*at++
	}
}

// DonateBatch removes the n particles nearest the given edge and
// returns them with the new boundary — Store.SelectDonation in
// columnar form. Whole edge bins are consumed unsorted; the single bin
// the cut lands in is sorted with the identical sort.Slice comparator
// Store uses, so the donated order and the derived boundary are
// bit-identical between the two stores.
func (s *ColumnStore) DonateBatch(n int, side Side) (*Batch, float64) {
	donated := &Batch{}
	if n <= 0 {
		if side == LowSide {
			return donated, s.lo
		}
		return donated, s.hi
	}
	if n >= s.count {
		for bi := range s.bins {
			donated.AppendBatch(&s.bins[bi])
		}
		s.Clear()
		if side == LowSide {
			return donated, s.hi
		}
		return donated, s.lo
	}

	remaining := n
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
		b := &s.bins[bi]
		if b.Len() == 0 {
			continue
		}
		if b.Len() <= remaining {
			donated.AppendBatch(b)
			remaining -= b.Len()
			b.Clear()
			if remaining == 0 {
				lastDonatedC = extremeColC(donated, s.axis, side)
				firstKeptC = s.nearestKeptC(side)
				break
			}
			continue
		}
		// Partial bin: materialize, run the same unstable sort Store
		// runs (same comparator over the same initial order gives the
		// same permutation), and split.
		ps := make([]Particle, b.Len())
		for i := range ps {
			ps[i] = b.At(i)
		}
		sort.Slice(ps, func(i, j int) bool {
			ci := ps[i].Pos.Component(s.axis)
			cj := ps[j].Pos.Component(s.axis)
			if side == LowSide {
				return ci < cj
			}
			return ci > cj
		})
		donated.AppendSlice(ps[:remaining])
		b.Clear()
		b.AppendSlice(ps[remaining:])
		lastDonatedC = donated.Pos[donated.Len()-1].Component(s.axis)
		firstKeptC = b.Pos[0].Component(s.axis)
		remaining = 0
		break
	}
	s.count -= donated.Len()
	newBoundary := (lastDonatedC + firstKeptC) / 2
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

// extremeColC is extremeC over a batch: the donated coordinate closest
// to the cut.
func extremeColC(b *Batch, axis geom.Axis, side Side) float64 {
	c := b.Pos[0].Component(axis)
	for i := 1; i < b.Len(); i++ {
		ci := b.Pos[i].Component(axis)
		if (side == LowSide && ci > c) || (side == HighSide && ci < c) {
			c = ci
		}
	}
	return c
}

// nearestKeptC returns the kept coordinate closest to the donating edge.
func (s *ColumnStore) nearestKeptC(side Side) float64 {
	first := true
	var c float64
	for bi := range s.bins {
		b := &s.bins[bi]
		for i := 0; i < b.Len(); i++ {
			ci := b.Pos[i].Component(s.axis)
			if first || (side == LowSide && ci < c) || (side == HighSide && ci > c) {
				c = ci
				first = false
			}
		}
	}
	if first {
		if side == LowSide {
			return s.hi
		}
		return s.lo
	}
	return c
}

// WithStore runs fn against an array-of-structs view of the store —
// the compatibility bridge for StoreActions, whose neighborhood grids
// capture *Particle pointers across the whole sweep. The view is built
// with the store's exact bin layout (not by re-binning, which would
// reorder particles whose positions the action mutates) and the
// columns are refreshed from it afterwards.
func (s *ColumnStore) WithStore(fn func(*Store)) {
	aos := &Store{axis: s.axis, lo: s.lo, hi: s.hi,
		bins: make([][]Particle, len(s.bins)), count: s.count}
	for bi := range s.bins {
		b := &s.bins[bi]
		bin := make([]Particle, b.Len())
		for i := range bin {
			bin[i] = b.At(i)
		}
		aos.bins[bi] = bin
	}
	fn(aos)
	s.lo, s.hi = aos.lo, aos.hi
	s.count = 0
	for bi := range aos.bins {
		bin := aos.bins[bi]
		b := &s.bins[bi]
		b.Clear()
		b.AppendSlice(bin)
		s.count += len(bin)
	}
}
