package particle

import "pscluster/internal/geom"

// Set is the store abstraction the engines run on: the sub-domain
// binned particle container of the paper's §4, implemented by the
// array-of-structs Store and the columnar ColumnStore. Both
// implementations share iteration orders, binning arithmetic and
// donation sort permutations, so an engine is bit-for-bit identical
// under either — the layout only changes how fast the host walks it.
//
// Scratch ownership: the batch PartitionBatch and PartitionOwnedBatch
// return may be owned by the store and reused. It stays valid only
// until the next structural call on the same store (Clear, RemoveDead,
// either partition, Resize, DonateBatch, WithStore); a caller that
// needs the particles longer must group or copy them first. Adds do
// not invalidate it, so a caller may add part of the result back.
// DonateBatch returns a batch the caller owns.
type Set interface {
	// Geometry and size.
	Axis() geom.Axis
	Bounds() (lo, hi float64)
	Len() int
	NumBins() int
	BinCounts() []int

	// Ingest.
	Add(p Particle)
	AddSlice(ps []Particle)
	AddBatch(b *Batch)

	// Iteration. ForEach materializes one particle at a time; EachBatch
	// exposes each non-empty bin as a Batch (live columns for
	// ColumnStore, a scratch copy written back for Store) and is the
	// hot path for batch kernels. EachBatch callbacks must not grow or
	// shrink the batch.
	ForEach(fn func(*Particle))
	EachBatch(fn func(*Batch))
	All() []Particle

	// Maintenance and the model's structural phases (§3.1.5, §3.2.5).
	Clear()
	RemoveDead() int
	PartitionBatch() *Batch
	PartitionOwnedBatch(keep func(geom.Vec3) bool) *Batch
	Resize(lo, hi float64)
	DonateBatch(n int, side Side) (*Batch, float64)

	// WithStore bridges to the array-of-structs view for StoreActions,
	// whose neighborhood grids hold *Particle pointers for the whole
	// sweep. Store passes itself through; ColumnStore materializes and
	// writes back.
	WithStore(fn func(*Store))
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

// ---------------------------------------------------------------------
// Store's Set adapter methods
// ---------------------------------------------------------------------

// AddBatch stores every particle of b.
func (s *Store) AddBatch(b *Batch) {
	for i := 0; i < b.Len(); i++ {
		s.Add(b.At(i))
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

// PartitionBatch wraps Partition in the Set interface's batch shape.
func (s *Store) PartitionBatch() *Batch {
	return BatchOf(s.Partition())
}

// PartitionOwnedBatch wraps PartitionOwned in the Set interface's
// batch shape.
func (s *Store) PartitionOwnedBatch(keep func(geom.Vec3) bool) *Batch {
	return BatchOf(s.PartitionOwned(keep))
}

// DonateBatch wraps SelectDonation in the Set interface's batch shape.
func (s *Store) DonateBatch(n int, side Side) (*Batch, float64) {
	ps, boundary := s.SelectDonation(n, side)
	return BatchOf(ps), boundary
}

// WithStore runs fn on the store itself.
func (s *Store) WithStore(fn func(*Store)) { fn(s) }
