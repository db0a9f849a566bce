package particle

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pscluster/internal/geom"
)

// mkPair returns a Store and a ColumnStore over the same interval.
func mkPair(nbins int) (*Store, *ColumnStore) {
	return NewStore(geom.AxisX, 0, 100, nbins), NewColumnStore(geom.AxisX, 0, 100, nbins)
}

// checkEqual asserts the two stores are observably identical: bounds,
// length, per-bin counts and the full particle sequence.
func checkEqual(t *testing.T, aos *Store, soa *ColumnStore) {
	t.Helper()
	alo, ahi := aos.Bounds()
	slo, shi := soa.Bounds()
	if alo != slo || ahi != shi {
		t.Fatalf("bounds diverge: aos [%v, %v) vs soa [%v, %v)", alo, ahi, slo, shi)
	}
	if aos.Len() != soa.Len() {
		t.Fatalf("len diverges: aos %d vs soa %d", aos.Len(), soa.Len())
	}
	ac, sc := aos.BinCounts(), soa.BinCounts()
	for i := range ac {
		if ac[i] != sc[i] {
			t.Fatalf("bin %d count diverges: aos %d vs soa %d", i, ac[i], sc[i])
		}
	}
	aall, sall := aos.All(), soa.All()
	for i := range aall {
		if aall[i] != sall[i] {
			t.Fatalf("particle %d diverges:\naos %+v\nsoa %+v", i, aall[i], sall[i])
		}
	}
}

// The equivalence property behind the whole data plane: any operation
// sequence leaves a Store and a ColumnStore in observably identical
// states — same particle order, bins, bounds and donation results.
func TestColumnStoreMatchesStoreUnderRandomOps(t *testing.T) {
	r := geom.NewRNG(42)
	aos, soa := mkPair(8)
	randP := func() Particle {
		return Particle{
			Pos:  geom.V(r.Range(-20, 120), r.Range(-5, 5), r.Range(-5, 5)),
			Vel:  r.UnitVec(),
			Age:  r.Float64(),
			Rand: r.Uint64(),
		}
	}
	for step := 0; step < 400; step++ {
		switch r.Intn(11) {
		case 0, 1:
			p := randP()
			aos.Add(p)
			soa.Add(p)
		case 2:
			ps := make([]Particle, r.Intn(20))
			for i := range ps {
				ps[i] = randP()
			}
			aos.AddSlice(ps)
			soa.AddSlice(ps)
		case 3:
			drift := r.Range(-3, 3)
			kill := r.Float64() < 0.3
			mut := func(p *Particle) {
				p.Pos.X += drift
				if kill && p.Rand%7 == 0 {
					p.Dead = true
				}
			}
			aos.ForEach(mut)
			soa.ForEach(mut)
			if aos.RemoveDead() != soa.RemoveDead() {
				t.Fatal("RemoveDead counts diverge")
			}
		case 4:
			out := aos.Partition()
			cols := soa.PartitionBatch()
			if len(out) != cols.Len() {
				t.Fatalf("partition sizes diverge: %d vs %d", len(out), cols.Len())
			}
			for i := range out {
				if out[i] != cols.At(i) {
					t.Fatalf("partition order diverges at %d", i)
				}
			}
		case 5:
			lo := r.Range(-10, 40)
			hi := lo + r.Range(0, 80)
			aos.Resize(lo, hi)
			soa.Resize(lo, hi)
		case 6:
			n := r.Intn(aos.Len() + 2)
			side := LowSide
			if r.Intn(2) == 1 {
				side = HighSide
			}
			dps, ab := aos.SelectDonation(n, side)
			dcols, sb := soa.DonateBatch(n, side)
			if ab != sb {
				t.Fatalf("donation boundary diverges: %v vs %v", ab, sb)
			}
			if len(dps) != dcols.Len() {
				t.Fatalf("donation sizes diverge: %d vs %d", len(dps), dcols.Len())
			}
			for i := range dps {
				if dps[i] != dcols.At(i) {
					t.Fatalf("donation order diverges at %d", i)
				}
			}
		case 7:
			var b Batch
			for i := 0; i < r.Intn(15); i++ {
				b.Append(randP())
			}
			aos.AddBatch(&b)
			soa.AddBatch(&b)
		case 8:
			resizeSame(aos, soa)
		case 9:
			resizeShift(aos, soa, r)
		case 10:
			resizeAfterDrift(aos, soa, r)
		}
		checkEqual(t, aos, soa)
	}
}

// resizeSame resizes both stores to their current bounds — the call
// dynamic balancing makes on every calculator every frame, usually
// moving nothing.
func resizeSame(aos *Store, soa *ColumnStore) {
	lo, hi := aos.Bounds()
	aos.Resize(lo, hi)
	soa.Resize(lo, hi)
}

// resizeShift resizes both stores to their bounds shifted by a tiny
// fraction of the width, so only particles near bin edges move.
func resizeShift(aos *Store, soa *ColumnStore, r *geom.RNG) {
	lo, hi := aos.Bounds()
	d := (hi - lo) * r.Range(-1e-3, 1e-3)
	aos.Resize(lo+d, hi+d)
	soa.Resize(lo+d, hi+d)
}

// resizeAfterDrift moves every particle without partitioning, so many
// sit in the wrong bin, then resizes both stores to their current
// bounds: the re-bin must restore the concatenate-and-re-add order.
func resizeAfterDrift(aos *Store, soa *ColumnStore, r *geom.RNG) {
	drift := r.Range(-30, 30)
	mut := func(p *Particle) { p.Pos.X += drift * float64(p.Rand%5) / 4 }
	aos.ForEach(mut)
	soa.ForEach(mut)
	resizeSame(aos, soa)
}

// PartitionBatch hands out the store's scratch batch: a second call
// reuses it, overwriting the first result.
func TestPartitionBatchScratchContract(t *testing.T) {
	s := NewColumnStore(geom.AxisX, 0, 100, 4)
	for x := -10.0; x < 110; x += 5 {
		s.Add(Particle{Pos: geom.V(x, 0, 0)})
	}
	first := s.PartitionBatch()
	if first.Len() != 4 {
		t.Fatalf("first partition returned %d particles, want 4", first.Len())
	}
	s.Add(Particle{Pos: geom.V(-50, 0, 0)})
	second := s.PartitionBatch()
	if second != first {
		t.Fatal("second PartitionBatch returned a different batch; want the store's scratch")
	}
	if first.Len() != 1 || first.Pos[0].X != -50 {
		t.Fatalf("first result not overwritten: %d particles, first at %v", first.Len(), first.Pos)
	}
	if s.Len() != 20 {
		t.Fatalf("store holds %d particles, want 20", s.Len())
	}
}

// EachBatch visits the same particles in the same order on both stores,
// and mutations through the columns land exactly like ForEach mutations.
func TestEachBatchOrderAndMutation(t *testing.T) {
	aos, soa := mkPair(6)
	r := geom.NewRNG(7)
	for i := 0; i < 200; i++ {
		p := Particle{Pos: geom.V(r.Range(0, 100), 0, 0), Rand: uint64(i)}
		aos.Add(p)
		soa.Add(p)
	}
	var aorder, sorder []uint64
	aos.EachBatch(func(b *Batch) {
		for i := range b.Rand {
			aorder = append(aorder, b.Rand[i])
			b.Age[i] += 1.5
		}
	})
	soa.EachBatch(func(b *Batch) {
		for i := range b.Rand {
			sorder = append(sorder, b.Rand[i])
			b.Age[i] += 1.5
		}
	})
	if len(aorder) != len(sorder) {
		t.Fatalf("visit counts diverge: %d vs %d", len(aorder), len(sorder))
	}
	for i := range aorder {
		if aorder[i] != sorder[i] {
			t.Fatalf("visit order diverges at %d: %d vs %d", i, aorder[i], sorder[i])
		}
	}
	checkEqual(t, aos, soa)
}

// ---------------------------------------------------------------------
// Donation edge cases (mirrored on both stores)
// ---------------------------------------------------------------------

// Donating the whole domain leaves a degenerate interval: the boundary
// lands on the far edge, the store empties, and a subsequent Resize to
// the resulting zero-width interval widens it to the minimal sliver
// [lo, lo+minWidth) on both stores identically.
func TestDonateWholeDomainDegenerateSliver(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		aos, soa := mkPair(4)
		ps := benchParticles(50)
		aos.AddSlice(ps)
		soa.AddSlice(ps)

		dps, ab := aos.SelectDonation(50, side)
		dcols, sb := soa.DonateBatch(50, side)
		if ab != sb {
			t.Fatalf("%v: boundary diverges: %v vs %v", side, ab, sb)
		}
		want := 100.0
		if side == HighSide {
			want = 0.0
		}
		if ab != want {
			t.Fatalf("%v: whole-domain boundary = %v, want far edge %v", side, ab, want)
		}
		if len(dps) != 50 || dcols.Len() != 50 {
			t.Fatalf("%v: donated %d/%d, want 50", side, len(dps), dcols.Len())
		}
		for i := range dps {
			if dps[i] != dcols.At(i) {
				t.Fatalf("%v: donation order diverges at %d", side, i)
			}
		}
		if aos.Len() != 0 || soa.Len() != 0 {
			t.Fatalf("%v: stores not emptied", side)
		}
		checkEqual(t, aos, soa)

		// The donor's domain collapses to the boundary on both sides —
		// a zero-width interval that Resize must widen to the minimal
		// sliver rather than reject.
		aos.Resize(ab, ab)
		soa.Resize(sb, sb)
		alo, ahi := aos.Bounds()
		if ahi <= alo {
			t.Fatalf("%v: sliver not widened: [%v, %v)", side, alo, ahi)
		}
		checkEqual(t, aos, soa)
		// The sliver still accepts and clamps particles.
		p := Particle{Pos: geom.V(ab+10, 0, 0)}
		aos.Add(p)
		soa.Add(p)
		checkEqual(t, aos, soa)
	}
}

// A donation larger than any edge bin straddles several bins: whole
// bins are consumed unsorted, the cut bin is sorted, and both stores
// agree on every donated particle and the derived boundary.
func TestDonateStraddlesMultipleEdgeBins(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		aos, soa := mkPair(10) // bins of width 10
		r := geom.NewRNG(3)
		var ps []Particle
		for i := 0; i < 300; i++ {
			ps = append(ps, Particle{Pos: geom.V(r.Range(0, 100), 0, 0), Rand: uint64(i)})
		}
		aos.AddSlice(ps)
		soa.AddSlice(ps)

		// ~30 particles per bin; donate 100 → consumes 3+ whole edge
		// bins and cuts inside the next.
		dps, ab := aos.SelectDonation(100, side)
		dcols, sb := soa.DonateBatch(100, side)
		if ab != sb {
			t.Fatalf("%v: boundary diverges: %v vs %v", side, ab, sb)
		}
		if len(dps) != 100 || dcols.Len() != 100 {
			t.Fatalf("%v: donated %d/%d, want 100", side, len(dps), dcols.Len())
		}
		for i := range dps {
			if dps[i] != dcols.At(i) {
				t.Fatalf("%v: donation order diverges at %d:\naos %+v\nsoa %+v",
					side, i, dps[i], dcols.At(i))
			}
		}
		checkEqual(t, aos, soa)
	}
}

// Duplicate coordinates around empty edge bins exercise the unstable
// sort: both stores must produce the identical permutation (same
// comparator over the same initial order), even when the sort keys tie.
func TestDonateEmptyBinsAndTiedSortKeys(t *testing.T) {
	for _, side := range []Side{LowSide, HighSide} {
		aos, soa := mkPair(10)
		// Leave the edge bins empty and pile tied coordinates into two
		// middle bins; Rand distinguishes the records.
		var ps []Particle
		for i := 0; i < 40; i++ {
			ps = append(ps, Particle{Pos: geom.V(45, 0, 0), Rand: uint64(i)})
			ps = append(ps, Particle{Pos: geom.V(55, 0, 0), Rand: uint64(1000 + i)})
		}
		aos.AddSlice(ps)
		soa.AddSlice(ps)

		dps, ab := aos.SelectDonation(60, side)
		dcols, sb := soa.DonateBatch(60, side)
		if ab != sb {
			t.Fatalf("%v: boundary diverges: %v vs %v", side, ab, sb)
		}
		if len(dps) != 60 || dcols.Len() != 60 {
			t.Fatalf("%v: donated %d/%d, want 60", side, len(dps), dcols.Len())
		}
		for i := range dps {
			if dps[i] != dcols.At(i) {
				t.Fatalf("%v: tied-key donation permutation diverges at %d: aos Rand=%d soa Rand=%d",
					side, i, dps[i].Rand, dcols.At(i).Rand)
			}
		}
		checkEqual(t, aos, soa)
	}
}

// WithStore exposes an AoS view whose mutations — including boundary
// changes from Resize — are reflected back into the columns.
func TestWithStoreBridge(t *testing.T) {
	soa := NewColumnStore(geom.AxisX, 0, 100, 5)
	soa.AddSlice(benchParticles(80))
	ref := NewStore(geom.AxisX, 0, 100, 5)
	ref.AddSlice(benchParticles(80))

	mut := func(s *Store) {
		s.ForEach(func(p *Particle) { p.Vel = p.Vel.Scale(0.5); p.Age += 1 })
		s.Resize(10, 90)
	}
	soa.WithStore(mut)
	mut(ref)
	checkEqual(t, ref, soa)
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

// The columnar encoder emits bit-identical bytes to the record encoder,
// and both decoders agree on the result.
func TestEncodeWireMatchesEncodeBatch(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		ps := benchParticles(n)
		for i := range ps {
			ps[i].Dead = i%5 == 0
			ps[i].Rand = uint64(i) * 0x9e3779b97f4a7c15
		}
		want := EncodeBatch(ps)
		got := BatchOf(ps).EncodeWire()
		if !bytes.Equal(want, got) {
			t.Fatalf("n=%d: EncodeWire bytes differ from EncodeBatch", n)
		}
		back, err := DecodeWire(got)
		if err != nil {
			t.Fatalf("n=%d: DecodeWire: %v", n, err)
		}
		all := back.All()
		for i := range ps {
			if all[i] != ps[i] {
				t.Fatalf("n=%d: round-trip particle %d differs", n, i)
			}
		}
	}
}

// DecodeWireInto reuses column capacity across calls without leaking
// stale records from a previous, larger decode.
func TestDecodeWireIntoReuse(t *testing.T) {
	big := EncodeBatch(benchParticles(500))
	small := EncodeBatch(benchParticles(3))
	var b Batch
	if err := b.DecodeWireInto(big); err != nil {
		t.Fatal(err)
	}
	if err := b.DecodeWireInto(small); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("reused batch has %d particles, want 3", b.Len())
	}
	want := benchParticles(3)
	for i, p := range b.All() {
		if p != want[i] {
			t.Fatalf("reused decode particle %d differs", i)
		}
	}
}

// corruptPayloads is the table of hostile wire inputs. Both decoders
// must reject every one of them, with matching accept/reject behavior.
func corruptPayloads() map[string][]byte {
	valid := EncodeBatch(benchParticles(4))
	mk := func(mut func(b []byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mut(c)
	}
	return map[string][]byte{
		"empty":            {},
		"short-header":     {1, 2, 3},
		"truncated-column": mk(func(b []byte) []byte { return b[:4+2*WireSize+100] }),
		"trailing-bytes":   mk(func(b []byte) []byte { return append(b, 0xAB, 0xCD) }),
		"hostile-count": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 1<<30) // claims ~150 GB of records
			return b
		}),
		"count-over-payload": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 5)
			return b
		}),
		"count-under-payload": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b, 3)
			return b
		}),
		"unknown-flag-bits": mk(func(b []byte) []byte {
			b[4+2*WireSize+120] |= 0x02
			return b
		}),
		"nonzero-padding": mk(func(b []byte) []byte {
			b[4+1*WireSize+135] = 0xFF
			return b
		}),
	}
}

func TestDecodeWireRejectsCorruptPayloads(t *testing.T) {
	for name, payload := range corruptPayloads() {
		t.Run(name, func(t *testing.T) {
			_, errRec := DecodeBatch(payload)
			_, errCol := DecodeWire(payload)
			if errRec == nil {
				t.Fatalf("record decoder accepted corrupt payload")
			}
			if errCol == nil {
				t.Fatalf("columnar decoder accepted corrupt payload")
			}
			// A failed decode must not disturb a reusable batch.
			var b Batch
			if err := b.DecodeWireInto(EncodeBatch(benchParticles(2))); err != nil {
				t.Fatal(err)
			}
			before := b.All()
			if err := b.DecodeWireInto(payload); err == nil {
				t.Fatal("reused decode accepted corrupt payload")
			}
			for i, p := range b.All() {
				if p != before[i] {
					t.Fatalf("failed decode mutated the batch at %d", i)
				}
			}
		})
	}
}
