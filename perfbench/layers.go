package main

import (
	"time"

	"pscluster/internal/actions"
	"pscluster/internal/bufpool"
	"pscluster/internal/core"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
	"pscluster/internal/render"
)

// layerReplay times public calls into one layer on the workload's own
// final population. Each iteration prepares its input untimed and
// returns the timed duration, the units of work done (particles) and,
// where the layer's allocation is reported, the bytes it allocated.
type layerReplay struct {
	scn  core.Scenario // validated copy of the workload's scenario
	pop  []*particle.Batch
	seed uint64
	s    *sampler
}

func newLayerReplay(scn core.Scenario, final [][]particle.Particle, seed uint64) (*layerReplay, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	lr := &layerReplay{scn: scn, seed: seed, s: newSampler()}
	for _, ps := range final {
		lr.pop = append(lr.pop, particle.BatchOf(ps))
	}
	return lr, nil
}

// replayStat accumulates one layer's per-iteration figures.
type replayStat struct {
	nsPerUnit []float64
	bytes     uint64
	units     int
	ops       int
}

// loop repeats iter until budget has elapsed (at least once) and
// returns the per-iteration ns/unit samples.
func loop(budget time.Duration, iter func(st *replayStat) (time.Duration, int)) *replayStat {
	st := &replayStat{}
	start := time.Now()
	for time.Since(start) < budget || len(st.nsPerUnit) == 0 {
		d, units := iter(st)
		if units > 0 {
			st.nsPerUnit = append(st.nsPerUnit, float64(d.Nanoseconds())/float64(units))
			st.units += units
		}
	}
	return st
}

// timed runs fn and charges its duration and heap allocation to st.
func (lr *layerReplay) timed(st *replayStat, fn func()) time.Duration {
	b0 := lr.s.allocBytes()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	st.bytes += lr.s.allocBytes() - b0
	st.ops++
	return d
}

func (lr *layerReplay) ctx(si int) *actions.Context {
	return &actions.Context{RNG: geom.NewRNG(lr.scn.Systems[si].Seed ^ lr.seed), DT: lr.scn.DT}
}

// kernels replays every per-particle run of each system's compiled
// plan (actions.FusePlan, fused as the engine runs it) through the
// fused kernel or actions.ApplyToBatch.
func (lr *layerReplay) kernels(budget time.Duration) *replayStat {
	plans := make([][]actions.Run, len(lr.pop))
	for si := range plans {
		plans[si] = actions.FusePlan(lr.scn.Systems[si].Actions, !lr.scn.Unfused)
	}
	var work particle.Batch
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		var d time.Duration
		units := 0
		for si, pop := range lr.pop {
			work.Clear()
			work.AppendBatch(pop)
			ctx := lr.ctx(si)
			d += lr.timed(st, func() {
				for ri := range plans[si] {
					r := &plans[si][ri]
					switch {
					case r.Fused != nil:
						r.Fused(ctx, &work)
					case r.Create == nil && r.Store == nil:
						for _, a := range r.Acts {
							actions.ApplyToBatch(ctx, a, &work)
						}
					}
				}
			})
			units += pop.Len()
		}
		return d, units
	})
}

// sources replays each system's creation actions (Source.Generate).
func (lr *layerReplay) sources(budget time.Duration) *replayStat {
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		var d time.Duration
		units := 0
		for si := range lr.pop {
			ctx := lr.ctx(si)
			for _, a := range lr.scn.Systems[si].Actions {
				ca, ok := a.(actions.CreateAction)
				if !ok {
					continue
				}
				var ps []particle.Particle
				d += lr.timed(st, func() { ps = ca.Generate(ctx) })
				units += len(ps)
			}
		}
		return d, units
	})
}

// collideAction returns the workload's own inter-particle action, or the
// collide-ghost one for workloads without collisions, so every workload
// reports the collision layer on its own population.
func (lr *layerReplay) collideAction() actions.StoreAction {
	for _, a := range lr.scn.Systems[0].Actions {
		if sa, ok := a.(actions.StoreAction); ok {
			return sa
		}
	}
	return &actions.CollideParticles{Radius: 1.5, Elasticity: 0.8}
}

// store returns an empty column store over [lo, hi) in the scenario's
// layout.
func (lr *layerReplay) store(lo, hi float64) *particle.ColumnStore {
	return particle.NewColumnStore(lr.scn.Axis, lo, hi, lr.scn.Bins)
}

// collide replays the inter-particle action through the AoS bridge the
// engine uses (ColumnStore.WithStore + StoreAction.ApplyStore).
func (lr *layerReplay) collide(budget time.Duration) *replayStat {
	ca := lr.collideAction()
	lo, hi := lr.scn.SpaceInterval()
	st0 := lr.store(lo, hi)
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		var d time.Duration
		units := 0
		for si, pop := range lr.pop {
			st0.Clear()
			st0.AddBatch(pop)
			ctx := lr.ctx(si)
			d += lr.timed(st, func() {
				st0.WithStore(func(s *particle.Store) { ca.ApplyStore(ctx, s) })
			})
			units += pop.Len()
		}
		return d, units
	})
}

// edgeBand is the fraction of the space interval the store replays
// shift or trim, so resizes re-bin and partitions find leavers.
const edgeBand = 1.0 / 64

// stores fills one column store per system over [lo, hi).
func (lr *layerReplay) stores(lo, hi float64) []*particle.ColumnStore {
	out := make([]*particle.ColumnStore, len(lr.pop))
	for si, pop := range lr.pop {
		out[si] = lr.store(lo, hi)
		out[si].AddBatch(pop)
	}
	return out
}

// resize replays ColumnStore.Resize, alternating between the space
// interval and the interval shifted by edgeBand.
func (lr *layerReplay) resize(budget time.Duration) *replayStat {
	lo, hi := lr.scn.SpaceInterval()
	shift := (hi - lo) * edgeBand
	sts := lr.stores(lo, hi)
	flip := false
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		flip = !flip
		a, b := lo, hi
		if flip {
			a, b = lo+shift, hi+shift
		}
		var d time.Duration
		units := 0
		for _, s := range sts {
			d += lr.timed(st, func() { s.Resize(a, b) })
			units += s.Len()
		}
		return d, units
	})
}

// partition replays ColumnStore.PartitionBatch on a store whose
// interval is the space interval trimmed by edgeBand at each end.
func (lr *layerReplay) partition(budget time.Duration) *replayStat {
	lo, hi := lr.scn.SpaceInterval()
	trim := (hi - lo) * edgeBand
	s := lr.store(lo+trim, hi-trim)
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		var d time.Duration
		units := 0
		for _, pop := range lr.pop {
			s.Clear()
			s.AddBatch(pop)
			d += lr.timed(st, func() { s.PartitionBatch() })
			units += pop.Len()
		}
		return d, units
	})
}

// donate replays ColumnStore.DonateBatch of 5% of each store,
// alternating sides; units are donated particles.
func (lr *layerReplay) donate(budget time.Duration) *replayStat {
	lo, hi := lr.scn.SpaceInterval()
	s := lr.store(lo, hi)
	side := particle.LowSide
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		if side == particle.LowSide {
			side = particle.HighSide
		} else {
			side = particle.LowSide
		}
		var d time.Duration
		units := 0
		for _, pop := range lr.pop {
			s.Clear()
			s.Resize(lo, hi)
			s.AddBatch(pop)
			var out *particle.Batch
			d += lr.timed(st, func() { out, _ = s.DonateBatch(pop.Len()/20, side) })
			units += out.Len()
		}
		return d, units
	})
}

// codec replays Batch.EncodeWire and Batch.DecodeWireInto.
func (lr *layerReplay) codec(budget time.Duration) (enc, dec *replayStat) {
	var scratch particle.Batch
	enc, dec = &replayStat{}, &replayStat{}
	start := time.Now()
	for time.Since(start) < budget || len(enc.nsPerUnit) == 0 {
		var de, dd time.Duration
		units := 0
		for _, pop := range lr.pop {
			var blob []byte
			de += lr.timed(enc, func() { blob = pop.EncodeWire() })
			dd += lr.timed(dec, func() {
				if err := scratch.DecodeWireInto(blob); err != nil {
					panic(err) // EncodeWire output always decodes
				}
			})
			bufpool.Put(blob)
			units += pop.Len()
		}
		enc.nsPerUnit = append(enc.nsPerUnit, float64(de.Nanoseconds())/float64(units))
		dec.nsPerUnit = append(dec.nsPerUnit, float64(dd.Nanoseconds())/float64(units))
	}
	return enc, dec
}

func decodeWire(b *particle.Batch, blob []byte) error { return b.DecodeWireInto(blob) }

// splat replays render.Plane.Ingest of every system's particles plus
// the Barrier that completes the frame, on a one-worker plane (the
// engine's default serial width) at the workload's resolution.
func (lr *layerReplay) splat(budget time.Duration) *replayStat {
	w, h := lr.scn.Render.Width, lr.scn.Render.Height
	fb := render.NewFramebuffer(w, h)
	cam := render.OrthoCamera{Region: lr.scn.Space, W: w, H: h}
	plane := render.NewPlane(1)
	defer plane.Close()
	blobs := make([][]byte, len(lr.pop))
	units := 0
	for si, pop := range lr.pop {
		blobs[si] = pop.EncodeWire()
		units += pop.Len()
	}
	defer func() {
		for _, b := range blobs {
			bufpool.Put(b)
		}
	}()
	return loop(budget, func(st *replayStat) (time.Duration, int) {
		fb.Clear()
		var err error
		d := lr.timed(st, func() {
			for _, blob := range blobs {
				if err = plane.Ingest(fb, cam, blob, decodeWire); err != nil {
					break
				}
			}
			plane.Barrier()
		})
		if err != nil {
			panic(err) // EncodeWire output always decodes
		}
		return d, units
	})
}
