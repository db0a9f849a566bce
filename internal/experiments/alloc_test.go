package experiments

import (
	"fmt"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/geom"
	"pscluster/internal/particle"
)

// The steady-state frame allocates per frame, not per particle: a
// whole Snow run's allocation count may grow only a little when every
// system holds four times the particles. Store re-binning, the
// stochastic kernel and the exchange grouping all reuse scratch, so
// what remains is per-message and per-frame bookkeeping.
func TestEngineAllocsIndependentOfPopulation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime perturbs allocation counts")
	}
	cl := cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 4})
	allocs := func(n int, sched core.Schedule, lb core.LBMode) float64 {
		scn := Snow(Config{ParticlesPerSystem: n, Systems: 4, Frames: 12, DT: 0.1}, core.FiniteSpace, lb)
		scn.Schedule = sched
		return testing.AllocsPerRun(3, func() {
			if _, err := core.RunParallel(scn, cl, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, sched := range []core.Schedule{core.PerSystemSchedule, core.BatchedSchedule} {
		for _, lb := range []core.LBMode{core.StaticLB, core.DynamicLB} {
			t.Run(fmt.Sprintf("%v/%v", sched, lb), func(t *testing.T) {
				small, large := allocs(500, sched, lb), allocs(2000, sched, lb)
				t.Logf("allocs per run: %.0f at 500 particles/system, %.0f at 2000 (%.2fx)",
					small, large, large/small)
				if large > 1.5*small {
					t.Errorf("allocs per run: %.0f at 500 particles/system, %.0f at 2000 (%.2fx, want <= 1.5x)",
						small, large, large/small)
				}
			})
		}
	}
}

// Warm store operations and the RandomAccel kernel allocate nothing
// per particle: Resize (same and shifted bounds) and PartitionBatch
// reuse store-owned scratch, and the kernel's one escape is its
// hoisted generator.
func TestWarmStoreAndKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime perturbs allocation counts")
	}
	const n = 4000
	r := geom.NewRNG(3)
	fill := func(s *particle.ColumnStore, lo, hi float64) {
		for i := 0; i < n; i++ {
			s.Add(particle.Particle{Pos: geom.V(r.Range(lo, hi), r.Range(-5, 5), 0), Rand: r.Uint64()})
		}
	}

	s := particle.NewColumnStore(geom.AxisX, 0, 100, 16)
	fill(s, 0, 100)
	if a := testing.AllocsPerRun(50, func() { s.Resize(0, 100) }); a != 0 {
		t.Errorf("Resize to the same bounds: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		s.Resize(1.5, 101.5)
		s.Resize(0, 100)
	}); a != 0 {
		t.Errorf("Resize to shifted bounds: %v allocs/op, want 0", a)
	}

	// Leavers re-added each round clamp into the edge bins, so every
	// partition both extracts and scans a full store.
	var leavers particle.Batch
	for i := 0; i < n/50; i++ {
		x := r.Range(-10, 0)
		if i%2 == 1 {
			x = r.Range(100, 110)
		}
		leavers.Append(particle.Particle{Pos: geom.V(x, 0, 0)})
	}
	if a := testing.AllocsPerRun(50, func() {
		s.AddBatch(&leavers)
		if out := s.PartitionBatch(); out.Len() != leavers.Len() {
			t.Fatalf("partition extracted %d, want %d", out.Len(), leavers.Len())
		}
	}); a != 0 {
		t.Errorf("PartitionBatch: %v allocs/op, want 0", a)
	}

	act := &actions.RandomAccel{Domain: geom.SphereDomain{OuterR: 1.2}}
	ctx := &actions.Context{RNG: geom.NewRNG(1), DT: 0.1}
	b := s.Bin(0)
	if a := testing.AllocsPerRun(50, func() { act.ApplyBatch(ctx, b) }); a > 1 {
		t.Errorf("RandomAccel.ApplyBatch over %d particles: %v allocs/op, want <= 1", b.Len(), a)
	}
}
