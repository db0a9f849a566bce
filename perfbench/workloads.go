package main

import (
	"fmt"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
)

// workload is one named scenario the benchmark drives end to end.
type workload struct {
	name string
	// build returns a fresh scenario with every System.Seed shifted by
	// the benchmark seed.
	build func(seed uint64) core.Scenario
	// cluster returns the simulated cluster the run is placed on.
	cluster func() *cluster.Cluster
	nCalc   int
	// seqExact marks workloads whose parallel frame checksums must equal
	// the sequential engine's (the exactness TestSeqParallelEquivalence
	// asserts). Ghost collisions trade that equality away.
	seqExact bool
}

// seedStride spreads benchmark seeds across the 64-bit seed space, so
// nearby benchmark seeds do not land on each other's per-system seeds
// (the experiments space their systems' seeds 7 or 13 apart).
const seedStride = 0x9e3779b97f4a7c15

// shiftSeeds adds the benchmark seed to every system's seed. Seed 0
// leaves the experiment's own seeds untouched.
func shiftSeeds(scn *core.Scenario, seed uint64) {
	for i := range scn.Systems {
		scn.Systems[i].Seed += seed * seedStride
	}
}

func homogeneousB() *cluster.Cluster {
	return cluster.New(cluster.Myrinet, cluster.GCC, cluster.NodeSpec{Type: cluster.TypeB, Count: 8})
}

func heterogeneousBA() *cluster.Cluster {
	return cluster.New(cluster.Myrinet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 4}, cluster.NodeSpec{Type: cluster.TypeA, Count: 4})
}

// collideConfig is the collide-ghost population: half the paper-scale
// stored population per system, so the neighbour queries fit one run.
var collideConfig = experiments.Config{
	ParticlesPerSystem: 4000,
	Systems:            experiments.PaperScale.Systems,
	Frames:             experiments.PaperScale.Frames,
	DT:                 experiments.PaperScale.DT,
}

// workloads are the benchmark's scenarios; README.md and BENCHMARK.json
// record why each was chosen.
var workloads = []workload{
	{
		name: "snow-dlb",
		build: func(seed uint64) core.Scenario {
			scn := experiments.Snow(experiments.PaperScale, core.FiniteSpace, core.DynamicLB)
			scn.Schedule = core.PerSystemSchedule
			shiftSeeds(&scn, seed)
			return scn
		},
		cluster:  homogeneousB,
		nCalc:    8,
		seqExact: true,
	},
	{
		name: "fountain-hetero",
		build: func(seed uint64) core.Scenario {
			scn := experiments.Fountain(experiments.PaperScale, core.FiniteSpace, core.DynamicLB)
			scn.Schedule = core.BatchedSchedule
			scn.Render.Rasterize = true
			scn.Render.Width, scn.Render.Height = 640, 480
			shiftSeeds(&scn, seed)
			return scn
		},
		cluster:  heterogeneousBA,
		nCalc:    8,
		seqExact: true,
	},
	{
		name: "collide-ghost",
		build: func(seed uint64) core.Scenario {
			scn := experiments.Snow(collideConfig, core.FiniteSpace, core.StaticLB)
			scn.GhostCollisions = true
			for i := range scn.Systems {
				acts := scn.Systems[i].Actions
				last := len(acts) - 1
				withCollide := append([]actions.Action{}, acts[:last]...)
				withCollide = append(withCollide,
					&actions.CollideParticles{Radius: 1.5, Elasticity: 0.8}, acts[last])
				scn.Systems[i].Actions = withCollide
			}
			shiftSeeds(&scn, seed)
			return scn
		},
		cluster: homogeneousB,
		nCalc:   8,
	},
}

// lookupWorkload returns the workload of the given name.
func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
