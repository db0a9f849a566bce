// Package pscluster is a Go reproduction of Oliva & De Rose, "Modeling
// Particle Systems Animations for Heterogeneous Clusters" (IPDPS 2005):
// a library for animating stochastic particle systems across the
// processes of a (simulated) heterogeneous cluster, with spatial domain
// decomposition and the paper's centralized pairwise dynamic load
// balancing.
//
// The package is a facade: it re-exports the stable surface of the
// internal packages so applications can depend on a single import.
//
//	scn := pscluster.Scenario{ ... }
//	seq, _ := pscluster.RunSequential(scn, pscluster.TypeB, pscluster.GCC)
//	cl := pscluster.NewCluster(pscluster.Myrinet, pscluster.GCC,
//	        pscluster.Nodes(pscluster.TypeB, 8))
//	par, _ := pscluster.RunParallel(scn, cl, 8)
//	fmt.Println(par.Speedup(seq))
//
// See the examples/ directory for complete programs and DESIGN.md for
// the architecture.
package pscluster

import (
	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/effects"
	"pscluster/internal/geom"
	"pscluster/internal/obs"
	"pscluster/internal/obs/live"
	"pscluster/internal/particle"
	"pscluster/internal/render"
	"pscluster/internal/scenario"
	"pscluster/internal/transport"
)

// ---------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------

// Vec3 is a 3-component vector.
type Vec3 = geom.Vec3

// AABB is an axis-aligned box.
type AABB = geom.AABB

// Plane is an infinite plane.
type Plane = geom.Plane

// Axis selects a coordinate axis for the domain decomposition.
type Axis = geom.Axis

// The coordinate axes.
const (
	AxisX = geom.AxisX
	AxisY = geom.AxisY
	AxisZ = geom.AxisZ
)

// V builds a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Box builds an AABB from two corners.
func Box(a, b Vec3) AABB { return geom.Box(a, b) }

// NewPlane builds a plane through p with normal n.
func NewPlane(p, n Vec3) Plane { return geom.NewPlane(p, n) }

// EmitDomain is a stochastic emission region (the pDomain of the
// McAllister API).
type EmitDomain = geom.EmitDomain

// The emission domain shapes.
type (
	// PointDomain is a single point.
	PointDomain = geom.PointDomain
	// LineDomain is a segment.
	LineDomain = geom.LineDomain
	// BoxDomain is a solid box.
	BoxDomain = geom.BoxDomain
	// SphereDomain is a spherical shell.
	SphereDomain = geom.SphereDomain
	// DiscDomain is a flat annulus.
	DiscDomain = geom.DiscDomain
	// CylinderDomain is a solid cylinder.
	CylinderDomain = geom.CylinderDomain
	// ConeDomain is a solid cone.
	ConeDomain = geom.ConeDomain
	// TriangleDomain is a flat triangle.
	TriangleDomain = geom.TriangleDomain
)

// ---------------------------------------------------------------------
// Particles and actions
// ---------------------------------------------------------------------

// Particle is the model's particle record: position, orientation, age,
// velocity plus rendering attributes.
type Particle = particle.Particle

// Action is one step of a particle system's per-frame program.
type Action = actions.Action

// The action library (see internal/actions for semantics).
type (
	// Source creates particles each frame.
	Source = actions.Source
	// Gravity applies constant acceleration.
	Gravity = actions.Gravity
	// RandomAccel applies a stochastic acceleration.
	RandomAccel = actions.RandomAccel
	// Damping applies viscous drag.
	Damping = actions.Damping
	// Bounce reflects particles off a plane.
	Bounce = actions.Bounce
	// BounceSphere reflects particles off a sphere.
	BounceSphere = actions.BounceSphere
	// BounceDisc reflects particles off a finite disc.
	BounceDisc = actions.BounceDisc
	// BounceTriangle reflects particles off a triangle.
	BounceTriangle = actions.BounceTriangle
	// Avoid steers particles around a spherical obstacle.
	Avoid = actions.Avoid
	// Sink kills particles relative to a region.
	Sink = actions.Sink
	// SinkBelow kills particles under a coordinate threshold.
	SinkBelow = actions.SinkBelow
	// KillOld kills particles past an age.
	KillOld = actions.KillOld
	// OrbitPoint attracts particles to a point.
	OrbitPoint = actions.OrbitPoint
	// Vortex swirls particles around an axis.
	Vortex = actions.Vortex
	// Explosion pushes particles away from a center.
	Explosion = actions.Explosion
	// Jet accelerates particles inside a region.
	Jet = actions.Jet
	// TargetColor blends particle colors toward a target.
	TargetColor = actions.TargetColor
	// Fade reduces opacity over time.
	Fade = actions.Fade
	// Grow changes particle size over time.
	Grow = actions.Grow
	// OrientToVelocity aligns orientation with motion.
	OrientToVelocity = actions.OrientToVelocity
	// Move integrates positions — the canonical position action.
	Move = actions.Move
	// RestrictToBox clamps particles into a box.
	RestrictToBox = actions.RestrictToBox
	// CollideParticles performs inter-particle collisions (the
	// locality-dependent action the model's domains exist for).
	CollideParticles = actions.CollideParticles
	// MatchVelocity blends velocities with neighbors.
	MatchVelocity = actions.MatchVelocity
)

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

// Cluster is a simulated heterogeneous cluster.
type Cluster = cluster.Cluster

// NodeType describes one machine model.
type NodeType = cluster.NodeType

// Network models an interconnect.
type Network = cluster.Network

// Compiler selects the simulated toolchain.
type Compiler = cluster.Compiler

// The paper's node types, networks and compilers.
var (
	// TypeA is the HP NetServer E60 (dual PIII 550 MHz).
	TypeA = cluster.TypeA
	// TypeB is the HP NetServer E800 (dual PIII 1 GHz).
	TypeB = cluster.TypeB
	// TypeC is the HP zx2000 (Itanium II 900 MHz).
	TypeC = cluster.TypeC
	// Myrinet is the high-speed SAN.
	Myrinet = cluster.Myrinet
	// FastEthernet is the 100 Mbit/s interconnect.
	FastEthernet = cluster.FastEthernet
)

// The compilers of the evaluation.
const (
	GCC = cluster.GCC
	ICC = cluster.ICC
)

// NewCluster builds a cluster from node groups.
func NewCluster(net Network, comp Compiler, groups ...cluster.NodeSpec) *Cluster {
	return cluster.New(net, comp, groups...)
}

// Nodes is a (type, count) group for NewCluster.
func Nodes(t NodeType, count int) cluster.NodeSpec {
	return cluster.NodeSpec{Type: t, Count: count}
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

// Scenario describes a complete animation (systems, space, balancing,
// rendering).
type Scenario = core.Scenario

// System is one particle system with its per-frame action program.
type System = core.System

// RenderConfig configures the image generator.
type RenderConfig = core.RenderConfig

// ScriptEntry schedules a one-shot steering action at a frame — the
// deterministic form of interactive steering.
type ScriptEntry = core.ScriptEntry

// Result reports a run: virtual time, frame checksums, exchange and
// balancing statistics.
type Result = core.Result

// SpaceMode selects infinite or finite simulated space.
type SpaceMode = core.SpaceMode

// LBMode selects static or dynamic load balancing.
type LBMode = core.LBMode

// The space and balancing modes of the paper's evaluation.
const (
	InfiniteSpace = core.InfiniteSpace
	FiniteSpace   = core.FiniteSpace
	StaticLB      = core.StaticLB
	DynamicLB     = core.DynamicLB
	// DecentralizedLB is the paper's future-work manager-free variant.
	DecentralizedLB = core.DecentralizedLB
)

// DecompMode selects the space-partitioning strategy (Scenario.Decomp).
type DecompMode = core.DecompMode

// The decomposition strategies (see DESIGN.md §13).
const (
	// DecompSlab is the paper's 1-D axis-slab decomposition — the
	// default, bit-identical to the pre-strategy engine.
	DecompSlab = core.DecompSlab
	// DecompGrid splits the cross plane into a 2-D grid of moving cuts.
	DecompGrid = core.DecompGrid
	// DecompVoronoi assigns space to drifting nearest-site cells.
	DecompVoronoi = core.DecompVoronoi
)

// RunSequential executes the scenario on one node — the paper's
// speedup baseline.
func RunSequential(scn Scenario, node NodeType, comp Compiler) (*Result, error) {
	return core.RunSequential(scn, node, comp)
}

// RunParallel executes the scenario on a simulated cluster with nCalc
// calculator processes (plus the manager and the image generator).
func RunParallel(scn Scenario, cl *Cluster, nCalc int) (*Result, error) {
	return core.RunParallel(scn, cl, nCalc)
}

// Profile is the observability record of a profiled run: Figure-2
// phase spans in virtual time, per-rank timelines and the metrics
// registry, with Chrome-trace / Prometheus / JSON exporters.
type Profile = obs.Profile

// RunParallelProfiled is RunParallel with recording switched on. With a
// non-nil telemetry plane every rank also publishes per-frame snapshots
// to it as it runs; a nil plane means no live publishing. Both are
// bit-neutral: the Result is identical to an unprofiled run's, and the
// Profile to an unserved one's.
func RunParallelProfiled(scn Scenario, cl *Cluster, nCalc int, p *TelemetryPlane) (*Result, *Profile, error) {
	return core.RunParallelProfiled(scn, cl, nCalc, frameSink(p))
}

// frameSink is the plane as the engine's frame sink. A nil plane is no
// sink at all, not a non-nil interface holding a nil pointer.
func frameSink(p *TelemetryPlane) obs.FrameSink {
	if p == nil {
		return nil
	}
	return p
}

// TelemetryPlane is the live telemetry plane: an always-on frame sink
// with a flight recorder, SLO watchdogs and an HTTP serving side
// (/metrics, /healthz, /status, /trace, /debug/pprof).
type TelemetryPlane = live.Plane

// TelemetryOptions configures the plane's flight-recorder window and
// watchdog thresholds; the zero value picks sensible defaults.
type TelemetryOptions = live.Options

// TelemetryServer is a running telemetry HTTP server.
type TelemetryServer = live.Server

// NewTelemetryPlane builds a live telemetry plane.
func NewTelemetryPlane(opts TelemetryOptions) *TelemetryPlane {
	return live.NewPlane(opts)
}

// ServeTelemetry starts a plane's HTTP server on addr (":0" picks a
// free port; the bound address is in the returned server's Addr).
func ServeTelemetry(addr string, p *TelemetryPlane) (*TelemetryServer, error) {
	return live.Serve(addr, p)
}

// ---------------------------------------------------------------------
// Multi-process runs (the TCP net fabric)
// ---------------------------------------------------------------------

// Fabric is the transport seam: the interface both the in-process
// virtual router and the TCP net fabric implement (see DESIGN.md §14).
type Fabric = transport.Fabric

// NetFabric is the TCP transport: one rank per OS process, with the
// virtual-time cost model riding in the frame headers so distributed
// runs reproduce in-process runs bit for bit.
type NetFabric = transport.NetFabric

// NetOptions tunes the net fabric's dial and I/O deadlines; the zero
// value picks defaults.
type NetOptions = transport.NetOptions

// Placement maps ranks to cluster nodes (built by Cluster.Place).
type Placement = cluster.Placement

// CostModel is the virtual-time accounting every fabric charges.
type CostModel = transport.CostModel

// DefaultCost returns the standard cost model for a placement and
// network — pass it to ListenNet.
func DefaultCost(place *Placement, net Network) CostModel {
	return transport.DefaultCost(place, net)
}

// NetMap is a parsed cluster config file: the simulated cluster shape
// plus the rank → (role, address) table psnode processes share.
type NetMap = cluster.NetMap

// ParseNetMap parses and validates a cluster config file.
func ParseNetMap(data []byte) (*NetMap, error) { return cluster.ParseNetMap(data) }

// ListenNet starts a net fabric listening for its peers.
func ListenNet(rank, nRanks int, addr string, cost CostModel, opts NetOptions) (*NetFabric, error) {
	return transport.ListenNet(rank, nRanks, addr, cost, opts)
}

// NodeResult is one process's share of a distributed run.
type NodeResult = core.NodeResult

// RunNode executes one rank of the scenario over a connected fabric —
// the per-process engine entry point cmd/psnode wraps. A loopback
// cluster of RunNode calls reproduces RunParallel's frame checksums,
// virtual clocks and traffic totals exactly. With a non-nil telemetry
// plane the rank records its spans and publishes live per-frame
// telemetry to it; a nil plane means neither.
func RunNode(scn Scenario, cl *Cluster, nCalc, rank int, fab Fabric, p *TelemetryPlane) (*NodeResult, error) {
	return core.RunNode(scn, cl, nCalc, rank, fab, frameSink(p))
}

// RunSimsBaseline executes the scenario with the Karl Sims CM-2
// strategy the paper's related work opens with: round-robin particle
// assignment with no domains or balancing, broadcasting ghosts when
// inter-particle actions need them.
func RunSimsBaseline(scn Scenario, cl *Cluster, nCalc int) (*Result, error) {
	return core.RunSimsBaseline(scn, cl, nCalc)
}

// Schedule selects how multiple systems share a frame (§3.3).
type Schedule = core.Schedule

// The multi-system schedules.
const (
	PerSystemSchedule = core.PerSystemSchedule
	BatchedSchedule   = core.BatchedSchedule
)

// ---------------------------------------------------------------------
// Effect presets
// ---------------------------------------------------------------------

// EffectConfig scales an effect preset.
type EffectConfig = effects.Config

// The ready-made effects (in the spirit of the demo effects of the
// original Particle System API).
var (
	// EffectSmoke rises and fades from a point.
	EffectSmoke = effects.Smoke
	// EffectFire burns fast from a basin, yellow to red.
	EffectFire = effects.Fire
	// EffectSparks burst, arc and bounce.
	EffectSparks = effects.Sparks
	// EffectWaterfall pours over an edge onto a shelf.
	EffectWaterfall = effects.Waterfall
	// EffectSnowfall drifts down over a region (the paper's §5.1).
	EffectSnowfall = effects.Snowfall
	// EffectFountainJet sprays from a nozzle (the paper's §5.2).
	EffectFountainJet = effects.FountainJet
)

// EncodeScenario renders a scenario as JSON, so animations can be
// stored and shared declaratively (see cmd/psanim's -config flag).
func EncodeScenario(scn Scenario) ([]byte, error) { return scenario.Encode(scn) }

// DecodeScenario parses a scenario from JSON.
func DecodeScenario(data []byte) (Scenario, error) { return scenario.Decode(data) }

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

// Framebuffer is the software point-splat target.
type Framebuffer = render.Framebuffer

// Camera projects world space to pixels.
type Camera = render.Camera

// OrthoCamera is an orthographic camera.
type OrthoCamera = render.OrthoCamera

// PerspectiveCamera is a pinhole camera.
type PerspectiveCamera = render.PerspectiveCamera

// NewFramebuffer allocates a cleared framebuffer.
func NewFramebuffer(w, h int) *Framebuffer { return render.NewFramebuffer(w, h) }
