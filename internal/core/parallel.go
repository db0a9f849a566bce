package core

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/domain"
	"pscluster/internal/geom"
	"pscluster/internal/loadbalance"
	"pscluster/internal/obs"
	"pscluster/internal/particle"
	"pscluster/internal/render"
	"pscluster/internal/transport"
)

// Process ranks (paper §3.1.1: manager, image generator, n calculators).
const (
	rankManager  = 0
	rankImageGen = 1
	rankCalc0    = 2
)

// evalWorkPerCalc is the manager-side work units to evaluate one
// calculator's report during load balancing.
const evalWorkPerCalc = 20.0

// RunParallel executes the scenario on the given (simulated) cluster
// with nCalc calculator processes, following the per-frame phase
// structure of the paper's Figure 2. Physics is computed for real by
// goroutines; timing is virtual (see package transport). Each process
// role compiles its frame into a step program — assembled by the
// scenario's Schedule plan and LB policy — and the runner in
// pipeline.go executes it every frame.
func RunParallel(scn Scenario, cl *cluster.Cluster, nCalc int) (*Result, error) {
	res, _, err := runParallel(scn, cl, nCalc, false, nil)
	return res, err
}

// RunParallelProfiled runs like RunParallel with the observability layer
// on: every process records Figure-2 phase spans, per-frame blocked-wait
// and communication time, and traffic metrics. With a non-nil sink every
// process also publishes one live FrameRecord per frame (its spans,
// message events, cloned metrics and role status) at its frame
// boundary. Recording and publishing read virtual clocks but never
// advance them, so the Result — frame checksums, virtual times, traffic
// totals — is bit-identical to RunParallel's, and the Profile is the
// same with or without a sink.
func RunParallelProfiled(scn Scenario, cl *cluster.Cluster, nCalc int, sink obs.FrameSink) (*Result, *obs.Profile, error) {
	return runParallel(scn, cl, nCalc, true, sink)
}

func runParallel(scn Scenario, cl *cluster.Cluster, nCalc int, profiled bool, sink obs.FrameSink) (*Result, *obs.Profile, error) {
	place, err := prepare(&scn, cl, nCalc)
	if err != nil {
		return nil, nil, err
	}
	router := transport.NewRouter(place, cl.Net)
	ranks := make([]rankProc, NumRanks(nCalc))
	for r := range ranks {
		p, err := newRank(&scn, place, nCalc, r, router.Endpoint(r), profiled)
		if err != nil {
			return nil, nil, err
		}
		p.recorder().AttachSink(sink)
		ranks[r] = p
	}
	if err := runRanks(router.Abort, ranks); err != nil {
		return nil, nil, err
	}

	res := assembleResult(&scn, ranks)
	var prof *obs.Profile
	if profiled {
		prof = assembleProfile(res, ranks)
	}
	return res, prof, nil
}

// prepare is the setup every runner shares: it validates the scenario
// and places nCalc calculators, the manager and the image generator on
// the cluster.
func prepare(scn *Scenario, cl *cluster.Cluster, nCalc int) (*cluster.Placement, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if nCalc < 1 {
		return nil, fmt.Errorf("core: need at least one calculator")
	}
	return cl.Place(nCalc)
}

// procBase is the state every rank's role shares: its scenario, its
// fabric endpoint, the compute rate of the node it is placed on, and
// its recorder and trace events (nil unless the run is profiled or
// traced).
type procBase struct {
	scn    *Scenario
	ep     transport.Fabric
	rate   float64
	rec    *obs.Recorder
	events []Event
}

func (b *procBase) scenario() *Scenario        { return b.scn }
func (b *procBase) endpoint() transport.Fabric { return b.ep }
func (b *procBase) recorder() *obs.Recorder    { return b.rec }
func (b *procBase) rank() int                  { return b.ep.Rank() }
func (b *procBase) pushEvent(ev Event)         { b.events = append(b.events, ev) }

// rankProc is one rank as runRanks drives it and the result assembly
// reads it: its role body, its endpoint and its recorder.
type rankProc interface {
	rank() int
	endpoint() transport.Fabric
	recorder() *obs.Recorder
	run() error
}

// newRank builds rank's model role over fab — the manager, the image
// generator or a calculator, in the fixed layout of paper §3.1.1. The
// in-process runner (every rank over one virtual router) and RunNode
// (one rank per OS process over a net fabric) both build their ranks
// here, so they run bit-identical process state. With record set the
// rank gets a Figure-2 recorder attached to fab as its observer; the
// rank's goroutine owns it without synchronization, and it is read only
// after runRanks returns.
func newRank(scn *Scenario, place *cluster.Placement, nCalc, rank int, fab transport.Fabric, record bool) (rankProc, error) {
	base := procBase{scn: scn, ep: fab, rate: place.Rate(rank)}
	observe := func(name string) {
		if record {
			base.rec = obs.NewRecorder(rank, name)
			fab.SetObserver(base.rec)
		}
	}
	switch rank {
	case rankManager:
		observe("manager")
		return newManagerProc(base, place, nCalc)
	case rankImageGen:
		observe("image generator")
		return newImageGenProc(base, nCalc), nil
	default:
		observe(fmt.Sprintf("calculator %d", rank-rankCalc0))
		return newCalcProc(base, place, nCalc, rank-rankCalc0)
	}
}

// runRanks runs every rank on its own goroutine and waits for all of
// them. A rank's error or panic aborts the fabric, which unblocks its
// peers' pending operations so the run tears down rather than hangs. A
// panic becomes "core: rank N panicked"; ErrAborted — a peer tore the
// run down — passes through as itself. The root cause wins: the first
// error in rank order that is not ErrAborted is returned before any
// ErrAborted.
func runRanks(abort func(), ranks []rankProc) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, p := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if e, ok := r.(error); ok && errors.Is(e, transport.ErrAborted) {
						errs[i] = e
					} else {
						errs[i] = fmt.Errorf("core: rank %d panicked: %v", p.rank(), r)
					}
					abort()
				}
			}()
			if err := p.run(); err != nil {
				errs[i] = err
				abort()
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil && !errors.Is(e, transport.ErrAborted) {
			return e
		}
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// sumRanks fills res's per-process clocks, its run time (the latest
// clock) and its traffic totals from every rank's endpoint.
func sumRanks(res *Result, ranks []rankProc) {
	for _, p := range ranks {
		ep := p.endpoint()
		t := ep.Clock().Now()
		res.PerProcTime = append(res.PerProcTime, t)
		if t > res.Time {
			res.Time = t
		}
		st := ep.Stats()
		res.MsgsSent += st.MsgsSent
		res.BytesSent += st.BytesSent
		res.MsgsRecv += st.MsgsRecv
		res.BytesRecv += st.BytesRecv
	}
}

// assembleProfile merges the per-process recorders and adds the
// run-level metrics the recorders cannot see on their own.
func assembleProfile(res *Result, ranks []rankProc) *obs.Profile {
	recs := make([]*obs.Recorder, len(ranks))
	for r, p := range ranks {
		recs[r] = p.recorder()
	}
	p := obs.NewProfile(recs...)
	reg := p.Registry

	var orders, evals int
	for _, b := range ranks[rankManager].(*managerProc).balancers {
		orders += b.Stat.Orders
		evals += b.Stat.Evaluations
	}
	reg.Counter("pscluster_lb_evaluations_total",
		"load-balancing evaluation rounds run by the manager").Add(float64(evals))
	reg.Counter("pscluster_lb_orders_total",
		"load-balancing orders issued by the manager").Add(float64(orders))
	reg.Counter("pscluster_lb_rounds_total",
		"balancing rounds that produced at least one order").Add(float64(res.LBRounds))
	reg.Counter("pscluster_lb_moved_particles_total",
		"particles moved by balancing orders (represented scale)").Add(float64(res.LBMoved))
	reg.Counter("pscluster_exchanged_particles_total",
		"calculator-to-calculator end-of-frame exchanges (represented scale)").Add(float64(res.ExchangedParticles))
	reg.Counter("pscluster_exchanged_bytes_total",
		"billed bytes of end-of-frame exchanges").Add(float64(res.ExchangedBytes))
	reg.Counter("pscluster_frames_total",
		"frames delivered by the image generator").Add(float64(len(res.FrameChecksums)))

	for i, load := range res.CalcLoads {
		reg.Gauge("pscluster_calc_particles",
			"final stored particles per calculator",
			"rank", strconv.Itoa(rankCalc0+i)).Set(float64(load))
	}
	for r, p := range ranks[rankCalc0:] {
		passes := p.(*calcProc).passes
		reg.Counter("pscluster_compute_bin_passes_total",
			"bin-batch kernel applications per calculator",
			"rank", strconv.Itoa(rankCalc0+r)).Add(float64(passes.bins))
		reg.Counter("pscluster_compute_particle_passes_total",
			"particle kernel applications per calculator (stored scale)",
			"rank", strconv.Itoa(rankCalc0+r)).Add(float64(passes.particles))
	}
	for rank, t := range res.PerProcTime {
		reg.Gauge("pscluster_proc_time_seconds",
			"final virtual clock per process",
			"rank", strconv.Itoa(rank)).Set(t)
	}
	return p
}

// assembleResult merges per-process state into one Result.
func assembleResult(scn *Scenario, ranks []rankProc) *Result {
	mgr := ranks[rankManager].(*managerProc)
	img := ranks[rankImageGen].(*imageGenProc)
	calcs := make([]*calcProc, 0, len(ranks)-rankCalc0)
	for _, p := range ranks[rankCalc0:] {
		calcs = append(calcs, p.(*calcProc))
	}
	res := &Result{
		Frames:         scn.Frames,
		FrameChecksums: img.checksums,
		FrameTimes:     img.frameTimes,
		LBRounds:       mgr.lbRounds,
		FrameImbalance: mgr.imbalance,
	}
	sumRanks(res, ranks)
	exchanged, calcMoved := 0, 0
	for _, c := range calcs {
		exchanged += c.exchangedStored
		calcMoved += c.lbMovedStored
		load := 0
		for _, st := range c.stores {
			load += st.Len()
		}
		res.CalcLoads = append(res.CalcLoads, load)
	}
	res.ExchangedParticles = int(float64(exchanged) * scn.Ratio)
	res.ExchangedBytes = int(float64(exchanged*particle.WireSize) * scn.Ratio)
	res.LBMoved = int(float64(mgr.lbMovedStored+calcMoved) * scn.Ratio)
	if scn.CollectParticles {
		res.FinalParticles = make([][]particle.Particle, len(scn.Systems))
		for si := range scn.Systems {
			var all []particle.Particle
			for _, c := range calcs {
				all = append(all, c.stores[si].All()...)
			}
			sortParticles(all)
			res.FinalParticles[si] = all
		}
	}
	if scn.Trace {
		res.Events = append(res.Events, mgr.events...)
		res.Events = append(res.Events, img.events...)
		for _, c := range calcs {
			res.Events = append(res.Events, c.events...)
		}
	}
	return res
}

// calcRankList returns the calculator ranks for an nCalc-calculator
// run, ascending.
func calcRankList(nCalc int) []int {
	ranks := make([]int, nCalc)
	for i := range ranks {
		ranks[i] = rankCalc0 + i
	}
	return ranks
}

// calcPower returns the relative compute-power vector the manager and
// the calculators share for balancing decisions: the placement's rate
// per calculator rank, or flat 1s when the scenario ignores power.
func calcPower(scn *Scenario, place *cluster.Placement, nCalc int) []float64 {
	power := make([]float64, nCalc)
	for i := range power {
		if scn.IgnorePower {
			power[i] = 1
		} else {
			power[i] = place.Rate(rankCalc0 + i)
		}
	}
	return power
}

// newDecomps builds one fresh decomposition per particle system. Every
// process keeps its own replica (as the paper's per-process dimension
// tables do) and updates it from the same broadcast orders.
func newDecomps(scn *Scenario, nCalc int) ([]domain.Decomposition, error) {
	ds := make([]domain.Decomposition, len(scn.Systems))
	for i := range ds {
		d, err := scn.newDecomposition(nCalc)
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}

// newManagerProc builds the manager-role process state on base.
func newManagerProc(base procBase, place *cluster.Placement, nCalc int) (*managerProc, error) {
	decomps, err := newDecomps(base.scn, nCalc)
	if err != nil {
		return nil, err
	}
	return &managerProc{
		procBase: base, decomps: decomps, power: calcPower(base.scn, place, nCalc),
		calcRanks: calcRankList(nCalc), nCalc: nCalc,
	}, nil
}

// newCalcProc builds calculator idx's process state on base.
func newCalcProc(base procBase, place *cluster.Placement, nCalc, idx int) (*calcProc, error) {
	scn := base.scn
	decomps, err := newDecomps(scn, nCalc)
	if err != nil {
		return nil, err
	}
	c := &calcProc{
		procBase: base, idx: idx, decomps: decomps, nCalc: nCalc,
		power: calcPower(scn, place, nCalc),
	}
	lo, hi := scn.SpaceInterval()
	c.stores = make([]*particle.ColumnStore, len(scn.Systems))
	c.groups = make([][]*particle.Batch, len(scn.Systems))
	for si := range c.groups {
		c.groups[si] = make([]*particle.Batch, nCalc)
		for p := range c.groups[si] {
			c.groups[si][p] = &particle.Batch{}
		}
	}
	for si := range c.stores {
		// The store's axis interval drives sub-domain binning. Slab
		// domains are axis intervals, so the store covers exactly the
		// owned slice (and donation sorts only edge bins); the other
		// strategies own regions no interval describes, so the store
		// bins over the full extent and ownership lives in the
		// decomposition alone.
		slo, shi := lo, hi
		if t, ok := decomps[si].(*domain.Table); ok {
			slo, shi = t.Bounds(idx)
		}
		c.stores[si] = particle.NewColumnStore(scn.Axis, slo, shi, scn.Bins)
	}
	return c, nil
}

// newImageGenProc builds the image-generator process state on base.
func newImageGenProc(base procBase, nCalc int) *imageGenProc {
	return &imageGenProc{procBase: base, calcRanks: calcRankList(nCalc)}
}

// rankContexts builds rank's per-system action contexts, each RNG seeded
// from the system seed with the rank in the high word. The manager
// (rank 0) thus draws the plain system stream, as the sequential engine
// does. Stochastic per-particle actions use the particles' private
// streams, so a calculator's RNG only matters for actions that
// deliberately want process-local noise.
func rankContexts(scn *Scenario, rank int) []*actions.Context {
	ctxs := make([]*actions.Context, len(scn.Systems))
	for i := range ctxs {
		ctxs[i] = &actions.Context{RNG: geom.NewRNG(scn.Systems[i].Seed ^ uint64(rank)<<32), DT: scn.DT}
	}
	return ctxs
}

// billed inflates a payload size by the representation ratio.
func billed(payloadLen int, ratio float64) int {
	return transport.Billed(payloadLen, ratio)
}

// groupByOwner splits creation slot slot's particles of system si by
// owning calculator. The groups are the manager's per-slot scratch,
// reused every frame: keyed by creation slot, not system, because the
// batched plan holds every slot's groups until its combined send.
func (m *managerProc) groupByOwner(slot, si int, ps []particle.Particle) [][]particle.Particle {
	for len(m.slotGroups) <= slot {
		m.slotGroups = append(m.slotGroups, make([][]particle.Particle, m.nCalc))
	}
	groups := m.slotGroups[slot]
	for c := range groups {
		groups[c] = groups[c][:0]
	}
	d := m.decomps[si]
	for i := range ps {
		o := d.OwnerOf(ps[i].Pos)
		groups[o] = append(groups[o], ps[i])
	}
	return groups
}

// groupOwnerBatches splits a batch of system si by owning calculator,
// scanning the position column in order (the same particle order
// groupByOwner produces from the equivalent slice). The groups are the
// calculator's per-(system, peer) scratch, shared by the exchange and
// ownership migration: each call overwrites the system's previous
// groups, which every caller has sent or stored by then.
//
//pslint:hotpath
func (c *calcProc) groupOwnerBatches(si int, b *particle.Batch) []*particle.Batch {
	groups := c.groups[si]
	for _, g := range groups {
		g.Clear()
	}
	d := c.decomps[si]
	for i := range b.Pos {
		groups[d.OwnerOf(b.Pos[i])].AppendIndex(b, i)
	}
	return groups
}

// ---------------------------------------------------------------------
// Manager (rank 0)
// ---------------------------------------------------------------------

type managerProc struct {
	procBase
	decomps   []domain.Decomposition
	power     []float64
	calcRanks []int
	nCalc     int

	ctxs          []*actions.Context
	balancers     []*loadbalance.Balancer
	lbRounds      int
	lbMovedStored int
	imbalance     []float64 // per-frame max/mean load ratio, from LB reports

	// slotGroups is the creation scatter's grouping scratch, one
	// per-calculator group set per creation slot; see groupByOwner.
	slotGroups [][][]particle.Particle

	fs managerFrame
}

// managerFrame is the manager's per-frame scratch: the balancing
// orders flowing from the lb-evaluation step to the dims-broadcast
// step, and the per-calculator loads accumulated from the frame's
// reports for the imbalance record.
type managerFrame struct {
	frame       int
	orders      []loadbalance.Order   // per-system schedule: current system's orders
	ordersBySys [][]loadbalance.Order // batched schedule: orders for every system
	frameLoads  []float64             // stored particles reported per calculator
}

// slab returns system si's decomposition as the paper's slab Table.
// Only the slab-specific LB policies call it, and the engine never
// routes a non-slab scenario to them (see Scenario.lbPolicy).
func (m *managerProc) slab(si int) *domain.Table { return m.decomps[si].(*domain.Table) }

// addFrameLoad accumulates one calculator's reported load into the
// frame's imbalance record.
func (m *managerProc) addFrameLoad(ci int, load float64) {
	if m.fs.frameLoads == nil {
		m.fs.frameLoads = make([]float64, m.nCalc)
	}
	m.fs.frameLoads[ci] += load
}

// recordImbalance closes the frame's imbalance record: max/mean of the
// reported per-calculator loads (1 when nothing was reported — a
// perfectly balanced empty frame). Frames without LB reports (static
// balancing) record nothing.
func (m *managerProc) recordImbalance() {
	if m.fs.frameLoads == nil {
		return
	}
	var max, total float64
	for _, l := range m.fs.frameLoads {
		if l > max {
			max = l
		}
		total += l
	}
	imb := 1.0
	if total > 0 {
		imb = max * float64(len(m.fs.frameLoads)) / total
	}
	m.imbalance = append(m.imbalance, imb)
}

func (m *managerProc) beginFrame(frame int) { m.fs = managerFrame{frame: frame} }

func (m *managerProc) annotateLive(fr *obs.FrameRecord) {
	fr.LBRounds = m.lbRounds
	for _, b := range m.balancers {
		fr.LBOrders += b.Stat.Orders
	}
}

func (m *managerProc) run() error {
	scn := m.scn
	m.balancers = make([]*loadbalance.Balancer, len(scn.Systems))
	m.ctxs = rankContexts(scn, rankManager)
	for i := range scn.Systems {
		m.balancers[i] = loadbalance.New(scn.LBThreshold, scn.LBMinBatch)
		if scn.NaivePairing {
			m.balancers[i].Alternate = false
		}
	}
	return runProgram(m, scn.Schedule.plan().compileManager(m, scn.lbPolicy()))
}

// ---------------------------------------------------------------------
// Calculator (ranks 2..2+n-1)
// ---------------------------------------------------------------------

type calcProc struct {
	procBase
	idx     int // calculator index (rank - 2)
	decomps []domain.Decomposition
	stores  []*particle.ColumnStore
	nCalc   int
	power   []float64

	ctxs   []*actions.Context
	others []int // every calculator rank except this one, ascending

	// plans is the compiled (and possibly fused) run program per
	// system; passes tallies the per-bin kernel applications they made.
	plans  [][]actions.Run
	passes passCount

	exchangedStored int
	lbMovedStored   int

	// groups is the exchange grouping scratch, one batch per (system,
	// peer); see groupOwnerBatches.
	groups [][]*particle.Batch

	// wire is the reusable decode scratch for inbound particle batches:
	// payloads decode into its columns (no per-message allocation) and
	// are copied into the target store by AddBatch.
	wire particle.Batch

	// renderBlobs is the batched render send's reusable slot slice (the
	// pooled blob buffers themselves are consumed by the combine).
	renderBlobs [][]byte

	fs calcFrame
}

// calcFrame is a calculator's per-frame scratch: the accumulated work
// and pre-exchange loads feeding the load reports, and the balancing
// orders flowing from the new-dims step to the load-balance step.
type calcFrame struct {
	frame   int
	work    []float64 // accumulated work units, per system
	oldLoad []int     // pre-exchange particle count, per system

	// Per-system schedule: the current system's balancing order.
	order   *loadbalance.Order
	donated *particle.Batch

	// Batched schedule: one order and donation per system.
	orders    []*loadbalance.Order
	donations []*particle.Batch
}

func (c *calcProc) beginFrame(frame int) {
	work, oldLoad := c.fs.work, c.fs.oldLoad
	for i := range work {
		work[i] = 0
	}
	for i := range oldLoad {
		oldLoad[i] = 0
	}
	c.fs = calcFrame{frame: frame, work: work, oldLoad: oldLoad}
}

// slab returns system si's decomposition as the paper's slab Table;
// see managerProc.slab.
func (c *calcProc) slab(si int) *domain.Table { return c.decomps[si].(*domain.Table) }

func (c *calcProc) annotateLive(fr *obs.FrameRecord) {
	for _, st := range c.stores {
		fr.Particles += st.Len()
	}
}

// otherCalcRanks returns every calculator rank except this one, ascending.
func (c *calcProc) otherCalcRanks() []int {
	out := make([]int, 0, c.nCalc-1)
	for i := 0; i < c.nCalc; i++ {
		if i != c.idx {
			out = append(out, rankCalc0+i)
		}
	}
	return out
}

func (c *calcProc) run() error {
	scn := c.scn
	c.ctxs = rankContexts(scn, c.rank())
	c.others = c.otherCalcRanks()
	c.fs.work = make([]float64, len(scn.Systems))
	c.fs.oldLoad = make([]int, len(scn.Systems))
	c.renderBlobs = make([][]byte, 0, len(scn.Systems))
	c.plans = compilePlans(scn)
	return runProgram(c, scn.Schedule.plan().compileCalc(c, scn.lbPolicy()))
}

// ---------------------------------------------------------------------
// Image generator (rank 1)
// ---------------------------------------------------------------------

type imageGenProc struct {
	procBase
	calcRanks []int

	fb  *render.Framebuffer // nil unless the scenario rasterizes
	cam render.Camera

	// The tiled render plane (DESIGN §16). plane is nil when the
	// scenario renders serially; fbs double-buffers frames in overlapped
	// (PipelineFrames) mode, with finish[i] carrying the async
	// checksum+write job still running on fbs[i]. wire is the serial
	// path's reusable decode scratch; gather and blobs are the collect
	// phase's per-frame message/slot scratch.
	plane  *render.Plane
	fbs    [2]*render.Framebuffer
	fbIdx  int
	finish [2]<-chan error
	wire   particle.Batch
	gather []transport.Message
	blobs  [][][]byte

	checksums  []uint64
	frameTimes []float64

	fs imageFrame
}

// overlap reports whether frame rasterization runs on the plane's
// finisher goroutine, overlapped with the next frame's collect.
func (g *imageGenProc) overlap() bool {
	return g.plane != nil && g.scn.PipelineFrames
}

// renderWidth resolves the configured render-worker width: 0 and 1 are
// the serial splatter, negative means GOMAXPROCS.
func renderWidth(scn *Scenario) int {
	w := scn.Render.RenderWorkers
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		return 1
	}
	return w
}

// imageFrame is the image generator's per-frame scratch: the running
// frame checksum accumulated while collecting render batches.
type imageFrame struct {
	frame    int
	frameSum uint64
}

func (g *imageGenProc) beginFrame(frame int) { g.fs = imageFrame{frame: frame} }

func (g *imageGenProc) annotateLive(fr *obs.FrameRecord) {
	fr.FramesDone = len(g.checksums)
}

func (g *imageGenProc) run() error {
	scn := g.scn
	// Preallocate the checksum log: overlapped finish jobs write their
	// slot through a pointer, so the backing array must never move.
	g.checksums = make([]uint64, 0, scn.Frames)
	g.gather = make([]transport.Message, len(g.calcRanks))
	g.blobs = make([][][]byte, len(g.calcRanks))
	if scn.Render.Rasterize {
		g.fbs[0] = render.NewFramebuffer(scn.Render.Width, scn.Render.Height)
		g.fb = g.fbs[0]
		g.cam = defaultCamera(scn)
		if err := ensureOutputDir(scn); err != nil {
			return err
		}
		if w := renderWidth(scn); w > 1 {
			g.plane = render.NewPlane(w)
			defer g.plane.Close()
			if scn.PipelineFrames {
				g.fbs[1] = render.NewFramebuffer(scn.Render.Width, scn.Render.Height)
				// Start at 1 so the first frame's beginFrameFB flips to 0.
				g.fbIdx = 1
			}
		}
	}
	if err := runProgram(g, scn.Schedule.plan().compileImage(g)); err != nil {
		return err
	}
	return g.drainFinish()
}

// drainFinish joins the overlapped finish jobs still in flight after
// the last frame, surfacing the first error.
func (g *imageGenProc) drainFinish() error {
	var first error
	for i, ch := range g.finish {
		if ch == nil {
			continue
		}
		g.finish[i] = nil
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}
