package main

import (
	"fmt"
	"runtime"
	"time"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
)

// setupRepeats is how many times one run sets up; setup_s is their median.
const setupRepeats = 3

// seqNode and seqCompiler are the sequential reference's machine: the
// paper's 1*B GCC baseline.
var (
	seqNode     = cluster.TypeB
	seqCompiler = cluster.GCC
)

// bench holds one workload's set-up state for one seed.
type bench struct {
	w      *workload
	seed   uint64
	cl     *cluster.Cluster
	gate   gate
	ref    *core.Result
	seq    *core.Result
	setups []float64 // host seconds per set-up
	seqs   []float64 // host seconds per sequential reference run
	tally  tally     // every gated parallel run, set-ups included
}

// setup builds the scenario and cluster, runs the sequential reference
// and one warm-up parallel run, setupRepeats times. The first set-up's
// parallel run becomes the reference digest; every warm-up run is gated
// against it (and, where the workload claims it, against the sequential
// checksums).
func setup(w *workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed}
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		cl := w.cluster()
		seq, err := core.RunSequential(w.build(seed), seqNode, seqCompiler)
		if err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		t1 := time.Now()
		par, err := core.RunParallel(w.build(seed), cl, w.nCalc)
		if err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		t2 := time.Now()
		b.setups = append(b.setups, t2.Sub(t0).Seconds())
		b.seqs = append(b.seqs, t1.Sub(t0).Seconds())
		if i == 0 {
			b.cl, b.seq, b.ref = cl, seq, par
			b.gate.ref = digestOf(par)
			if w.seqExact {
				b.gate.seqSum = seq.FrameChecksums
			}
		}
		b.tally.record(b.gate.check(digestOf(par)))
	}
	return b, nil
}

// tally counts gated runs.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// runOnce runs the workload once through core.RunParallel, gates the
// result and returns its host seconds.
func (b *bench) runOnce() float64 {
	scn := b.w.build(b.seed)
	t0 := time.Now()
	res, err := core.RunParallel(scn, b.cl, b.w.nCalc)
	d := time.Since(t0).Seconds()
	if err == nil {
		err = b.gate.check(digestOf(res))
	}
	b.tally.record(err)
	return d
}

// e2e is the end-to-end measurement of one run of the benchmark.
type e2e struct {
	runs     []float64 // host seconds per engine run
	frames   int
	window   time.Duration
	cpu      time.Duration
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcPause  time.Duration
	gcCPU    float64 // GC share of the runtime's CPU estimate
	steal    float64 // stolen share of the machine's CPU time
}

// measure runs the workload closed-loop, one run at a time, until
// budget has elapsed, with the process counters read around the window.
func (b *bench) measure(budget time.Duration) *e2e {
	runtime.GC()
	s := newSampler()
	s0 := s.read()
	m := &e2e{}
	for time.Since(s0.wall) < budget || len(m.runs) == 0 {
		m.runs = append(m.runs, b.runOnce())
	}
	s1 := s.read()
	m.frames = len(m.runs) * b.ref.Frames
	m.window = s1.wall.Sub(s0.wall)
	m.cpu = s1.cpu - s0.cpu
	m.allocB = s1.allocBytes - s0.allocBytes
	m.allocN = s1.allocObjs - s0.allocObjs
	m.gcCycles = s1.gcCycles - s0.gcCycles
	m.gcPause = s1.gcPause - s0.gcPause
	if dt := s1.ticks - s0.ticks; dt > 0 {
		m.steal = float64(s1.steal-s0.steal) / float64(dt)
	}
	if dt := s1.totalCPU - s0.totalCPU; dt > 0 {
		m.gcCPU = (s1.gcCPU - s0.gcCPU) / dt
	}
	return m
}

func (m *e2e) perRun(x float64) float64 { return x / float64(len(m.runs)) }
