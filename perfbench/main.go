// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload closed-loop through the engine's public entry
// point (core.RunParallel), gates every run against the workload's
// reference digest, and prints the end-to-end metrics; with --trace 1
// it instead runs the same scenario through core.RunNode over traced
// fabric endpoints and replays each layer's public calls, printing the
// per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pscluster/internal/core"
)

func main() {
	name := flag.String("workload", "snow-dlb", "workload to run")
	seed := flag.Uint64("seed", 0, "shift added to every particle system's seed")
	secs := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()

	if err := run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, budget time.Duration, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := readHostContext()
	hostJSON, _ := json.Marshal(host) // plain struct of strings and ints
	fmt.Printf("# host %s\n", hostJSON)
	fmt.Printf("# workload %s seed %d\n", w.name, seed)

	b, err := setup(w, seed)
	if err != nil {
		return err
	}
	fmt.Printf("# reference digest %s (%d frames, virtual time %v, seq-exact %v)\n",
		b.gate.ref.sum(), b.ref.Frames, b.ref.Time, w.seqExact)

	var res result
	if traced {
		res, err = b.tracedMetrics(budget)
		if err != nil {
			return err
		}
	} else {
		res = b.endToEndMetrics(budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func metricsOf(specs []metricSpec, vals map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		m[s.Name] = metricValue{Value: vals[s.Name], Unit: s.Unit}
	}
	return m
}

func reportWindow(m *e2e) {
	fmt.Printf("# measured %d runs in %v; hypervisor steal %.1f%% of machine CPU time\n",
		len(m.runs), m.window.Round(time.Millisecond), 100*m.steal)
}

func reportFailures(t *tally) {
	fmt.Printf("# runs attempted %d failed %d failed_frac %v\n",
		t.attempted, t.failed, float64(t.failed)/float64(t.attempted))
	if t.firstErr != nil {
		fmt.Printf("# first failure: %v\n", t.firstErr)
	}
}

// endToEndMetrics measures the untraced closed loop.
func (b *bench) endToEndMetrics(budget time.Duration) result {
	m := b.measure(budget)
	reportWindow(m)
	tl := tailOf(m.runs)
	fmt.Printf("# run_s_tail is p%.2f of %d runs (resolved: %v)\n", tl.pct, tl.n, tl.ok)
	reportFailures(&b.tally)
	vals := map[string]float64{
		"frames_per_s":     float64(m.frames) / m.window.Seconds(),
		"run_s_p50":        median(m.runs),
		"run_s_tail":       tl.value,
		"cpu_s_per_run":    m.perRun(m.cpu.Seconds()),
		"alloc_mb_per_run": m.perRun(float64(m.allocB) / 1e6),
		"allocs_per_run":   m.perRun(float64(m.allocN)),
		"peak_rss_mb":      peakRSSMB(),
		"setup_s":          median(b.setups),
		"model_speedup":    b.seq.Time / b.ref.Time,
	}
	return result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   metricsOf(endToEnd, vals),
	}
}

// tracedMetrics splits the budget in three: an untraced window (for the
// runtime figures and the tracing-overhead base), traced runs, and the
// layer replays.
func (b *bench) tracedMetrics(budget time.Duration) (result, error) {
	third := budget / 3
	m := b.measure(third)
	reportWindow(m)

	var runs []*tracedRun
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < third; n++ {
		tr, err := runTraced(b.w.build(b.seed), b.cl, b.w.nCalc)
		if err == nil {
			err = b.gate.check(tr.dig)
		}
		if err == nil {
			err = tr.checkBooks()
		}
		b.tally.record(err)
		if tr != nil {
			runs = append(runs, tr)
		}
	}
	if len(runs) > 0 {
		fmt.Printf("# traced digest %s over %d traced runs\n", runs[0].dig.sum(), len(runs))
	}

	scn := b.w.build(b.seed)
	scn.CollectParticles = true
	final, err := core.RunParallel(scn, b.cl, b.w.nCalc)
	if err != nil {
		return result{}, fmt.Errorf("population run: %w", err)
	}
	b.tally.record(b.gate.check(digestOf(final)))
	lr, err := newLayerReplay(b.w.build(b.seed), final.FinalParticles, b.seed)
	if err != nil {
		return result{}, err
	}
	slot := third / 8
	kern := lr.kernels(slot)
	src := lr.sources(slot)
	col := lr.collide(slot)
	rsz := lr.resize(slot)
	part := lr.partition(slot)
	don := lr.donate(slot)
	enc, dec := lr.codec(slot)
	spl := lr.splat(slot)
	reportFailures(&b.tally)

	vals := map[string]float64{
		"particle.resize_ns_per_particle":    median(rsz.nsPerUnit),
		"particle.resize_bytes_per_op":       float64(rsz.bytes) / float64(rsz.ops),
		"runtime.gc_cpu_frac":                m.gcCPU,
		"runtime.gc_cycles_per_run":          m.perRun(float64(m.gcCycles)),
		"runtime.gc_pause_s_per_run":         m.perRun(m.gcPause.Seconds()),
		"actions.kernel_ns_per_particle":     median(kern.nsPerUnit),
		"actions.kernel_bytes_per_particle":  float64(kern.bytes) / float64(kern.units),
		"actions.source_ns_per_particle":     median(src.nsPerUnit),
		"actions.collide_ns_per_particle":    median(col.nsPerUnit),
		"particle.partition_ns_per_particle": median(part.nsPerUnit),
		"particle.donate_ns_per_particle":    median(don.nsPerUnit),
		"particle.encode_ns_per_particle":    median(enc.nsPerUnit),
		"particle.decode_ns_per_particle":    median(dec.nsPerUnit),
		"render.splat_ns_per_particle":       median(spl.nsPerUnit),
		"core.seq_run_s":                     median(b.seqs),
	}
	for k, v := range traceFigures(runs, median(m.runs)) {
		vals[k] = v
	}
	for k, v := range exactCounts(b.ref) {
		vals[k] = v
	}
	return result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   metricsOf(perLayer, vals),
	}, nil
}

// traceFigures reduces the traced runs' books to per-run medians.
func traceFigures(runs []*tracedRun, untracedP50 float64) map[string]float64 {
	var walls, send, mgrBusy, mgrWait, imgBusy, imgWait, calcBusy, calcMax, calcWait, intervals []float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		var s float64
		var cb, cw []float64
		for rank, b := range r.ranks {
			s += b.send.Seconds()
			switch core.RoleForRank(rank) {
			case core.RoleManager:
				mgrBusy = append(mgrBusy, b.busy.Seconds())
				mgrWait = append(mgrWait, b.recvWait.Seconds())
			case core.RoleImageGen:
				imgBusy = append(imgBusy, b.busy.Seconds())
				imgWait = append(imgWait, b.recvWait.Seconds())
				for i, f := range b.frames {
					next := b.end
					if i+1 < len(b.frames) {
						next = b.frames[i+1]
					}
					intervals = append(intervals, next.Sub(f).Seconds())
				}
			default:
				cb = append(cb, b.busy.Seconds())
				cw = append(cw, b.recvWait.Seconds())
			}
		}
		send = append(send, s)
		calcBusy = append(calcBusy, mean(cb))
		calcMax = append(calcMax, maxOf(cb))
		calcWait = append(calcWait, mean(cw))
	}
	return map[string]float64{
		"transport.send_s":              median(send),
		"core.imggen_busy_s":            median(imgBusy),
		"transport.imggen_recv_wait_s":  median(imgWait),
		"core.calc_busy_s":              median(calcBusy),
		"core.calc_busy_s_max":          median(calcMax),
		"core.manager_busy_s":           median(mgrBusy),
		"transport.calc_recv_wait_s":    median(calcWait),
		"transport.manager_recv_wait_s": median(mgrWait),
		"core.frame_interval_s_p50":     nearestRank(intervals, 50),
		"core.frame_interval_s_p99":     nearestRank(intervals, 99),
		"core.trace_overhead_frac":      median(walls)/untracedP50 - 1,
	}
}

// exactCounts are the model's deterministic per-run counts; they change
// only with a stated model change.
func exactCounts(ref *core.Result) map[string]float64 {
	imb := mean(ref.FrameImbalance)
	if ref.FrameImbalance == nil {
		// Static balancing collects no per-frame reports; use the final
		// per-calculator loads' max/mean instead.
		loads := make([]float64, len(ref.CalcLoads))
		for i, l := range ref.CalcLoads {
			loads[i] = float64(l)
		}
		if mu := mean(loads); mu > 0 {
			imb = maxOf(loads) / mu
		}
	}
	frames := float64(ref.Frames)
	return map[string]float64{
		"transport.msgs_per_frame":   float64(ref.MsgsSent) / frames,
		"transport.bytes_per_frame":  float64(ref.BytesSent) / frames,
		"core.exchanged_particles":   float64(ref.ExchangedParticles),
		"loadbalance.rounds":         float64(ref.LBRounds),
		"loadbalance.moved":          float64(ref.LBMoved),
		"loadbalance.imbalance_mean": imb,
	}
}
