package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
	"pscluster/internal/transport"
)

// tiny is a seconds-scale stand-in for the benchmark workloads: snow at
// the test-suite scale, four frames, three calculators, with dynamic
// balancing so the traced digest covers donations too.
func tiny(sched core.Schedule) *workload {
	cfg := experiments.Small
	cfg.Frames = 4
	return &workload{
		name: "tiny",
		build: func(seed uint64) core.Scenario {
			scn := experiments.Snow(cfg, core.FiniteSpace, core.DynamicLB)
			scn.Schedule = sched
			shiftSeeds(&scn, seed)
			return scn
		},
		cluster:  homogeneousB,
		nCalc:    3,
		seqExact: true,
	}
}

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n, idx int
		pct    float64
		ok     bool
	}{
		{n: 1, idx: 0, pct: 100},
		{n: 10, idx: 9, pct: 100},
		{n: 11, idx: 0, pct: 100.0 / 11, ok: true},
		{n: 20, idx: 9, pct: 50, ok: true},
		{n: 40, idx: 29, pct: 75, ok: true},
		{n: 1000, idx: 989, pct: 99, ok: true},
	} {
		idx, pct, ok := tailRank(tc.n)
		if idx != tc.idx || pct != tc.pct || ok != tc.ok {
			t.Errorf("tailRank(%d) = (%d, %v, %v), want (%d, %v, %v)",
				tc.n, idx, pct, ok, tc.idx, tc.pct, tc.ok)
		}
	}
}

func TestTailOfLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 23, 57} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		tl := tailOf(xs)
		beyond := 0
		for _, x := range xs {
			if x > tl.value {
				beyond++
			}
		}
		if beyond != tailMinBeyond || tl.n != n || !tl.ok {
			t.Errorf("n=%d: tail %v has %d samples beyond (n=%d ok=%v)", n, tl.value, beyond, tl.n, tl.ok)
		}
	}
	if tl := tailOf([]float64{3, 1, 2}); tl.value != 3 || tl.ok {
		t.Errorf("short sample: tail %+v, want the unresolved maximum", tl)
	}
}

func TestMutatedReferenceCountsAsFailure(t *testing.T) {
	b, err := setup(tiny(core.PerSystemSchedule), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.runOnce()
	if b.tally.attempted != setupRepeats+1 || b.tally.failed != 0 {
		t.Fatalf("unmutated reference: attempted %d failed %d (%v)",
			b.tally.attempted, b.tally.failed, b.tally.firstErr)
	}

	b.gate.ref.Checksums = slices.Clone(b.gate.ref.Checksums)
	b.gate.ref.Checksums[0] ^= 1
	b.tally = tally{}
	b.runOnce()
	if b.tally.attempted != 1 || b.tally.failed != 1 {
		t.Fatalf("mutated reference: attempted %d failed %d, want 1 and 1", b.tally.attempted, b.tally.failed)
	}
}

func TestGateChecksSequentialChecksums(t *testing.T) {
	b, err := setup(tiny(core.PerSystemSchedule), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := digestOf(b.ref)
	if err := b.gate.check(d); err != nil {
		t.Fatalf("reference fails its own gate: %v", err)
	}
	b.gate.seqSum = slices.Clone(b.gate.seqSum)
	b.gate.seqSum[len(b.gate.seqSum)-1]++
	if b.gate.check(d) == nil {
		t.Fatal("a sequential-checksum mismatch passed the gate")
	}
}

func TestSeedChangesDigest(t *testing.T) {
	w := tiny(core.PerSystemSchedule)
	sums := map[uint64]string{}
	for _, seed := range []uint64{0, 1, 0} {
		res, err := core.RunParallel(w.build(seed), w.cluster(), w.nCalc)
		if err != nil {
			t.Fatal(err)
		}
		sum := digestOf(res).sum()
		if prev, ok := sums[seed]; ok && prev != sum {
			t.Errorf("seed %d digest not reproducible: %s then %s", seed, prev, sum)
		}
		sums[seed] = sum
	}
	if sums[0] == sums[1] {
		t.Errorf("seeds 0 and 1 share digest %s", sums[0])
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, sched := range []core.Schedule{core.PerSystemSchedule, core.BatchedSchedule} {
		t.Run(sched.String(), func(t *testing.T) {
			w := tiny(sched)
			res, err := core.RunParallel(w.build(0), w.cluster(), w.nCalc)
			if err != nil {
				t.Fatal(err)
			}
			if res.LBMoved == 0 || res.ExchangedParticles == 0 {
				t.Fatalf("scenario moves nothing (LBMoved %d, exchanged %d): the count check is vacuous",
					res.LBMoved, res.ExchangedParticles)
			}
			tr, err := runTraced(w.build(0), w.cluster(), w.nCalc)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tr.dig, digestOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("traced digest\n %+v\nuntraced\n %+v", got, want)
			}
			if err := tr.checkBooks(); err != nil {
				t.Error(err)
			}
			if n := len(tr.ranks[1].frames); n != 4 {
				t.Errorf("image generator stamped %d frame boundaries, want 4", n)
			}
		})
	}
}

// fakeFabric records which methods the decorator forwarded.
type fakeFabric struct {
	called map[string][]any
	clock  cluster.Clock
	stats  transport.Stats
}

func (f *fakeFabric) note(name string, args ...any) { f.called[name] = args }

func (f *fakeFabric) Rank() int                        { f.note("Rank"); return 7 }
func (f *fakeFabric) Clock() *cluster.Clock            { f.note("Clock"); return &f.clock }
func (f *fakeFabric) Stats() *transport.Stats          { f.note("Stats"); return &f.stats }
func (f *fakeFabric) SetObserver(o transport.Observer) { f.note("SetObserver", o) }
func (f *fakeFabric) SetFrame(fr int)                  { f.note("SetFrame", fr) }
func (f *fakeFabric) QueueDepth() int                  { f.note("QueueDepth"); return 3 }
func (f *fakeFabric) Abort()                           { f.note("Abort") }
func (f *fakeFabric) Close() error                     { f.note("Close"); return os.ErrClosed }
func (f *fakeFabric) Send(to int, tag transport.Tag, p []byte) {
	f.note("Send", to, tag, len(p))
}
func (f *fakeFabric) SendScaled(to int, tag transport.Tag, p []byte, r float64) {
	f.note("SendScaled", to, tag, len(p), r)
}
func (f *fakeFabric) SendSized(to int, tag transport.Tag, p []byte, n int) {
	f.note("SendSized", to, tag, len(p), n)
}
func (f *fakeFabric) Recv(from int, tag transport.Tag) transport.Message {
	f.note("Recv", from, tag)
	return transport.Message{From: from, Tag: tag, Bytes: 11}
}
func (f *fakeFabric) RecvFromEach(froms []int, tag transport.Tag) []transport.Message {
	f.note("RecvFromEach", len(froms), tag)
	return make([]transport.Message, len(froms))
}

func TestTracedFabricForwardsEveryMethod(t *testing.T) {
	inner := &fakeFabric{called: map[string][]any{}}
	fab := newTracedFabric(inner, time.Now())
	var f transport.Fabric = fab

	if f.Rank() != 7 || f.Clock() != &inner.clock || f.Stats() != &inner.stats ||
		f.QueueDepth() != 3 || f.Close() != os.ErrClosed {
		t.Error("a result was not passed back unchanged")
	}
	f.SetObserver(nil)
	f.SetFrame(5)
	f.Send(2, transport.TagParticles, make([]byte, 3))
	f.SendScaled(3, transport.TagLBParticles, make([]byte, 4), 2.5)
	f.SendSized(4, transport.TagGhosts, make([]byte, 5), 50)
	if m := f.Recv(6, transport.TagLoadReport); m.From != 6 || m.Bytes != 11 {
		t.Errorf("Recv returned %+v", m)
	}
	if ms := f.RecvFromEach([]int{2, 3}, transport.TagNewDims); len(ms) != 2 {
		t.Errorf("RecvFromEach returned %d messages", len(ms))
	}
	f.Abort()

	want := map[string][]any{
		"SetFrame":     {5},
		"Send":         {2, transport.TagParticles, 3},
		"SendScaled":   {3, transport.TagLBParticles, 4, 2.5},
		"SendSized":    {4, transport.TagGhosts, 5, 50},
		"Recv":         {6, transport.TagLoadReport},
		"RecvFromEach": {2, transport.TagNewDims},
	}
	iface := reflect.TypeOf((*transport.Fabric)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		name := iface.Method(i).Name
		got, ok := inner.called[name]
		if !ok {
			t.Errorf("%s was not forwarded", name)
			continue
		}
		if w, ok := want[name]; ok && !reflect.DeepEqual(got, w) {
			t.Errorf("%s forwarded %v, want %v", name, got, w)
		}
	}
	if len(fab.tr.frames) != 1 {
		t.Errorf("SetFrame stamped %d frame boundaries, want 1", len(fab.tr.frames))
	}
}

func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n %+v\nprogram\n %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n %+v\nprogram\n %+v", bj.PerLayer, perLayer)
	}
}
