package core

import (
	"fmt"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/geom"
)

// Bit-equality of the batched schedule against the sequential engine
// across the full {schedule} × {LB mode} × {calculators} cross-product
// lives in TestScheduleLBCrossProduct (pipeline_test.go).

func TestBatchedScheduleSendsFewerMessages(t *testing.T) {
	perSys := miniSnow(DynamicLB, FiniteSpace)
	batched := miniSnow(DynamicLB, FiniteSpace)
	batched.Schedule = BatchedSchedule
	a, err := RunParallel(perSys, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(batched, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Three systems share each phase's messages: expect roughly a 3x
	// reduction, require at least 2x.
	if b.MsgsSent*2 > a.MsgsSent {
		t.Errorf("batched sent %d messages vs per-system %d; expected < half",
			b.MsgsSent, a.MsgsSent)
	}
	// Payload volume stays in the same ballpark (same particles move;
	// multi-batch framing adds a few header bytes).
	if b.BytesSent > a.BytesSent+a.BytesSent/100 || b.BytesSent < a.BytesSent/2 {
		t.Errorf("batched bytes %d vs per-system %d out of expected band",
			b.BytesSent, a.BytesSent)
	}
}

// The §3.3 trade-off, both ways: batching amortizes per-system message
// latency but gives up the overlap between one system's render ingest
// and the next system's compute. With many small systems over a
// high-latency network, batching wins; with heavy render traffic, the
// per-system pipeline wins.
func TestBatchedScheduleTradeoff(t *testing.T) {
	cl := cluster.New(cluster.FastEthernet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 4})

	// Latency-dominated: 12 nearly-empty systems.
	mkLatencyBound := func(sched Schedule) Scenario {
		scn := miniSnow(DynamicLB, FiniteSpace)
		base := scn.Systems[0]
		scn.Systems = nil
		for i := 0; i < 12; i++ {
			s := base
			s.Name = fmt.Sprintf("tiny-%d", i)
			s.Seed = uint64(50 + i)
			scn.Systems = append(scn.Systems, s)
		}
		// Shrink creation so compute and render are negligible.
		for i := range scn.Systems {
			src := *scn.Systems[i].Actions[0].(*actions.Source)
			src.Rate = 10
			acts := append([]actions.Action(nil), scn.Systems[i].Actions...)
			acts[0] = &src
			scn.Systems[i].Actions = acts
		}
		scn.Schedule = sched
		return scn
	}
	a, err := RunParallel(mkLatencyBound(PerSystemSchedule), cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(mkLatencyBound(BatchedSchedule), cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Time >= a.Time {
		t.Errorf("latency-bound: batched %.4fs should beat per-system %.4fs", b.Time, a.Time)
	}

	// Render-dominated: the standard mini scenario, where the
	// per-system pipeline overlaps ingest with compute.
	perSys := miniSnow(DynamicLB, FiniteSpace)
	batched := miniSnow(DynamicLB, FiniteSpace)
	batched.Schedule = BatchedSchedule
	c, err := RunParallel(perSys, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunParallel(batched, cl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Time < c.Time*0.95 {
		t.Errorf("render-bound: batched %.4fs unexpectedly far ahead of per-system %.4fs",
			d.Time, c.Time)
	}
}

func TestBatchedRejectsDecentralized(t *testing.T) {
	scn := miniSnow(DecentralizedLB, FiniteSpace)
	scn.Schedule = BatchedSchedule
	if err := scn.Validate(); err == nil {
		t.Error("batched + decentralized accepted")
	}
}

func TestScheduleString(t *testing.T) {
	if PerSystemSchedule.String() != "per-system" || BatchedSchedule.String() != "batched" {
		t.Error("schedule names wrong")
	}
}

func TestBatchedDeterministic(t *testing.T) {
	scn := miniSnow(DynamicLB, InfiniteSpace)
	scn.Schedule = BatchedSchedule
	r1, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunParallel(scn, testCluster(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r1.MsgsSent != r2.MsgsSent {
		t.Error("batched runs diverged")
	}
}

// The manager's creation grouping scratch is keyed by creation slot:
// the batched plan holds every slot's groups until one combined send,
// so two creating actions in one system must not share groups. Frame
// checksums must match the sequential engine and the per-system plan,
// which sends each slot before generating the next.
func TestBatchedTwoCreatorsInOneSystem(t *testing.T) {
	twoSources := func(lb LBMode, sched Schedule) Scenario {
		scn := miniSnow(lb, FiniteSpace)
		sys := scn.Systems[1]
		second := *sys.Actions[0].(*actions.Source)
		second.Rate = 90
		second.Pos = geom.BoxDomain{B: geom.Box(geom.V(-55, 20, -5), geom.V(55, 30, 5))}
		sys.Actions = append([]actions.Action{sys.Actions[0], &second}, sys.Actions[1:]...)
		scn.Systems[1] = sys
		scn.Schedule = sched
		return scn
	}
	for _, lb := range []LBMode{StaticLB, DynamicLB} {
		t.Run(lb.String(), func(t *testing.T) {
			seq, err := RunSequential(twoSources(lb, BatchedSchedule), cluster.TypeB, cluster.GCC)
			if err != nil {
				t.Fatal(err)
			}
			perSys, err := RunParallel(twoSources(lb, PerSystemSchedule), testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := RunParallel(twoSources(lb, BatchedSchedule), testCluster(4), 4)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, seq, batched)
			compareResults(t, perSys, batched)
		})
	}
}
