package core

import (
	"reflect"
	"testing"

	"pscluster/internal/cluster"
)

// Kernel fusion is invisible to the model: scn.Unfused must be a pure
// ablation, bit-identical to the fused default, in both engines.
func TestFusedKernelsBitNeutral(t *testing.T) {
	for _, sched := range []Schedule{PerSystemSchedule, BatchedSchedule} {
		t.Run(sched.String(), func(t *testing.T) {
			fused := miniSnow(DynamicLB, InfiniteSpace)
			fused.Schedule = sched
			fused.Trace = true
			unfused := fused
			unfused.Unfused = true

			rf, err := RunParallel(fused, testCluster(4), 3)
			if err != nil {
				t.Fatal(err)
			}
			ru, err := RunParallel(unfused, testCluster(4), 3)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, ru, rf)
			if rf.Time != ru.Time {
				t.Errorf("virtual time: fused %v vs unfused %v", rf.Time, ru.Time)
			}
			if !reflect.DeepEqual(rf.Events, ru.Events) {
				t.Errorf("trace events diverge")
			}
		})
	}

	sf, err := RunSequential(miniSnow(StaticLB, FiniteSpace), cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	un := miniSnow(StaticLB, FiniteSpace)
	un.Unfused = true
	su, err := RunSequential(un, cluster.TypeB, cluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, su, sf)
	if sf.Time != su.Time {
		t.Errorf("sequential virtual time: fused %v vs unfused %v", sf.Time, su.Time)
	}
}
