package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pscluster/internal/actions"
	"pscluster/internal/cluster"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// runNodesLoopback executes the scenario as NumRanks(nCalc) RunNode
// calls over TCP loopback fabrics — one goroutine per rank, the
// in-process stand-in for the psnode processes — and returns the
// per-rank results.
func runNodesLoopback(t *testing.T, scn Scenario, nCalc int) []*NodeResult {
	t.Helper()
	cl := testCluster(4)
	place, err := cl.Place(nCalc)
	if err != nil {
		t.Fatal(err)
	}
	cost := transport.DefaultCost(place, cl.Net)
	n := NumRanks(nCalc)
	fabs := make([]transport.Fabric, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		f, err := transport.ListenNet(r, n, "127.0.0.1:0", cost, transport.NetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fabs[r], addrs[r] = f, f.Addr()
	}
	for _, f := range fabs {
		if err := f.(*transport.NetFabric).SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	results, errs := runNodes(scn, cl, nCalc, fabs)
	for _, f := range fabs {
		f.Close()
	}
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
	return results
}

// runNodes runs one RunNode call per fabric, each on its own goroutine,
// and returns every rank's result and error.
func runNodes(scn Scenario, cl *cluster.Cluster, nCalc int, fabs []transport.Fabric) ([]*NodeResult, []error) {
	results := make([]*NodeResult, len(fabs))
	errs := make([]error, len(fabs))
	var wg sync.WaitGroup
	for r := range fabs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = RunNode(scn, cl, nCalc, r, fabs[r], nil)
		}(r)
	}
	wg.Wait()
	return results, errs
}

// The acceptance property of the whole fabric abstraction: a run split
// across net fabrics must reproduce the in-process run bit for bit —
// same frame checksums, same frame delivery clocks, same per-process
// virtual times, same traffic totals.
func TestRunNodeLoopbackBitIdenticalToInProcess(t *testing.T) {
	for _, lb := range []LBMode{StaticLB, DynamicLB} {
		t.Run(fmt.Sprint(lb), func(t *testing.T) {
			scn := miniSnow(lb, FiniteSpace)
			scn.CollectParticles = false
			const nCalc = 3

			want, err := RunParallel(scn, testCluster(4), nCalc)
			if err != nil {
				t.Fatal(err)
			}
			nodes := runNodesLoopback(t, scn, nCalc)

			img := nodes[rankImageGen]
			if !reflect.DeepEqual(img.FrameChecksums, want.FrameChecksums) {
				t.Errorf("frame checksums diverge:\n net %v\nvirt %v",
					img.FrameChecksums, want.FrameChecksums)
			}
			if !reflect.DeepEqual(img.FrameTimes, want.FrameTimes) {
				t.Errorf("frame times diverge:\n net %v\nvirt %v",
					img.FrameTimes, want.FrameTimes)
			}
			var sent, recv, bsent, brecv int
			for r, nr := range nodes {
				if nr.Rank != r || nr.Role != RoleForRank(r) {
					t.Errorf("rank %d labeled (%d, %s)", r, nr.Rank, nr.Role)
				}
				if nr.Time != want.PerProcTime[r] {
					t.Errorf("rank %d clock %v, in-process %v", r, nr.Time, want.PerProcTime[r])
				}
				sent += nr.MsgsSent
				recv += nr.MsgsRecv
				bsent += nr.BytesSent
				brecv += nr.BytesRecv
			}
			if sent != want.MsgsSent || bsent != want.BytesSent {
				t.Errorf("send totals (%d msgs, %d bytes), in-process (%d, %d)",
					sent, bsent, want.MsgsSent, want.BytesSent)
			}
			if recv != want.MsgsRecv || brecv != want.BytesRecv {
				t.Errorf("recv totals (%d msgs, %d bytes), in-process (%d, %d)",
					recv, brecv, want.MsgsRecv, want.BytesRecv)
			}
			var loads []int
			for _, nr := range nodes[rankCalc0:] {
				loads = append(loads, nr.CalcLoad)
			}
			if !reflect.DeepEqual(loads, want.CalcLoads) {
				t.Errorf("calc loads %v, in-process %v", loads, want.CalcLoads)
			}
			if nodes[rankManager].LBRounds != want.LBRounds {
				t.Errorf("LB rounds %d, in-process %d", nodes[rankManager].LBRounds, want.LBRounds)
			}
		})
	}
}

func TestRunNodeValidatesInputs(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	cl := testCluster(4)
	place, _ := cl.Place(2)
	cost := transport.DefaultCost(place, cl.Net)
	fab, err := transport.ListenNet(0, 4, "127.0.0.1:0", cost, transport.NetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if _, err := RunNode(scn, cl, 2, 9, fab, nil); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := RunNode(scn, cl, 2, 1, fab, nil); err == nil {
		t.Error("rank/fabric mismatch accepted")
	}
	if _, err := RunNode(scn, cl, 0, 0, fab, nil); err == nil {
		t.Error("zero calculators accepted")
	}
}

// boomAction is a property action that panics on every application.
type boomAction struct{}

func (boomAction) Name() string                               { return "boom" }
func (boomAction) Kind() actions.Kind                         { return actions.KindProperty }
func (boomAction) Cost() float64                              { return 1 }
func (boomAction) Apply(*actions.Context, *particle.Particle) { panic("boom") }

// Every runner reports a calculator's panic as itself, never as the
// aborts it caused in the peers.
func TestRunErrorNamesRootCause(t *testing.T) {
	scn := miniSnow(StaticLB, FiniteSpace)
	for i := range scn.Systems {
		scn.Systems[i].Actions = append([]actions.Action{boomAction{}}, scn.Systems[i].Actions...)
	}
	const nCalc = 3
	cl := testCluster(4)
	_, errPar := RunParallel(scn, cl, nCalc)
	_, _, errProf := RunParallelProfiled(scn, cl, nCalc, nil)
	_, errSims := RunSimsBaseline(scn, cl, nCalc)

	// RunNode with every rank over one virtual router: a rank's abort
	// reaches its peers as ErrAborted, so the cluster's root cause is the
	// first rank error that is not.
	place, err := cl.Place(nCalc)
	if err != nil {
		t.Fatal(err)
	}
	router := transport.NewRouter(place, cl.Net)
	fabs := make([]transport.Fabric, NumRanks(nCalc))
	for r := range fabs {
		fabs[r] = router.Endpoint(r)
	}
	_, errs := runNodes(scn, cl, nCalc, fabs)
	errNode := errs[0]
	for _, e := range errs {
		if !errors.Is(e, transport.ErrAborted) {
			errNode = e
			break
		}
	}

	names := []string{"RunParallel", "RunParallelProfiled", "RunSimsBaseline", "RunNode"}
	for i, err := range []error{errPar, errProf, errSims, errNode} {
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") || errors.Is(err, transport.ErrAborted) {
			t.Errorf("%s: error %v, want the calculator's panic", names[i], err)
		}
	}
}
