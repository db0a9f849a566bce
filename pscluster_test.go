package pscluster_test

import (
	"bytes"
	"reflect"
	"testing"

	"pscluster"
)

func apiScenario() pscluster.Scenario {
	return pscluster.Scenario{
		Name: "api-test",
		Systems: []pscluster.System{{
			Name: "dust",
			Seed: 9,
			Actions: []pscluster.Action{
				&pscluster.Source{
					Rate: 300,
					Pos: pscluster.BoxDomain{B: pscluster.Box(
						pscluster.V(-20, 0, -20), pscluster.V(20, 10, 20))},
					Vel:   pscluster.SphereDomain{OuterR: 3},
					Color: pscluster.PointDomain{P: pscluster.V(0.8, 0.7, 0.5)},
					Size:  0.2, Alpha: 0.5,
				},
				&pscluster.Damping{Coeff: 0.5},
				&pscluster.Vortex{Center: pscluster.V(0, 0, 0),
					Axis: pscluster.V(0, 1, 0), Strength: 4},
				&pscluster.KillOld{MaxAge: 2},
				&pscluster.Move{},
			},
		}},
		Axis:             pscluster.AxisX,
		Space:            pscluster.Box(pscluster.V(-30, -5, -30), pscluster.V(30, 15, 30)),
		Mode:             pscluster.FiniteSpace,
		Frames:           6,
		DT:               0.1,
		LB:               pscluster.DynamicLB,
		CollectParticles: true,
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	scn := apiScenario()
	seq, err := pscluster.RunSequential(scn, pscluster.TypeB, pscluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	cl := pscluster.NewCluster(pscluster.Myrinet, pscluster.GCC,
		pscluster.Nodes(pscluster.TypeB, 2), pscluster.Nodes(pscluster.TypeA, 1))
	par, err := pscluster.RunParallel(scn, cl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if par.Speedup(seq) <= 0 {
		t.Error("non-positive speedup")
	}
	for f := range seq.FrameChecksums {
		if seq.FrameChecksums[f] != par.FrameChecksums[f] {
			t.Fatalf("frame %d differs between engines", f)
		}
	}
	if len(par.FinalParticles[0]) == 0 {
		t.Error("no particles survived")
	}
}

// A nil telemetry plane means no live publishing: the profiled run is
// the plain run, not a nil-pointer dereference on the first frame.
func TestPublicAPINilTelemetryPlane(t *testing.T) {
	scn := apiScenario()
	cl := pscluster.NewCluster(pscluster.Myrinet, pscluster.GCC, pscluster.Nodes(pscluster.TypeB, 2))
	want, err := pscluster.RunParallel(scn, cl, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, prof, err := pscluster.RunParallelProfiled(scn, cl, 2, (*pscluster.TelemetryPlane)(nil))
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil {
		t.Error("profiled run returned no profile")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nil-plane result differs from RunParallel's:\n got %+v\nwant %+v", got, want)
	}
}

func TestPublicAPIAllLBModes(t *testing.T) {
	cl := pscluster.NewCluster(pscluster.FastEthernet, pscluster.ICC,
		pscluster.Nodes(pscluster.TypeC, 2))
	for _, lb := range []pscluster.LBMode{
		pscluster.StaticLB, pscluster.DynamicLB, pscluster.DecentralizedLB,
	} {
		scn := apiScenario()
		scn.LB = lb
		if _, err := pscluster.RunParallel(scn, cl, 2); err != nil {
			t.Errorf("%v: %v", lb, err)
		}
	}
}

func TestPublicAPIFramebuffer(t *testing.T) {
	fb := pscluster.NewFramebuffer(32, 32)
	p := pscluster.Particle{Pos: pscluster.V(0, 0, 0),
		Color: pscluster.V(1, 1, 1), Alpha: 1, Size: 1}
	cam := pscluster.OrthoCamera{
		Region: pscluster.Box(pscluster.V(-5, -5, -5), pscluster.V(5, 5, 5)),
		W:      32, H: 32,
	}
	fb.Splat(cam, &p)
	var buf bytes.Buffer
	if err := fb.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty PPM")
	}
}

func TestPublicAPIScenarioJSON(t *testing.T) {
	scn := apiScenario()
	data, err := pscluster.EncodeScenario(scn)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := pscluster.DecodeScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	decoded.CollectParticles = true
	a, err := pscluster.RunSequential(scn, pscluster.TypeB, pscluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pscluster.RunSequential(decoded, pscluster.TypeB, pscluster.GCC)
	if err != nil {
		t.Fatal(err)
	}
	for f := range a.FrameChecksums {
		if a.FrameChecksums[f] != b.FrameChecksums[f] {
			t.Fatalf("frame %d differs after JSON round trip", f)
		}
	}
}

func TestPublicAPIEmitDomains(t *testing.T) {
	// Every re-exported emission domain satisfies the interface.
	domains := []pscluster.EmitDomain{
		pscluster.PointDomain{P: pscluster.V(1, 2, 3)},
		pscluster.LineDomain{A: pscluster.V(0, 0, 0), B: pscluster.V(1, 1, 1)},
		pscluster.BoxDomain{B: pscluster.Box(pscluster.V(0, 0, 0), pscluster.V(1, 1, 1))},
		pscluster.SphereDomain{OuterR: 2},
		pscluster.DiscDomain{Normal: pscluster.V(0, 1, 0), OuterR: 1},
		pscluster.CylinderDomain{A: pscluster.V(0, 0, 0), B: pscluster.V(0, 1, 0), Radius: 1},
		pscluster.ConeDomain{Apex: pscluster.V(0, 0, 0), Base: pscluster.V(0, 1, 0), Radius: 1},
		pscluster.TriangleDomain{A: pscluster.V(0, 0, 0), B: pscluster.V(1, 0, 0), C: pscluster.V(0, 1, 0)},
	}
	for i, d := range domains {
		b := d.Bounds()
		if b.Min.X > b.Max.X {
			t.Errorf("domain %d has inverted bounds", i)
		}
	}
}
