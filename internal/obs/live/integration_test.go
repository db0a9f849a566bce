package live_test

// Integration: serve a real engine run through the live plane and check
// every HTTP view against the run's ground truth. Lives in live_test so
// it can import core without creating an import cycle — the live
// package itself depends only on obs.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/experiments"
	"pscluster/internal/obs"
	"pscluster/internal/obs/live"
)

func TestLiveServedEngineRun(t *testing.T) {
	scn := experiments.Snow(experiments.Small, core.FiniteSpace, core.DynamicLB)
	cl := cluster.New(cluster.Myrinet, cluster.GCC,
		cluster.NodeSpec{Type: cluster.TypeB, Count: 4})

	plane := live.NewPlane(live.Options{Window: 16})
	srv, err := live.Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, prof, err := core.RunParallelProfiled(scn, cl, 3, plane)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || res == nil {
		t.Fatal("served run returned no profile/result")
	}

	// Every rank publishes one record per frame: 2 + 3 calculators.
	wantRecords := scn.Frames * 5
	if got := plane.Published(); got != wantRecords {
		t.Fatalf("plane received %d records, want %d", got, wantRecords)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	// /metrics is valid exposition text and the live counters agree
	// with the final merged profile.
	metrics := get("/metrics")
	if err := obs.ValidateExposition(strings.NewReader(string(metrics))); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	liveSent := parseCounterSum(t, metrics, "pscluster_msgs_sent_total")
	snap := prof.Registry.Snapshot()
	if want := snap.SumCounter("pscluster_msgs_sent_total"); liveSent != want {
		t.Fatalf("live msgs_sent = %v, profile says %v", liveSent, want)
	}

	// /status reflects the finished run: all 5 ranks at the last frame,
	// virtual clocks matching the profile's per-rank totals.
	var st live2Status
	if err := json.Unmarshal(get("/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Frame != scn.Frames-1 || len(st.Ranks) != 5 {
		t.Fatalf("/status frame=%d ranks=%d, want %d/5", st.Frame, len(st.Ranks), scn.Frames-1)
	}
	for _, r := range st.Ranks {
		if r.Frame != scn.Frames-1 {
			t.Fatalf("rank %d stuck at frame %d", r.Rank, r.Frame)
		}
		if r.Clock <= 0 {
			t.Fatalf("rank %d clock %v", r.Rank, r.Clock)
		}
	}

	// /trace loads as Chrome trace JSON with cross-rank flow pairs
	// stitched by correlation ID.
	var trace struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			ID  string `json:"id"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	flows := map[string]int{}
	spans := 0
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "s", "f":
			flows[ev.ID]++
		}
	}
	if spans == 0 || len(flows) == 0 {
		t.Fatalf("trace has %d spans, %d flows — want both nonzero", spans, len(flows))
	}
	for id, n := range flows {
		if n != 2 {
			t.Fatalf("flow %s has %d events, want a send/recv pair", id, n)
		}
	}
}

// live2Status mirrors live.Status for decoding (kept local so the test
// also exercises the documented JSON field names).
type live2Status struct {
	Frame int `json:"frame"`
	Ranks []struct {
		Rank  int     `json:"rank"`
		Frame int     `json:"frame"`
		Clock float64 `json:"clock"`
	} `json:"ranks"`
}

// parseCounterSum totals every sample of a counter family in an
// exposition document.
func parseCounterSum(t *testing.T, text []byte, family string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := strings.TrimPrefix(line, family)
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a different family sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("family %s absent from exposition:\n%s", family, text)
	}
	return sum
}
