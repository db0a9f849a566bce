package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"pscluster/internal/cluster"
	"pscluster/internal/core"
	"pscluster/internal/transport"
)

// booksTolerance bounds how far a rank's busy + send + recv-wait may
// drift from its wall time: 0.1% of the wall time plus 100 µs. The
// books open and close on the wall stamps themselves, so a run that
// exceeds it has an interval counted twice (a timed call nested in
// another) or a timed call the decorator failed to close.
func booksTolerance(wall time.Duration) time.Duration {
	return wall/1000 + 100*time.Microsecond
}

// rankBooks is one rank's closed books from a traced run.
type rankBooks struct {
	wall time.Duration
	end  time.Time
	rankTrace
}

// tracedRun is the outcome of one run through core.RunNode on every
// rank over traced virtual-router endpoints.
type tracedRun struct {
	wall  time.Duration // first rank start to last rank end
	ranks []rankBooks
	dig   digest
}

// runTraced executes scn once with one goroutine per rank, each running
// core.RunNode over a tracedFabric around its transport.NewRouter
// endpoint, and rebuilds the run's digest from the per-rank results
// and the decorator's payload counts.
func runTraced(scn core.Scenario, cl *cluster.Cluster, nCalc int) (*tracedRun, error) {
	place, err := cl.Place(nCalc)
	if err != nil {
		return nil, err
	}
	router := transport.NewRouter(place, cl.Net)
	n := core.NumRanks(nCalc)
	nodes := make([]*core.NodeResult, n)
	books := make([]rankBooks, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w0 := time.Now()
			fab := newTracedFabric(router.Endpoint(r), w0)
			nodes[r], errs[r] = core.RunNode(scn, cl, nCalc, r, fab, nil)
			end := time.Now()
			fab.closeBooks(end)
			books[r] = rankBooks{wall: end.Sub(w0), end: end, rankTrace: *fab.tr}
		}(r)
	}
	wg.Wait()
	end := time.Now()
	for _, e := range errs {
		if e != nil && !errors.Is(e, transport.ErrAborted) {
			return nil, e
		}
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return &tracedRun{
		wall:  end.Sub(start),
		ranks: books,
		dig:   nodeDigest(nodes, books, scn.Ratio),
	}, nil
}

// nodeDigest reassembles a Result digest from per-rank outputs the way
// the in-process runner aggregates its processes.
func nodeDigest(nodes []*core.NodeResult, books []rankBooks, ratio float64) digest {
	var d digest
	exchanged, donated := 0, 0
	for r, nr := range nodes {
		d.PerProcTime = append(d.PerProcTime, nr.Time)
		d.Time = math.Max(d.Time, nr.Time)
		d.MsgsSent += nr.MsgsSent
		d.BytesSent += nr.BytesSent
		d.MsgsRecv += nr.MsgsRecv
		d.BytesRecv += nr.BytesRecv
		switch nr.Role {
		case core.RoleManager:
			d.LBRounds = nr.LBRounds
		case core.RoleImageGen:
			d.Checksums = nr.FrameChecksums
		}
		exchanged += books[r].exchanged
		donated += books[r].donated
	}
	d.ExchangedParticles = int(float64(exchanged) * ratio)
	d.LBMoved = int(float64(donated) * ratio)
	return d
}

// checkBooks verifies that every rank's buckets sum to its wall time
// within booksTolerance.
func (t *tracedRun) checkBooks() error {
	for r, b := range t.ranks {
		sum := b.busy + b.send + b.recvWait
		diff := sum - b.wall
		if diff < 0 {
			diff = -diff
		}
		if tol := booksTolerance(b.wall); diff > tol {
			return fmt.Errorf("rank %d: busy %v + send %v + recv-wait %v = %v, wall %v (tolerance %v)",
				r, b.busy, b.send, b.recvWait, sum, b.wall, tol)
		}
	}
	return nil
}
