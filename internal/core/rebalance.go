package core

import (
	"fmt"

	"pscluster/internal/domain"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// rebalanceLB is the balancing policy of the non-slab decompositions
// (grid, Voronoi) under DynamicLB. The paper's donation protocol
// (dynamicLB) is slab-specific — donors sort along the split axis and
// a boundary is a single edge — so these strategies balance by moving
// the partition *geometry* toward the measured load instead:
//
//	report → rebalance geometry → broadcast decomposition → migrate
//
// Calculators send the same load reports as DLB (§3.2.4); the manager
// feeds them to the decomposition's Rebalance (a bounded deterministic
// step, see internal/domain) and broadcasts the updated decomposition
// over the wire codec; every calculator installs it and the ownership
// migration — the same owner-grouped all-to-all shape as the
// end-of-frame exchange — moves exactly the particles whose owner
// changed. No donation sorting, no per-edge negotiation.
type rebalanceLB struct{}

func (rebalanceLB) managerSystemSteps(m *managerProc, si int) []step {
	return []step{
		// Load evaluation: same reports and evaluation charge as DLB,
		// but the decision is a geometry step, not donation orders.
		{phase: "lb-evaluation", sys: si, traced: true, run: always(func() error {
			msgs := m.ep.RecvFromEach(m.calcRanks, transport.TagLoadReport)
			loads := make([]float64, m.nCalc)
			for i, msg := range msgs {
				r, err := decodeLoadReport(msg.Payload)
				if err != nil {
					return err
				}
				loads[i] = r.Time
				m.addFrameLoad(i, float64(r.Load))
			}
			m.ep.Clock().AdvanceWork(evalWorkPerCalc*float64(m.nCalc), m.rate)
			if m.decomps[si].Rebalance(loads) {
				m.lbRounds++
			}
			return nil
		})},
		// Broadcast the authoritative decomposition. Every calculator
		// gets the full table every frame — the geometry is a few dozen
		// floats, far below one particle batch.
		{phase: "dims-broadcast", sys: si, traced: true, run: always(func() error {
			// Sends consume buffer ownership: encode per destination.
			for c := 0; c < m.nCalc; c++ {
				m.ep.Send(rankCalc0+c, transport.TagNewDims, domain.Encode(m.decomps[si]))
			}
			return nil
		})},
	}
}

// calcReportSteps sends the same §3.2.4 load report as DLB.
func (rebalanceLB) calcReportSteps(c *calcProc, si int) []step {
	return dynamicLB{}.calcReportSteps(c, si)
}

func (rebalanceLB) calcBalanceSteps(c *calcProc, si int) []step {
	return []step{
		{phase: "new-dims", sys: si, traced: true, run: always(func() error {
			msg := c.ep.Recv(rankManager, transport.TagNewDims)
			d, err := domain.Decode(msg.Payload)
			if err != nil {
				return err
			}
			if d.N() != c.nCalc {
				return fmt.Errorf("core: decomposition broadcast has %d domains, want %d", d.N(), c.nCalc)
			}
			c.decomps[si] = d
			// Not released: the broadcast payload is shared by all
			// calculators (same rule as dynamicLB's dims message).
			return nil
		})},
		{phase: "load-balance", sys: si, traced: true, run: always(func() error {
			return c.migrateOwnership(si)
		})},
	}
}

func (rebalanceLB) managerBatchSteps(m *managerProc) []step {
	scn := m.scn
	return []step{
		{phase: "lb-evaluation", sys: -1, run: always(func() error {
			nSys := len(scn.Systems)
			msgs := m.ep.RecvFromEach(m.calcRanks, transport.TagLoadReport)
			loads := make([][]float64, nSys) // [system][calc]
			for si := range loads {
				loads[si] = make([]float64, m.nCalc)
			}
			for ci, msg := range msgs {
				rs, err := decodeMultiReports(msg.Payload, nSys)
				if err != nil {
					return err
				}
				for si, r := range rs {
					loads[si][ci] = r.Time
					m.addFrameLoad(ci, float64(r.Load))
				}
			}
			m.ep.Clock().AdvanceWork(evalWorkPerCalc*float64(m.nCalc*nSys), m.rate)
			for si := range scn.Systems {
				if m.decomps[si].Rebalance(loads[si]) {
					m.lbRounds++
				}
			}
			return nil
		})},
		// One combined broadcast: a counted sequence of self-sizing
		// decomposition blobs, one per system.
		{phase: "dims-broadcast", sys: -1, run: always(func() error {
			// Sends consume buffer ownership: encode per destination.
			for c := 0; c < m.nCalc; c++ {
				slots := make([][]byte, len(scn.Systems))
				for si := range slots {
					slots[si] = domain.Encode(m.decomps[si])
				}
				m.ep.Send(rankCalc0+c, transport.TagNewDims, encodeCountedSeq(slots))
			}
			return nil
		})},
	}
}

func (rebalanceLB) calcBatchReportSteps(c *calcProc) []step {
	return dynamicLB{}.calcBatchReportSteps(c)
}

func (rebalanceLB) calcBatchBalanceSteps(c *calcProc) []step {
	scn := c.scn
	return []step{
		{phase: "new-dims", sys: -1, run: always(func() error {
			nSys := len(scn.Systems)
			msg := c.ep.Recv(rankManager, transport.TagNewDims)
			slots, err := decodeCountedSeq(msg.Payload, "multi-decomp", domain.WireSize)
			if err != nil {
				return err
			}
			if len(slots) != nSys {
				return fmt.Errorf("core: decomposition broadcast carried %d systems, want %d", len(slots), nSys)
			}
			for si, s := range slots {
				d, err := domain.Decode(s)
				if err != nil {
					return err
				}
				if d.N() != c.nCalc {
					return fmt.Errorf("core: decomposition broadcast has %d domains, want %d", d.N(), c.nCalc)
				}
				c.decomps[si] = d
			}
			// Not released: the combined broadcast is shared by all
			// calculators.
			return nil
		})},
		{phase: "load-balance", sys: -1, run: always(func() error {
			return c.migrateOwnershipBatched()
		})},
	}
}

// migrateOwnership moves the particles whose owner changed when the
// decomposition geometry moved: the same owner-grouped all-to-all
// shape as exchangeSystem, on the balancing tag. Every pair trades a
// message (empty batches double as end-of-transmission), so the round
// needs no orders to stay deadlock-free.
func (c *calcProc) migrateOwnership(si int) error {
	st := c.stores[si]
	out := c.partitionOut(si)
	groups := c.groupOwnerBatches(si, out)
	if groups[c.idx].Len() > 0 {
		st.AddBatch(groups[c.idx])
	}
	for i := 0; i < c.nCalc; i++ {
		if i == c.idx {
			continue
		}
		c.lbMovedStored += groups[i].Len()
		c.ep.SendScaled(rankCalc0+i, transport.TagLBParticles, groups[i].EncodeWire(), c.scn.Ratio)
	}
	for _, msg := range c.ep.RecvFromEach(c.others, transport.TagLBParticles) {
		if err := c.wire.DecodeWireInto(msg.Payload); err != nil {
			return err
		}
		st.AddBatch(&c.wire)
		msg.Release()
	}
	return nil
}

// migrateOwnershipBatched is migrateOwnership once per frame for all
// systems: per peer, one multi-batch with one slot per system
// (mirroring batchedExchange).
func (c *calcProc) migrateOwnershipBatched() error {
	scn := c.scn
	nSys := len(scn.Systems)
	perPeer := make([][]*particle.Batch, c.nCalc)
	for p := range perPeer {
		perPeer[p] = make([]*particle.Batch, nSys)
	}
	for si := range scn.Systems {
		st := c.stores[si]
		out := c.partitionOut(si)
		groups := c.groupOwnerBatches(si, out)
		if groups[c.idx].Len() > 0 {
			st.AddBatch(groups[c.idx])
		}
		for p := 0; p < c.nCalc; p++ {
			if p != c.idx {
				perPeer[p][si] = groups[p]
				c.lbMovedStored += groups[p].Len()
			}
		}
	}
	for p := 0; p < c.nCalc; p++ {
		if p == c.idx {
			continue
		}
		c.ep.SendScaled(rankCalc0+p, transport.TagLBParticles, encodeMultiWire(perPeer[p]), scn.Ratio)
	}
	for _, msg := range c.ep.RecvFromEach(c.others, transport.TagLBParticles) {
		slots, err := splitMultiBatch(msg.Payload)
		if err != nil {
			return err
		}
		if len(slots) != nSys {
			return fmt.Errorf("core: ownership migration carried %d systems, want %d", len(slots), nSys)
		}
		for si, s := range slots {
			if err := c.wire.DecodeWireInto(s); err != nil {
				return err
			}
			c.stores[si].AddBatch(&c.wire)
		}
		msg.Release()
	}
	return nil
}
