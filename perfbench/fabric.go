package main

import (
	"time"

	"pscluster/internal/cluster"
	"pscluster/internal/particle"
	"pscluster/internal/transport"
)

// rankTrace is one rank's host-time books for a traced run. Every
// interval between the rank's start and end falls in exactly one
// bucket: inside a send call, inside a receive call (blocked on a peer
// or ingesting), or busy (everything between fabric calls).
type rankTrace struct {
	busy, send, recvWait time.Duration
	last                 time.Time   // end of the previous fabric call
	frames               []time.Time // SetFrame stamps: frame starts

	// Particle counts read from calculator-to-calculator payload sizes:
	// a particle batch is a 4-byte count plus WireSize bytes per
	// particle, and a batched multi-batch adds 4 bytes per system, so
	// len/WireSize is exact while the headers stay under one record.
	exchanged int // TagParticles between calculators
	donated   int // TagLBParticles
}

// tracedFabric is a transport.Fabric decorator that times the calls a
// rank makes into the fabric layer from outside it. It forwards every
// method unchanged, so the run it wraps is bit-identical to an
// untraced one; like the fabric it wraps, it is owned by one goroutine.
type tracedFabric struct {
	inner transport.Fabric
	tr    *rankTrace
}

var _ transport.Fabric = (*tracedFabric)(nil)

// newTracedFabric wraps inner; start is when the rank's books open.
func newTracedFabric(inner transport.Fabric, start time.Time) *tracedFabric {
	return &tracedFabric{inner: inner, tr: &rankTrace{last: start}}
}

// enter closes the busy interval before a timed call.
func (f *tracedFabric) enter() time.Time {
	now := time.Now()
	f.tr.busy += now.Sub(f.tr.last)
	return now
}

// leave charges a timed call to bucket.
func (f *tracedFabric) leave(t0 time.Time, bucket *time.Duration) {
	now := time.Now()
	*bucket += now.Sub(t0)
	f.tr.last = now
}

// closeBooks ends the books at end, charging the tail to busy.
func (f *tracedFabric) closeBooks(end time.Time) { f.tr.busy += end.Sub(f.tr.last) }

func (f *tracedFabric) count(to int, tag transport.Tag, n int) {
	const firstCalc = 2 // ranks 0 and 1 are the manager and image generator
	if f.inner.Rank() < firstCalc || to < firstCalc {
		return
	}
	switch tag {
	case transport.TagParticles:
		f.tr.exchanged += n / particle.WireSize
	case transport.TagLBParticles:
		f.tr.donated += n / particle.WireSize
	}
}

func (f *tracedFabric) Rank() int                        { return f.inner.Rank() }
func (f *tracedFabric) Clock() *cluster.Clock            { return f.inner.Clock() }
func (f *tracedFabric) Stats() *transport.Stats          { return f.inner.Stats() }
func (f *tracedFabric) SetObserver(o transport.Observer) { f.inner.SetObserver(o) }
func (f *tracedFabric) QueueDepth() int                  { return f.inner.QueueDepth() }
func (f *tracedFabric) Abort()                           { f.inner.Abort() }
func (f *tracedFabric) Close() error                     { return f.inner.Close() }

// SetFrame stamps the frame boundary.
func (f *tracedFabric) SetFrame(fr int) {
	f.tr.frames = append(f.tr.frames, time.Now())
	f.inner.SetFrame(fr)
}

func (f *tracedFabric) Send(to int, tag transport.Tag, payload []byte) {
	f.count(to, tag, len(payload))
	t0 := f.enter()
	f.inner.Send(to, tag, payload)
	f.leave(t0, &f.tr.send)
}

func (f *tracedFabric) SendScaled(to int, tag transport.Tag, payload []byte, ratio float64) {
	f.count(to, tag, len(payload))
	t0 := f.enter()
	f.inner.SendScaled(to, tag, payload, ratio)
	f.leave(t0, &f.tr.send)
}

func (f *tracedFabric) SendSized(to int, tag transport.Tag, payload []byte, bytes int) {
	f.count(to, tag, len(payload))
	t0 := f.enter()
	f.inner.SendSized(to, tag, payload, bytes)
	f.leave(t0, &f.tr.send)
}

func (f *tracedFabric) Recv(from int, tag transport.Tag) transport.Message {
	t0 := f.enter()
	m := f.inner.Recv(from, tag)
	f.leave(t0, &f.tr.recvWait)
	return m
}

func (f *tracedFabric) RecvFromEach(froms []int, tag transport.Tag) []transport.Message {
	t0 := f.enter()
	ms := f.inner.RecvFromEach(froms, tag)
	f.leave(t0, &f.tr.recvWait)
	return ms
}
