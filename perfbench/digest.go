package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"pscluster/internal/core"
)

// digest is the part of an engine run the correctness gate compares:
// everything a behaviour-neutral change must reproduce bit for bit.
type digest struct {
	Checksums          []uint64
	Time               float64
	PerProcTime        []float64
	MsgsSent           int
	BytesSent          int
	MsgsRecv           int
	BytesRecv          int
	ExchangedParticles int
	LBMoved            int
	LBRounds           int
}

func digestOf(r *core.Result) digest {
	return digest{
		Checksums:          r.FrameChecksums,
		Time:               r.Time,
		PerProcTime:        r.PerProcTime,
		MsgsSent:           r.MsgsSent,
		BytesSent:          r.BytesSent,
		MsgsRecv:           r.MsgsRecv,
		BytesRecv:          r.BytesRecv,
		ExchangedParticles: r.ExchangedParticles,
		LBMoved:            r.LBMoved,
		LBRounds:           r.LBRounds,
	}
}

// sum is a stable hex fingerprint of the digest: SHA-256 over the
// little-endian bits of every field, in declaration order.
func (d digest) sum() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(d.Checksums)))
	for _, c := range d.Checksums {
		put(c)
	}
	put(math.Float64bits(d.Time))
	put(uint64(len(d.PerProcTime)))
	for _, t := range d.PerProcTime {
		put(math.Float64bits(t))
	}
	for _, v := range []int{d.MsgsSent, d.BytesSent, d.MsgsRecv, d.BytesRecv,
		d.ExchangedParticles, d.LBMoved, d.LBRounds} {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// gate checks runs against a workload's reference digest and, where the
// workload claims it, the sequential engine's frame checksums.
type gate struct {
	ref    digest
	seqSum []uint64 // nil when the workload is only checked run to run
}

// check returns nil when d matches the reference (and the sequential
// checksums, when set), else an error naming the first difference.
func (g *gate) check(d digest) error {
	if g.seqSum != nil && !slices.Equal(d.Checksums, g.seqSum) {
		return fmt.Errorf("frame checksums differ from the sequential engine's")
	}
	if got, want := d.sum(), g.ref.sum(); got != want {
		return fmt.Errorf("digest %s, reference %s", got, want)
	}
	return nil
}
