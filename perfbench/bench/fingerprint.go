package bench

import (
	"encoding/binary"
	"io"
	"math"

	"jcr/internal/placement"
)

// The fingerprints hash every generated input bit for bit: graphs (arcs
// with costs and capacities), specs (catalog, caches, pins, rates), fault
// events and lookup streams. Two runs with equal fingerprints ran
// identical inputs.

func fingerprintControl(in *controlInput) string {
	return hashHex(func(w io.Writer) {
		for _, h := range in.hours {
			writeSpec(w, h.decision)
			writeSpec(w, h.truth)
			writeLookups(w, h.lookups)
		}
		if in.faults != nil {
			for _, e := range in.faults.Events {
				writeInts(w, int64(e.Kind), int64(e.Start), int64(e.Duration), int64(e.Link), int64(e.Node), int64(e.Item))
				writeFloats(w, e.Factor)
			}
		}
		writeInts(w, int64(len(in.assign)))
		for _, c := range in.assign {
			writeInts(w, int64(c))
		}
	})
}

func fingerprintSwap(in *swapInput) string {
	return hashHex(func(w io.Writer) {
		for _, rp := range in.ring {
			writeSpec(w, rp.spec)
		}
		writeLookups(w, in.stream)
	})
}

func writeSpec(w io.Writer, s *placement.Spec) {
	g := s.G
	writeInts(w, int64(g.NumNodes()), int64(g.NumArcs()), int64(s.NumItems))
	for _, a := range g.Arcs() {
		writeInts(w, int64(a.From), int64(a.To))
		writeFloats(w, a.Cost, a.Cap)
	}
	writeFloats(w, s.CacheCap...)
	writeFloats(w, s.ItemSize...)
	for _, v := range s.Pinned {
		writeInts(w, int64(v))
	}
	for _, row := range s.Rates {
		writeFloats(w, row...)
	}
}

func writeLookups(w io.Writer, qs []lookup) {
	for _, q := range qs {
		writeInts(w, int64(q.item), int64(q.node), int64(q.pick))
	}
}

func writeInts(w io.Writer, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		// Writes go to a hash, which never fails.
		_, _ = w.Write(b[:])
	}
}

func writeFloats(w io.Writer, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		_, _ = w.Write(b[:])
	}
}
