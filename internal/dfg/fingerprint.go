package dfg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"

	"doacross/internal/dlx"
	"doacross/internal/tac"
)

// Fingerprint is a content hash identifying a scheduling problem. Two graphs
// with equal fingerprints are interchangeable for scheduling and execution:
// their instruction sequences carry the same opcodes, operands, arrays,
// signals and distances, run on the same function-unit classes, and carry
// the same dependence arcs. The batch pipeline's schedule cache is keyed by
// ConfigKey, which extends the graph fingerprint with the machine
// configuration and scheduler options.
type Fingerprint [sha256.Size]byte

// String renders a short hex prefix for logs and reports.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:8]) }

// fpPool recycles the encoding buffers so fingerprinting a graph in the hot
// batch path allocates nothing once warm (the buffer grows to the largest
// body seen and stays there).
var fpPool = sync.Pool{New: func() any { return new(fpBuf) }}

type fpBuf struct{ b []byte }

func appendIntFP(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendStrFP(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendOperandFP encodes an operand of p as kind, register and immediate
// value: an immediate's register is 0, any other operand's value is 0.
func appendOperandFP(b []byte, p *tac.Program, o tac.Operand) []byte {
	b = appendIntFP(b, int(o.Kind))
	reg, val := int(o.Reg), 0.0
	if o.Kind == tac.Const {
		reg, val = 0, p.Imm(o)
	}
	b = appendIntFP(b, reg)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(val))
}

// Fingerprint hashes the graph's content: every instruction field that
// affects its rendering or unit class (opcode, destination, operands,
// relation, array, signal, distance, class), and every arc with its kind.
// All variable-length fields are length-prefixed, so the encoding is
// injective. Node numbering is positional, so isomorphic-but-reordered
// bodies hash differently; the cache trades those rare misses for exactness
// (a hit is never a false positive short of a SHA-256 collision).
func (g *Graph) Fingerprint() Fingerprint {
	w := fpPool.Get().(*fpBuf)
	b := w.b[:0]
	b = appendIntFP(b, g.N())
	p := g.Prog
	for i := range p.Instrs {
		in := &p.Instrs[i]
		b = appendIntFP(b, int(in.Op))
		b = appendIntFP(b, int(in.Dst))
		b = appendOperandFP(b, p, in.A)
		b = appendOperandFP(b, p, in.B)
		b = appendOperandFP(b, p, in.C)
		b = appendIntFP(b, int(in.Rel))
		b = appendStrFP(b, p.Name(in.Array))
		b = appendStrFP(b, p.Name(in.Signal))
		b = appendIntFP(b, int(in.SigDist))
		b = appendIntFP(b, int(in.Class()))
	}
	b = appendIntFP(b, len(g.Arcs))
	for _, a := range g.Arcs {
		b = appendIntFP(b, int(a.From))
		b = appendIntFP(b, int(a.To))
		b = appendIntFP(b, int(a.Kind))
	}
	out := Fingerprint(sha256.Sum256(b))
	w.b = b
	fpPool.Put(w)
	return out
}

// ConfigKey combines the graph fingerprint with a machine configuration and
// free-form salt strings (scheduler options, trip counts) into one cache
// key. The machine's Name is deliberately excluded: identically shaped
// machines share schedules regardless of label.
func ConfigKey(g *Graph, cfg dlx.Config, salt ...string) Fingerprint {
	return KeyFrom(g.Fingerprint(), cfg, salt...)
}

// KeyFrom derives a ConfigKey from an already computed graph fingerprint,
// letting callers hash the graph once per loop and cheaply re-key it for
// every machine configuration.
func KeyFrom(base Fingerprint, cfg dlx.Config, salt ...string) Fingerprint {
	w := fpPool.Get().(*fpBuf)
	b := append(w.b[:0], base[:]...)
	b = appendIntFP(b, cfg.Issue)
	for c := 0; c < int(dlx.NumClasses); c++ {
		b = appendIntFP(b, cfg.Units[c])
		b = appendIntFP(b, cfg.Latency[c])
	}
	for _, s := range salt {
		b = appendStrFP(b, s)
	}
	out := Fingerprint(sha256.Sum256(b))
	w.b = b
	fpPool.Put(w)
	return out
}
