package wire

import (
	"testing"
)

// benchDelta is a representative broadcast: one armed signature (the
// overwhelmingly common arming) pushed to the whole fleet.
func benchDelta() Message {
	return Message{Type: TypeDelta,
		Delta: &Delta{Epoch: 42, Sigs: []Signature{FromCore(testSig())}}}
}

const benchSubscribers = 64

// BenchmarkHubBroadcast measures the wire cost of pushing one arming to
// 64 subscribers. The per-subscriber sub-benchmark frames a copy of the
// message for every session's queue; the encode-once sub-benchmark is
// the shipped path (one Shared, every session handed the cached frame).
// cmd/microbench -wire runs the same two bodies and records the ratio
// in BENCH_wire.json.
func BenchmarkHubBroadcast(b *testing.B) {
	b.Run("per-subscriber", func(b *testing.B) {
		m := benchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < benchSubscribers; s++ {
				if _, err := AppendFrame(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("encode-once", func(b *testing.B) {
		m := benchDelta()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh := NewShared(m) // a fresh broadcast per arming, as the hub does
			for s := 0; s < benchSubscribers; s++ {
				if _, err := sh.Frame(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWireEncode tracks the per-message codec cost (one encode,
// no fan-out) for the perf trajectory in BENCH_wire.json.
func BenchmarkWireEncode(b *testing.B) {
	m := benchDelta()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is BenchmarkWireEncode's read side.
func BenchmarkWireDecode(b *testing.B) {
	buf, err := EncodeBinary(benchDelta())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}
