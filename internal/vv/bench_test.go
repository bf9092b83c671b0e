package vv

import (
	"testing"

	"repro/internal/ids"
)

func benchVec(n int) Vector {
	m := map[ids.ReplicaID]uint64{}
	for i := 0; i < n; i++ {
		m[ids.ReplicaID(i)] = uint64(i + 1)
	}
	return Of(m)
}

func BenchmarkCompare8(b *testing.B) {
	x, y := benchVec(8), benchVec(8).Bump(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Compare(y) != Dominated {
			b.Fatal("wrong order")
		}
	}
}

func BenchmarkMerge8(b *testing.B) {
	x, y := benchVec(8), benchVec(8).Bump(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Merge(x, y)
	}
}

func BenchmarkCodecRoundTrip8(b *testing.B) {
	v := benchVec(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := v.AppendBinary(nil)
		if _, _, err := DecodeFrom(enc); err != nil {
			b.Fatal(err)
		}
	}
}
