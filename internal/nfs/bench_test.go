package nfs

import (
	"testing"

	"repro/internal/invariant"
)

func BenchmarkLookupOverWire(b *testing.B) {
	root, err := newRig(b, &ClientOptions{DisableCaches: true}).client.Root()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := root.Create("f", true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookupCachedClientSide(b *testing.B) {
	root, err := newRig(b, &ClientOptions{AttrTTLOps: 1 << 40}).client.Root()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := root.Create("f", true); err != nil {
		b.Fatal(err)
	}
	if _, err := root.Lookup("f"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := root.Lookup("f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite4KOverWire(b *testing.B) {
	root, err := newRig(b, &ClientOptions{DisableCaches: true}).client.Root()
	if err != nil {
		b.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteRead times each round trip of a warm remote read over the
// physical stack, and the four in a row ("file").  To profile the remote read
// path: go test -run '^$' -bench RemoteRead -cpuprofile cpu.out -memprofile
// mem.out ./internal/nfs
func BenchmarkRemoteRead(b *testing.B) {
	defer invariant.ForceForTest(false)()
	rows := remoteRead(b)
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("file", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range rows {
				if err := r.op(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
