package core

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

func TestNotifyCodecRoundTrip(t *testing.T) {
	cases := []notifyMsg{
		{
			Vol:    ids.VolumeHandle{Allocator: 7, Volume: 3},
			File:   ids.FileID{Issuer: 2, Seq: 99},
			Origin: 2,
		},
		{
			Vol:  ids.VolumeHandle{Allocator: 1, Volume: 1},
			File: ids.FileID{Issuer: 1, Seq: 1},
			Dir: []ids.FileID{
				{Issuer: 1, Seq: 0},
				{Issuer: 4, Seq: 1 << 40},
				{Issuer: 0xffffffff, Seq: ^uint64(0)},
			},
			Origin: 0xffffffff,
		},
		{ // gossip-tagged rumor: source, sequence, and hop budget survive
			Vol:    ids.VolumeHandle{Allocator: 3, Volume: 9},
			File:   ids.FileID{Issuer: 5, Seq: 7},
			Dir:    []ids.FileID{{Issuer: 5, Seq: 2}},
			Origin: 5,
			Src:    simnet.Addr("h17"),
			Seq:    ^uint64(0),
			Hops:   255,
		},
	}
	for i, want := range cases {
		b := encodeNotify(&want)
		got, err := decodeNotify(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestNotifyCodecRejectsCorruption(t *testing.T) {
	msg := notifyMsg{
		Vol:    ids.VolumeHandle{Allocator: 7, Volume: 3},
		File:   ids.FileID{Issuer: 2, Seq: 99},
		Dir:    []ids.FileID{{Issuer: 2, Seq: 1}},
		Origin: 2,
		Src:    simnet.Addr("h0"),
		Seq:    4,
		Hops:   3,
	}
	good := encodeNotify(&msg)

	// Every truncation of a valid payload must fail, not misparse.
	for n := 0; n < len(good); n++ {
		if _, err := decodeNotify(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
	}
	// Trailing junk is rejected.
	if _, err := decodeNotify(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Wrong wire version is rejected.
	bad := append([]byte(nil), good...)
	bad[0] = notifyWireVersion + 1
	if _, err := decodeNotify(bad); err == nil {
		t.Fatal("wrong wire version accepted")
	}
	// A dir-path count far beyond the remaining bytes must fail cleanly
	// (no huge allocation): version + vol + origin + file + hops + seq +
	// src ("h0"), then count 2^40.
	hdr := good[:1+4+4+4+12+1+8+1+2]
	huge := append(append([]byte(nil), hdr...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	if _, err := decodeNotify(huge); err == nil {
		t.Fatal("overlong dir-path count accepted")
	}
	// Same for a corrupt src length: header up to the seq field, then a
	// length claiming 2^40 bytes of address.
	srcHdr := good[:1+4+4+4+12+1+8]
	hugeSrc := append(append([]byte(nil), srcHdr...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)
	if _, err := decodeNotify(hugeSrc); err == nil {
		t.Fatal("overlong src length accepted")
	}
}

// goldenNotify is a gossip-tagged notification with a two-component path.
func goldenNotify() notifyMsg {
	return notifyMsg{
		Vol:    ids.VolumeHandle{Allocator: 3, Volume: 9},
		File:   ids.FileID{Issuer: 5, Seq: 7},
		Dir:    []ids.FileID{{Issuer: 1, Seq: 1}, {Issuer: 5, Seq: 2}},
		Origin: 5,
		Src:    simnet.Addr("h17"),
		Seq:    1 << 40,
		Hops:   3,
	}
}

// TestNotifyGoldenBytes pins the layout: the image was recorded before the
// codec moved onto internal/wire.
func TestNotifyGoldenBytes(t *testing.T) {
	const golden = "020000000300000009000000050000000500000000000000070300000100000000000368313702000000010000000000000001000000050000000000000002"
	msg := goldenNotify()
	if got := hex.EncodeToString(encodeNotify(&msg)); got != golden {
		t.Fatalf("notification layout moved:\n got %s\nwant %s", got, golden)
	}
}

// FuzzDecodeNotify: no datagram panics the decoder, and the decode is
// strict — whatever it accepts is exactly what the encoder writes for it.
func FuzzDecodeNotify(f *testing.F) {
	msg := goldenNotify()
	f.Add(encodeNotify(&msg))
	f.Add(encodeNotify(&notifyMsg{}))
	f.Add([]byte{notifyWireVersion})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := decodeNotify(b)
		if err != nil {
			return
		}
		if enc := encodeNotify(&msg); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}

// TestNotifyCorruptDatagramCounted injects a garbage datagram on the notify
// port and checks it is counted and dropped while real notifications keep
// flowing.
func TestNotifyCorruptDatagramCounted(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.hosts[0], c.hosts[1]

	h0.SimHost().Multicast(NotifyPort, []byte{0xde, 0xad, 0xbe, 0xef}, []simnet.Addr{h1.Addr()})
	if got := h1.GossipStats().NotifyCodecErrors; got != 1 {
		t.Fatalf("NotifyCodecErrors = %d, want 1", got)
	}
	if got := h1.GossipStats().NotificationsSeen; got != 0 {
		t.Fatalf("NotificationsSeen = %d, want 0", got)
	}

	// A real update still notifies h1.
	root := c.mount(t, 0)
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := h1.GossipStats().NotificationsSeen; got == 0 {
		t.Fatal("valid notification not seen after corrupt datagram")
	}
	if got := h1.GossipStats().NotifyCodecErrors; got != 1 {
		t.Fatalf("NotifyCodecErrors = %d after valid traffic, want 1", got)
	}
}
