package nfs

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/simnet"
	"repro/internal/vnode"
)

func sampleRequest() *Request {
	return &Request{Op: OpRename, Handle: "h/1.2", Name: "old", Name2: "new", Handle2: "h/1.3",
		Target: "../t", Excl: true, Off: 1 << 33, Len: 8192, Data: []byte("payload"),
		Size: 1 << 40, HasMode: true, Mode: 0o640, HasSize: true}
}

func sampleResponse() *Response {
	return &Response{Errno: vnode.ENOENT.Code(), Handle: "h/1.9",
		Attr: vnode.Attr{Type: vnode.VDir, Mode: 0o755, Nlink: 3, Size: 4096, Mtime: 17, Ctime: 1 << 40,
			FileID: "1.9", GraftVol: "8.1"},
		N: 5, EOF: true, Data: []byte("bytes"), Str: "link target",
		Ents: []vnode.Dirent{
			{Name: "a", FileID: "1.10", Type: vnode.VReg},
			{Name: "graft", FileID: "1.11", Type: vnode.VDir, Value: "h2"},
		}}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, req := range []*Request{sampleRequest(), {}} {
		enc := req.encode()
		dec, err := decodeRequest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, req) {
			t.Fatalf("request: got %+v want %+v", dec, req)
		}
		if again := dec.encode(); !bytes.Equal(again, enc) {
			t.Fatalf("request re-encoding differs:\n%x\n%x", enc, again)
		}
	}
	for _, resp := range []*Response{sampleResponse(), {}} {
		enc := resp.encode()
		dec, err := decodeResponse(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, resp) {
			t.Fatalf("response: got %+v want %+v", dec, resp)
		}
		if again := dec.encode(); !bytes.Equal(again, enc) {
			t.Fatalf("response re-encoding differs:\n%x\n%x", enc, again)
		}
	}
}

// TestCodecGoldenBytes pins the layout: the images below were recorded from
// sampleRequest, sampleResponse and the empty messages.  A width changed on
// both sides at once still round-trips; only a fixed image catches it.
func TestCodecGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		name, want string
		got        []byte
	}{
		{"request", "011005682f312e32036f6c64036e657705682f312e33042e2e2f7401000000020000000000002000077061796c6f6164" +
			"00000100000000000101a001", sampleRequest().encode()},
		{"response", "010000000105682f312e390201ed00000003000000000000100000000000000000110000010000000000" +
			"03312e3903382e3100000005010562797465730b6c696e6b2074617267657402016104312e3130010005677261667404" +
			"312e313102026832", sampleResponse().encode()},
		{"empty request", "010000000000000000000000000000000000000000000000000000000000000000", (&Request{}).encode()},
		{"empty response", "0100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
			(&Response{}).encode()},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s layout moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestCodecRejectsCorruption: every truncation, any other version byte and
// trailing bytes fail with an error.
func TestCodecRejectsCorruption(t *testing.T) {
	reqEnc, respEnc := sampleRequest().encode(), sampleResponse().encode()
	for n := 0; n < len(reqEnc); n++ {
		if _, err := decodeRequest(reqEnc[:n]); err == nil {
			t.Fatalf("request truncated to %d bytes decoded", n)
		}
	}
	for n := 0; n < len(respEnc); n++ {
		if _, err := decodeResponse(respEnc[:n]); err == nil {
			t.Fatalf("response truncated to %d bytes decoded", n)
		}
	}
	for v := 0; v < 256; v++ {
		if v == wireVersion {
			continue
		}
		if _, err := decodeRequest(append([]byte{byte(v)}, reqEnc[1:]...)); err == nil {
			t.Fatalf("request at version %d accepted", v)
		}
		if _, err := decodeResponse(append([]byte{byte(v)}, respEnc[1:]...)); err == nil {
			t.Fatalf("response at version %d accepted", v)
		}
	}
	if _, err := decodeRequest(append(reqEnc[:len(reqEnc):len(reqEnc)], 0)); err == nil {
		t.Fatal("request with a trailing byte accepted")
	}
	if _, err := decodeResponse(append(respEnc[:len(respEnc):len(respEnc)], 0)); err == nil {
		t.Fatal("response with a trailing byte accepted")
	}
}

// TestAttrEncodingIsFixedWidth: the bytes an attribute block occupies do not
// depend on the values it carries, so a count of wire bytes cannot drift as
// the logical clock advances (gob's variable-length Ctime did exactly that).
func TestAttrEncodingIsFixedWidth(t *testing.T) {
	small := encodeAttr(nil, vnode.Attr{Type: vnode.VReg, Ctime: 1})
	large := encodeAttr(nil, vnode.Attr{Type: vnode.VReg, Mode: 0xffff, Nlink: 1 << 31, Size: 1 << 50, Mtime: 1 << 60, Ctime: 1 << 40})
	if len(small) != len(large) {
		t.Fatalf("attr encodes to %d bytes with small values and %d with large ones", len(small), len(large))
	}
}

// readFrame is a well-formed read request whose length field has been
// overwritten with n.
func readFrame(t *testing.T, handle string, n uint32) []byte {
	t.Helper()
	const marker = 0x5aa55aa5
	frame := (&Request{Op: OpRead, Handle: handle, Len: marker}).encode()
	at := bytes.Index(frame, binary.BigEndian.AppendUint32(nil, marker))
	if at < 0 {
		t.Fatal("length field not found in the frame")
	}
	binary.BigEndian.PutUint32(frame[at:], n)
	return frame
}

// TestReadLengthIsBounded: the server sizes its read buffer from the wire,
// so a request asking for more than maxRead — including the all-ones length
// a negative int becomes — is refused with EINVAL before anything is
// allocated, and the server keeps serving.
func TestReadLengthIsBounded(t *testing.T) {
	r := newRig(t, nil)
	root, err := r.client.Root()
	if err != nil {
		t.Fatal(err)
	}
	f, err := root.Create("f", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnode.WriteFile(f, []byte("contents")); err != nil {
		t.Fatal(err)
	}
	for _, n := range []uint32{maxRead + 1, 1 << 31, ^uint32(0)} {
		respBytes, err := r.net.Host("client").Call("server", Service, readFrame(t, f.Handle(), n))
		if err != nil {
			t.Fatalf("length %d: %v", n, err)
		}
		resp, err := decodeResponse(respBytes)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Errno != vnode.EINVAL.Code() {
			t.Fatalf("length %d answered errno %d, want EINVAL", n, resp.Errno)
		}
	}
	if _, err := decodeRequest(readFrame(t, f.Handle(), maxRead)); err != nil {
		t.Fatalf("length maxRead refused: %v", err)
	}
	// The client refuses the same reads without asking.
	if _, err := f.ReadAt(make([]byte, maxRead+1), 0); vnode.AsErrno(err) != vnode.EINVAL {
		t.Fatalf("oversized client read: %v, want EINVAL", err)
	}
	if got, err := vnode.ReadFile(f); err != nil || string(got) != "contents" {
		t.Fatalf("read after the refused requests: %q %v", got, err)
	}
}

// TestUndecodableResponseIsEIO: a reply the client cannot decode surfaces
// as EIO, never as a success built from a half-read message.
func TestUndecodableResponseIsEIO(t *testing.T) {
	net := simnet.New(1)
	good := sampleResponse().encode()
	net.Host("server").HandleRPC(Service, func([]byte) ([]byte, error) { return good[:len(good)-1], nil })
	if _, err := Dial(net.Host("client"), "server", nil).Root(); vnode.AsErrno(err) != vnode.EIO {
		t.Fatalf("truncated reply: %v, want EIO", err)
	}
}

// The decoders are strict, so the oracle is exact: whatever decodes
// re-encodes to the very bytes that were decoded.

func FuzzDecodeRequest(f *testing.F) {
	f.Add(sampleRequest().encode())
	f.Add((&Request{}).encode())
	f.Add((&Request{Op: OpRead, Handle: "h", Len: maxRead}).encode())
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeRequest(b)
		if err != nil {
			return
		}
		if req.Len > maxRead {
			t.Fatalf("accepted read length %d", req.Len)
		}
		if enc := req.encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(sampleResponse().encode())
	f.Add((&Response{}).encode())
	f.Add([]byte{wireVersion})
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := decodeResponse(b)
		if err != nil {
			return
		}
		if enc := resp.encode(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n%x\n%x", b, enc)
		}
	})
}
