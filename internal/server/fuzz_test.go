package server

// Fuzzers over the wire layer: frame codecs (request-ID header, op
// payloads) and the version/window hello. Malformed input must error
// cleanly — never panic, never mis-round-trip. The CI fuzz smoke leg
// runs both briefly on every push.

import (
	"bytes"
	"io"
	"testing"

	"smrseek/internal/geom"
)

// FuzzWireFrame throws arbitrary bytes at both frame parsers and
// pins the canonical-encoding property: whatever parses must re-encode
// to exactly the bytes that parsed.
func FuzzWireFrame(f *testing.F) {
	// Valid request frames of every op as seeds (payload only, the way
	// the read loop hands them to the parser).
	seed := func(req Request) {
		frame, err := appendRequest(nil, 12345, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(Request{Op: OpWrite, Volume: "v", Extent: geom.Ext(8, 16)})
	seed(Request{Op: OpRead, Volume: "vol-name", Extent: geom.Ext(0, 1)})
	seed(Request{Op: OpStat, Volume: "v"})
	seed(Request{Op: OpSnapshot, Volume: "v"})
	seed(Request{Op: OpVerify, Volume: "v"})
	seed(Request{Op: OpProof, Volume: "v", Seq: 7})
	seed(Request{Op: OpShip, Volume: "v", Gen: 3, Off: 4096})
	seed(Request{Op: OpTail, Volume: "v", Gen: 1, Off: 0})
	seed(Request{Op: OpAck, Volume: "v", Gen: 9, Off: 1 << 30})
	seed(Request{Op: OpRole})
	seed(Request{Op: OpPromote})
	// Response-shaped seeds and degenerate frames.
	f.Add(appendResponse(nil, 1, StatusOK, []byte{1, 2, 3, 4})[4:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, idSize+1))

	f.Fuzz(func(t *testing.T, p []byte) {
		names := make(nameCache)
		if id, req, err := parseRequest(p, names); err == nil {
			enc, err := appendRequest(nil, id, req)
			if err != nil {
				t.Fatalf("re-encode of parsed request %+v: %v", req, err)
			}
			if !bytes.Equal(enc[4:], p) {
				t.Fatalf("request round trip diverged:\n in  %x\n out %x", p, enc[4:])
			}
		}
		if id, status, body, err := parseResponse(p); err == nil {
			enc := appendResponse(nil, id, status, body)
			if !bytes.Equal(enc[4:], p) {
				t.Fatalf("response round trip diverged:\n in  %x\n out %x", p, enc[4:])
			}
		}
	})
}

// FuzzHello drives both hello directions with arbitrary peer bytes:
// the server reading a fuzzed client hello, and the client reading a
// fuzzed server reply. Only version 2 may ever be negotiated: whatever
// the server writes names version 2, and a version-1 hello never gets a
// window.
func FuzzHello(f *testing.F) {
	f.Add([]byte("SMRD\x01"))
	f.Add([]byte("SMRD\x02\x00\x00"))
	f.Add([]byte("SMRD\x02\x40\x00"))
	f.Add([]byte("SMRD\x02\xff\xff"))
	f.Add([]byte("SMRX\x01"))
	f.Add([]byte("SM"))
	f.Add([]byte("SMRD\x07\x01\x00extra trailing bytes"))

	f.Fuzz(func(t *testing.T, p []byte) {
		var reply bytes.Buffer
		srv := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(p), &reply}
		window, err := serverHello(srv, 0)
		if err == nil {
			if window < 1 || window > HardMaxWindow {
				t.Fatalf("serverHello granted window %d", window)
			}
			if reply.Len() != helloSize || reply.Bytes()[len(Magic)] != Version {
				t.Fatalf("serverHello accepted %x with reply %x", p, reply.Bytes())
			}
		} else if reply.Len() > 0 && reply.String() != Magic+"\x02" {
			t.Fatalf("serverHello refused %x with reply %x", p, reply.Bytes())
		}
		if len(p) > len(Magic) && p[len(Magic)] < Version && err == nil {
			t.Fatalf("serverHello negotiated with a version-%d hello", p[len(Magic)])
		}
		cli := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(p), io.Discard}
		if window, err := clientHello(cli, 8); err == nil {
			if p[len(Magic)] != Version {
				t.Fatalf("clientHello accepted version %d", p[len(Magic)])
			}
			if window < 1 || window > 8 {
				t.Fatalf("clientHello accepted window %d beyond its request", window)
			}
		}
	})
}
