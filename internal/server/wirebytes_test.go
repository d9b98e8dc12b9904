package server

// Literal wire bytes. These tests speak to the server and the client
// only through sockets and the public client API, so they pin what
// actually crosses the network independently of how the codec is
// organised internally.

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"

	"smrseek/internal/geom"
)

const (
	// "SMRD", version 2, window 64 (uint16 LE).
	pinClientHello = "534d5244" + "02" + "4000"
	// "SMRD", version 2, granted window 64.
	pinServerHello = "534d5244" + "02" + "4000"
	// len 28 | id 1 | op write | vlen 2 | "v0" | lba 4096 | count 8.
	pinWriteRequest = "1c000000" + "0100000000000000" + "01" + "02" + "7630" +
		"0010000000000000" + "0800000000000000"
	// len 13 | id 1 | status ok | frags 1 (uint32 LE).
	pinReadResponse = "0d000000" + "0100000000000000" + "00" + "01000000"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readExactly reads len(want) bytes from r and compares them with want.
func readExactly(t *testing.T, r io.Reader, what string, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatalf("%s: %v (got %x so far)", what, err, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %x\nwant %x", what, got, want)
	}
}

// TestWireBytesClientSide checks the bytes the client library sends (its
// hello and a write request) and that it accepts the literal server hello
// and read response.
func TestWireBytesClientSide(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverHello, readResponse := unhex(t, pinServerHello), unhex(t, pinReadResponse)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		hello := make([]byte, len(pinClientHello)/2)
		if _, err := io.ReadFull(conn, hello); err != nil {
			served <- err
			return
		}
		if hex.EncodeToString(hello) != pinClientHello {
			t.Errorf("client hello %x, want %s", hello, pinClientHello)
		}
		conn.Write(serverHello)
		req := make([]byte, len(pinWriteRequest)/2)
		if _, err := io.ReadFull(conn, req); err != nil {
			served <- err
			return
		}
		if hex.EncodeToString(req) != pinWriteRequest {
			t.Errorf("write request %x, want %s", req, pinWriteRequest)
		}
		// Answer request 1 with the pinned read response; the client
		// matches by ID and hands the body back verbatim.
		_, err = conn.Write(readResponse)
		served <- err
	}()

	ac, err := DialAsync(ln.Addr().String(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if ac.Window() != 64 {
		t.Fatalf("window %d, want 64", ac.Window())
	}
	done := make(chan *Call, 1)
	if _, err := ac.Submit(Request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(4096, 8)}, done); err != nil {
		t.Fatal(err)
	}
	call := <-done
	body, err := call.Result()
	if err != nil {
		t.Fatal(err)
	}
	if call.ID != 1 || !bytes.Equal(body, []byte{1, 0, 0, 0}) {
		t.Errorf("call id %d body %x, want id 1 body 01000000", call.ID, body)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestWireBytesServerSide drives a live server with the literal hello and
// request bytes and checks its literal replies.
func TestWireBytesServerSide(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	if _, err := conn.Write(unhex(t, pinClientHello)); err != nil {
		t.Fatal(err)
	}
	readExactly(t, conn, "server hello", unhex(t, pinServerHello))

	// The write is answered with an empty OK body: len 9 | id 1 | ok.
	if _, err := conn.Write(unhex(t, pinWriteRequest)); err != nil {
		t.Fatal(err)
	}
	readExactly(t, conn, "write response", unhex(t, "09000000"+"0100000000000000"+"00"))

	// Reading back the same extent, also as request 1: one fragment.
	readReq := unhex(t, pinWriteRequest)
	readReq[12] = 0x02 // op read
	if _, err := conn.Write(readReq); err != nil {
		t.Fatal(err)
	}
	readExactly(t, conn, "read response", unhex(t, pinReadResponse))
}
