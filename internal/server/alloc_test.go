package server

import (
	"bufio"
	"net"
	"testing"

	"smrseek/internal/geom"
)

// TestV2ServerSteadyStateAllocs pins the per-request allocation budget
// of the whole server-side path — connection reader, volume actor,
// response writer — at steady state. The client half is a pre-encoded
// raw frame batch and a reused read buffer, so it allocates nothing;
// AllocsPerRun therefore sees (almost) only the server.
func TestV2ServerSteadyStateAllocs(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("a"))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const batch = 64
	window, err := clientHello(conn, batch)
	if err != nil {
		t.Fatal(err)
	}
	if window != batch {
		t.Fatalf("negotiated window %d, want %d", window, batch)
	}
	var frames []byte
	for i := 0; i < batch; i++ {
		frames, err = appendRequest(frames, uint64(i+1), Request{
			Op: OpWrite, Volume: "a",
			Extent: geom.Ext(geom.Sector((i*8)%(1<<18)), 8),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	buf := make([]byte, 256)
	run := func() {
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			frame, err := readFrame(br, buf)
			if err != nil {
				t.Fatal(err)
			}
			if _, status, _, err := parseResponse(frame); err != nil || status != StatusOK {
				t.Fatalf("response %d: status %d, err %v", i, status, err)
			}
		}
	}
	// Warm the name cache, frame pools and the actor's batch path before
	// measuring.
	for i := 0; i < 5; i++ {
		run()
	}
	perBatch := testing.AllocsPerRun(20, run)
	if perReq := perBatch / batch; perReq > 2 {
		t.Errorf("server steady state allocates %.2f per request, want <= 2", perReq)
	}
}
