// Package server exposes a volume.Manager over TCP with a compact
// length-prefixed binary protocol (read/write/stat/snapshot per volume),
// and provides the matching client library used by cmd/smrload and the
// end-to-end tests. The record layout is documented in docs/FORMATS.md.
//
// The protocol (SMRD2) multiplexes: every frame carries a uint64 request
// ID, a client may keep up to a negotiated window of requests in flight
// per connection, and responses complete out of order (matched by ID).
// Requests from one connection are dispatched to the volume actor in
// send order, so a single connection replaying a trace is
// bit-deterministic whatever its window; only the responses are
// reordered. The window is negotiated in the hello; a client speaking
// the retired synchronous version 1 is refused there.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// Protocol constants.
const (
	// Magic + version exchanged once per connection, client first.
	Magic   = "SMRD"
	Version = 2

	// MaxFrame bounds a frame's post-length payload; stat responses
	// (JSON statistics) are the largest legitimate frames.
	MaxFrame = 1 << 20

	// MaxVolumeName bounds the volume-name field (its length is a uint8).
	MaxVolumeName = 255

	// DefaultWindow is the per-connection in-flight window granted to a
	// client that requests 0 ("server default").
	DefaultWindow = 32
	// DefaultMaxWindow caps the window a server grants unless
	// Options.MaxWindow overrides it.
	DefaultMaxWindow = 256
	// HardMaxWindow bounds any negotiated window: it also sizes the
	// per-connection completion channel, so it must stay moderate.
	HardMaxWindow = 1 << 14
)

// Request opcodes (first payload byte of a request frame).
const (
	OpWrite uint8 = iota + 1
	OpRead
	OpStat
	OpSnapshot
	OpVerify
	OpProof
	// OpShip asks a primary for the next replication chunk of a volume's
	// journal past the requester's (generation, offset) position.
	OpShip
	// OpTail is OpShip with long-poll semantics: the server holds the
	// request until sealed bytes exist past the requester's position (a
	// force-seal is triggered for a lagging tail) or a bounded wait ends.
	OpTail
	// OpAck reports a follower's applied journal position so the primary
	// can track replication lag and release gated writes.
	OpAck
	// OpRole asks the node for its replication role, fencing epoch and
	// per-volume journal positions.
	OpRole
	// OpPromote asks a follower to promote itself to primary: verified
	// recovery of every replicated journal, epoch bump, serving enabled.
	OpPromote
)

// Response status codes (first payload byte of a response frame).
const (
	StatusOK uint8 = iota
	StatusOverloaded
	StatusUnknownVolume
	StatusBadRequest
	StatusCrashed
	StatusMediaError
	StatusTransient
	StatusNoJournal
	StatusTimeout
	StatusInternal
	StatusCorrupt
	// StatusNotPrimary rejects a data op on a node that is not the
	// serving primary — an unpromoted follower or a fenced (demoted)
	// ex-primary. Clients re-route; see Set.
	StatusNotPrimary
)

var statusNames = [...]string{
	StatusOK:            "ok",
	StatusOverloaded:    "overloaded",
	StatusUnknownVolume: "unknown-volume",
	StatusBadRequest:    "bad-request",
	StatusCrashed:       "crashed",
	StatusMediaError:    "media-error",
	StatusTransient:     "transient-fault",
	StatusNoJournal:     "no-journal",
	StatusTimeout:       "timeout",
	StatusInternal:      "internal",
	StatusCorrupt:       "corrupt",
	StatusNotPrimary:    "not-primary",
}

// StatusName returns the status code's kebab-case name.
func StatusName(s uint8) string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", s)
}

// Request is one request: the argument of AsyncClient.Submit and the
// decoded form of a request frame. Extent is used by write/read, Seq by
// proof, Gen/Off by ship/tail/ack; the other ops ignore them.
type Request struct {
	Op     uint8
	Volume string
	Extent geom.Extent // write/read only
	Seq    int64       // proof only: 1-based journal record sequence
	Gen    uint64      // ship/tail/ack only: requester's journal generation
	Off    int64       // ship/tail/ack only: requester's journal byte offset
}

// idSize is the width of the request ID that opens every frame payload.
const idSize = 8

// appendRequest encodes a request frame:
//
//	len uint32 LE | id uint64 LE | op uint8 | vlen uint8 | name | body
//
// where body is `lba uint64 LE, count uint64 LE` for write/read,
// `seq uint64 LE` for proof, `gen uint64 LE, off uint64 LE` for
// ship/tail/ack, and empty otherwise.
func appendRequest(dst []byte, id uint64, req Request) ([]byte, error) {
	if len(req.Volume) > MaxVolumeName {
		return dst, fmt.Errorf("server: volume name %d bytes long (max %d)", len(req.Volume), MaxVolumeName)
	}
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, req.Op, uint8(len(req.Volume)))
	dst = append(dst, req.Volume...)
	switch req.Op {
	case OpWrite, OpRead:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Extent.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Extent.Count))
	case OpProof:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Seq))
	case OpShip, OpTail, OpAck:
		dst = binary.LittleEndian.AppendUint64(dst, req.Gen)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Off))
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// nameCache interns volume-name strings so the reader's steady state
// allocates nothing per request: the first request for a volume pays one
// string allocation, every later one reuses it. Bounded so a client
// spraying names cannot grow it without limit.
type nameCache map[string]string

const maxCachedNames = 256

func (nc nameCache) intern(b []byte) string {
	if s, ok := nc[string(b)]; ok { // no-alloc map lookup on []byte key
		return s
	}
	s := string(b)
	if nc != nil && len(nc) < maxCachedNames {
		nc[s] = s
	}
	return s
}

// parseRequest decodes a request frame payload (everything after the
// length prefix) into its ID and request, interning the volume name
// through names (nil = allocate per call). The ID is returned whenever
// the payload is long enough to carry one, so a malformed request can
// still be answered.
func parseRequest(p []byte, names nameCache) (uint64, Request, error) {
	if len(p) < idSize {
		return 0, Request{}, fmt.Errorf("server: request frame %d bytes, want >= %d", len(p), idSize+2)
	}
	id := binary.LittleEndian.Uint64(p[:idSize])
	p = p[idSize:]
	if len(p) < 2 {
		return id, Request{}, fmt.Errorf("server: request frame %d bytes, want >= %d", idSize+len(p), idSize+2)
	}
	req := Request{Op: p[0]}
	vlen := int(p[1])
	p = p[2:]
	if len(p) < vlen {
		return id, Request{}, fmt.Errorf("server: request truncated inside volume name")
	}
	req.Volume = names.intern(p[:vlen])
	p = p[vlen:]
	switch req.Op {
	case OpWrite, OpRead:
		if len(p) != 16 {
			return id, Request{}, fmt.Errorf("server: %s body %d bytes, want 16", StatusName(StatusBadRequest), len(p))
		}
		req.Extent = geom.Ext(
			geom.Sector(binary.LittleEndian.Uint64(p[0:8])),
			int64(binary.LittleEndian.Uint64(p[8:16])),
		)
		if req.Extent.Start < 0 || req.Extent.Count < 0 {
			return id, Request{}, fmt.Errorf("server: negative extent %v", req.Extent)
		}
	case OpProof:
		if len(p) != 8 {
			return id, Request{}, fmt.Errorf("server: proof body %d bytes, want 8", len(p))
		}
		req.Seq = int64(binary.LittleEndian.Uint64(p[0:8]))
		if req.Seq < 1 {
			return id, Request{}, fmt.Errorf("server: proof sequence %d, want >= 1", req.Seq)
		}
	case OpShip, OpTail, OpAck:
		if len(p) != 16 {
			return id, Request{}, fmt.Errorf("server: repl body %d bytes, want 16", len(p))
		}
		req.Gen = binary.LittleEndian.Uint64(p[0:8])
		req.Off = int64(binary.LittleEndian.Uint64(p[8:16]))
		if req.Off < 0 {
			return id, Request{}, fmt.Errorf("server: negative repl offset %d", req.Off)
		}
	case OpStat, OpSnapshot, OpVerify, OpRole, OpPromote:
		if len(p) != 0 {
			return id, Request{}, fmt.Errorf("server: op %d carries %d unexpected body bytes", req.Op, len(p))
		}
	default:
		return id, Request{}, fmt.Errorf("server: unknown op %d", req.Op)
	}
	return id, req, nil
}

// appendResponse encodes a response frame:
//
//	len uint32 LE | id uint64 LE | status uint8 | body
//
// For StatusOK the body is op-specific (read: frags uint32 LE; stat:
// JSON statistics; write/snapshot: empty). For errors it is a UTF-8
// message. A response that would exceed MaxFrame — which the peer's
// readFrame must reject, taking the whole connection down — is replaced
// by a StatusInternal response for the same ID naming the size and cap.
func appendResponse(dst []byte, id uint64, status uint8, body []byte) []byte {
	if n := idSize + 1 + len(body); n > MaxFrame {
		status = StatusInternal
		body = fmt.Appendf(nil, "response of %d bytes exceeds the %d-byte frame cap", n, MaxFrame)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idSize+1+len(body)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, status)
	return append(dst, body...)
}

// parseResponse splits a response payload into ID, status and body.
func parseResponse(p []byte) (id uint64, status uint8, body []byte, err error) {
	if len(p) < idSize+1 {
		return 0, 0, nil, fmt.Errorf("server: response frame %d bytes, want >= %d", len(p), idSize+1)
	}
	return binary.LittleEndian.Uint64(p[:idSize]), p[idSize], p[idSize+1:], nil
}

// readFrame reads one length-prefixed frame payload into buf (growing it
// as needed) and returns the payload slice.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is staged in buf rather than a local array: passing a
	// stack array through the io.Reader interface makes it escape, which
	// costs an allocation per frame on the server's hot read loop.
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return nil, fmt.Errorf("server: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("server: truncated frame: %w", err)
	}
	return buf, nil
}

// RoleInfo is the OpRole / OpPromote response body (JSON): the node's
// replication role, fencing epoch, and per-volume journal positions.
type RoleInfo struct {
	// Role is "primary", "follower", or "fenced" (a demoted ex-primary
	// that refuses data ops).
	Role string `json:"role"`
	// Epoch is the fencing epoch: bumped by every promotion, persisted,
	// and compared on rejoin — the higher epoch is the serving primary.
	Epoch uint64 `json:"epoch"`
	// Volumes maps volume names to replication positions. On a primary
	// the position is the sealed extent of the live journal; on a
	// follower it is the verified, applied extent.
	Volumes map[string]ReplPosition `json:"volumes"`
}

// ReplPosition is one volume's journal replication position.
type ReplPosition struct {
	// Gen is the journal generation.
	Gen uint64 `json:"gen"`
	// Bytes is the sealed byte extent within that generation's file.
	Bytes int64 `json:"bytes"`
	// Records is the cumulative sealed-record watermark (primary) or the
	// applied sealed-record count (follower); used with (Gen, Bytes) to
	// rank followers by caught-up-ness.
	Records int64 `json:"records"`
}

// Less orders positions by caught-up-ness: generation first (a newer
// generation subsumes every older one), sealed bytes within it second.
func (p ReplPosition) Less(o ReplPosition) bool {
	if p.Gen != o.Gen {
		return p.Gen < o.Gen
	}
	return p.Bytes < o.Bytes
}

// Ship response body layout (after the status byte):
//
//	kind uint8 | gen uint64 LE | off uint64 LE | epoch uint64 LE | data
//
// kind/gen/off/data are a journal.ShipChunk; epoch is the responding
// primary's fencing epoch, letting a follower detect a demoted source.
const shipRespHeader = 1 + 8 + 8 + 8

// appendShipBody encodes a ship/tail response body.
func appendShipBody(dst []byte, epoch uint64, c journal.ShipChunk) []byte {
	dst = append(dst, c.Kind)
	dst = binary.LittleEndian.AppendUint64(dst, c.Gen)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Off))
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return append(dst, c.Data...)
}

// parseShipBody decodes a ship/tail response body.
func parseShipBody(p []byte) (epoch uint64, c journal.ShipChunk, err error) {
	if len(p) < shipRespHeader {
		return 0, c, fmt.Errorf("server: ship response %d bytes, want >= %d", len(p), shipRespHeader)
	}
	c.Kind = p[0]
	c.Gen = binary.LittleEndian.Uint64(p[1:9])
	c.Off = int64(binary.LittleEndian.Uint64(p[9:17]))
	epoch = binary.LittleEndian.Uint64(p[17:25])
	if c.Off < 0 {
		return 0, c, fmt.Errorf("server: negative ship offset %d", c.Off)
	}
	if len(p) > shipRespHeader {
		c.Data = append([]byte(nil), p[shipRespHeader:]...)
	}
	return epoch, c, nil
}

// The hello is exchanged once per connection, client first. The client
// sends Magic + Version + a uint16 LE requested window (0 = server
// default); the server answers Magic + Version + the granted uint16
// window, which never exceeds a non-zero request. A hello naming an
// older version is answered with Magic + Version alone and the
// connection is closed, so the peer learns which version it needs.
const helloSize = len(Magic) + 1 + 2

// clientHello performs the client side of the hello and returns the
// granted window.
func clientHello(rw io.ReadWriter, window int) (int, error) {
	if window < 0 || window > HardMaxWindow {
		return 0, fmt.Errorf("server: requested window %d out of range [0, %d]", window, HardMaxWindow)
	}
	hello := append([]byte(Magic), Version)
	hello = binary.LittleEndian.AppendUint16(hello, uint16(window))
	if _, err := rw.Write(hello); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	var peer [helloSize]byte
	if _, err := io.ReadFull(rw, peer[:len(Magic)+1]); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	if string(peer[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("server: bad hello magic %q", peer[:len(Magic)])
	}
	if v := peer[len(Magic)]; v != Version {
		return 0, fmt.Errorf("server: peer speaks protocol version %d, want %d", v, Version)
	}
	if _, err := io.ReadFull(rw, peer[len(Magic)+1:]); err != nil {
		return 0, fmt.Errorf("server: hello window: %w", err)
	}
	granted := int(binary.LittleEndian.Uint16(peer[len(Magic)+1:]))
	if granted < 1 || (window > 0 && granted > window) {
		return 0, fmt.Errorf("server: granted window %d, requested %d", granted, window)
	}
	return granted, nil
}

// serverHello answers a client hello and returns the window granted:
// the request, DefaultWindow for a request of 0, clamped to maxWindow
// (<= 0 means DefaultMaxWindow). A client naming a newer version is
// served this one, as its hello has the same shape.
func serverHello(rw io.ReadWriter, maxWindow int) (int, error) {
	var peer [helloSize]byte
	if _, err := io.ReadFull(rw, peer[:len(Magic)+1]); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	if string(peer[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("server: bad hello magic %q", peer[:len(Magic)])
	}
	if v := peer[len(Magic)]; v < Version {
		rw.Write(append([]byte(Magic), Version))
		return 0, fmt.Errorf("server: refused client protocol version %d, want %d", v, Version)
	}
	if _, err := io.ReadFull(rw, peer[len(Magic)+1:]); err != nil {
		return 0, fmt.Errorf("server: hello window: %w", err)
	}
	if maxWindow <= 0 {
		maxWindow = DefaultMaxWindow
	}
	maxWindow = min(maxWindow, HardMaxWindow)
	window := int(binary.LittleEndian.Uint16(peer[len(Magic)+1:]))
	if window == 0 {
		window = DefaultWindow
	}
	window = min(window, maxWindow)
	reply := binary.LittleEndian.AppendUint16(append([]byte(Magic), Version), uint16(window))
	if _, err := rw.Write(reply); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	return window, nil
}

// framePool recycles frame buffers between connections and response
// flushes, with get/put accounting so tests can assert no path leaks a
// buffer. Oversized buffers (a huge ship or stat response) are dropped
// on Put rather than pinned in the pool.
type framePoolT struct {
	pool sync.Pool
	gets atomic.Int64
	puts atomic.Int64
}

const maxPooledBuf = MaxFrame

var framePool framePoolT

func (p *framePoolT) Get() []byte {
	p.gets.Add(1)
	if b, ok := p.pool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 4096)
}

func (p *framePoolT) Put(b []byte) {
	p.puts.Add(1)
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// Stats returns the pool's cumulative get/put counts; a steady-state
// difference beyond the live connection count is a leak.
func (p *framePoolT) Stats() (gets, puts int64) { return p.gets.Load(), p.puts.Load() }
