package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
)

// Span is one timed call at a seam. Spans of one request share Req; a
// span's Parent is the span that caused it (0 for a root).
type Span struct {
	ID, Parent, Req uint64
	Name            string
	start           time.Time
	child           time.Duration // time covered by this span's children
}

// spanRecord is a finished span as written to the trace file; times are
// nanoseconds since the tracer started.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerTotals aggregates every span of one name, sampled or not.
type layerTotals struct {
	Calls int64
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// Tracer records spans around calls into the program's layers. Totals
// cover every span; span records are kept only for requests whose ID is
// a multiple of keepEvery, up to keepMax, so memory stays bounded. A nil
// *Tracer records nothing, which is how untraced passes run.
type Tracer struct {
	t0        time.Time
	keepEvery uint64
	keepMax   int
	ids       atomic.Uint64

	mu      sync.Mutex
	totals  map[string]*layerTotals
	kept    []spanRecord
	dropped int64
}

func newTracer(keepEvery uint64, keepMax int) *Tracer {
	return &Tracer{t0: time.Now(), keepEvery: keepEvery, keepMax: keepMax, totals: make(map[string]*layerTotals)}
}

// Begin opens a span. parent may be nil.
func (t *Tracer) Begin(name string, req uint64, parent *Span) Span {
	if t == nil {
		return Span{}
	}
	return t.beginAt(name, req, parent, time.Now())
}

func (t *Tracer) beginAt(name string, req uint64, parent *Span, start time.Time) Span {
	sp := Span{ID: t.ids.Add(1), Req: req, Name: name, start: start}
	if parent != nil {
		sp.Parent = parent.ID
	}
	return sp
}

// End closes sp and charges its duration to parent's child time.
func (t *Tracer) End(sp *Span, parent *Span) {
	if t == nil {
		return
	}
	t.endAt(sp, parent, time.Now())
}

func (t *Tracer) endAt(sp *Span, parent *Span, end time.Time) {
	t.finish(sp, sp.start, end)
	if parent != nil {
		parent.child += end.Sub(sp.start)
	}
}

// Record adds a span timed elsewhere (an open-loop request runs from
// when it was due) and returns its ID. child is the part of it that
// child spans cover.
func (t *Tracer) Record(name string, req, parent uint64, start, end time.Time, child time.Duration) uint64 {
	if t == nil {
		return 0
	}
	sp := Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name, child: child}
	t.finish(&sp, start, end)
	return sp.ID
}

func (t *Tracer) finish(sp *Span, start, end time.Time) {
	dur := end.Sub(start)
	t.mu.Lock()
	lt := t.totals[sp.Name]
	if lt == nil {
		lt = &layerTotals{}
		t.totals[sp.Name] = lt
	}
	lt.Calls++
	lt.Total += dur
	lt.Self += dur - sp.child
	if sp.Req%t.keepEvery == 0 {
		if len(t.kept) < t.keepMax {
			t.kept = append(t.kept, spanRecord{ID: sp.ID, Parent: sp.Parent, Req: sp.Req, Name: sp.Name,
				Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
}

// Totals returns the aggregate for one span name (zero if none).
func (t *Tracer) Totals(name string) layerTotals {
	if t == nil {
		return layerTotals{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if lt := t.totals[name]; lt != nil {
		return *lt
	}
	return layerTotals{}
}

// WriteFile writes the kept spans as JSON lines, sorted by start time,
// followed by one line of per-name totals.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(t.kept, func(i, j int) bool { return t.kept[i].Start < t.kept[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.kept {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"totals": t.totals, "dropped_spans": t.dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stepScope carries the span of the core.Step call in progress to the
// device seam underneath it. Both run on the replaying goroutine.
type stepScope struct {
	cur    Span
	active bool
}

// step runs fn as one core.Step span for request req that began at
// start, and returns when it ended. The caller's own per-op timestamps
// double as the span's, so a traced Step costs no extra clock reads.
func (sc *stepScope) step(tr *Tracer, req uint64, start time.Time, fn func()) time.Time {
	sc.cur = tr.beginAt("core.Step", req, nil, start)
	sc.active = true
	fn()
	sc.active = false
	end := time.Now()
	tr.endAt(&sc.cur, nil, end)
	return end
}

// timedDevice is the disk.Device seam: it times and counts every access
// core makes. It forwards nothing else, so core sees the same optional
// capabilities only through timedCleanerDevice.
type timedDevice struct {
	disk.Device
	tr    *Tracer
	scope *stepScope
	name  string

	calls, seeks int64
}

func (d *timedDevice) TryDo(kind disk.OpKind, ext geom.Extent) (disk.Access, error) {
	var sp Span
	var parent *Span
	var req uint64
	if d.scope != nil && d.scope.active {
		parent, req = &d.scope.cur, d.scope.cur.Req
	}
	sp = d.tr.Begin(d.name, req, parent)
	a, err := d.Device.TryDo(kind, ext)
	d.tr.End(&sp, parent)
	d.calls++
	if a.Seeked {
		d.seeks++
	}
	return a, err
}

// modelNamer is the optional device capability core uses to label a
// geometry.
type modelNamer interface{ ModelName() string }

// timedCleanerDevice forwards the optional capabilities of a banded
// device (core.Cleaner and the model name) through the seam.
type timedCleanerDevice struct {
	*timedDevice
	cl   core.Cleaner
	name modelNamer
}

func (d timedCleanerDevice) Cleaning() metrics.Cleaning { return d.cl.Cleaning() }
func (d timedCleanerDevice) ModelName() string          { return d.name.ModelName() }

// wrapDevice puts the timing seam around inner, keeping the capabilities
// core looks for. It returns the device to configure and its counters.
func wrapDevice(inner disk.Device, tr *Tracer, scope *stepScope, layer string) (disk.Device, *timedDevice) {
	td := &timedDevice{Device: inner, tr: tr, scope: scope, name: layer}
	cl, isCleaner := inner.(core.Cleaner)
	mn, isNamed := inner.(modelNamer)
	switch {
	case isCleaner && isNamed:
		return timedCleanerDevice{timedDevice: td, cl: cl, name: mn}, td
	case !isCleaner && !isNamed:
		return td, td
	}
	panic(fmt.Sprintf("perfbench: device %T has only some optional capabilities", inner))
}

// connCounts tallies socket calls and bytes on the server's connections.
type connCounts struct {
	reads, writes, bytes atomic.Int64
}

// countingListener is the net.Listener seam handed to server.New.
type countingListener struct {
	net.Listener
	c *connCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}
