package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/metrics"
	"smrseek/internal/repl/chaos"
	"smrseek/internal/server"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
	"smrseek/internal/workload"
)

// smrd's own defaults, used on both workloads.
const (
	smrdVolumes         = 2
	smrdFrontier        = geom.Sector(1 << 22) // smrd -frontier
	smrdCheckpointEvery = 4096                 // smrd -checkpoint-every
	smrdSealEvery       = journal.DefaultSegmentSize
	smrdSyncTimeout     = 500 * time.Millisecond // smrd -sync-timeout
	smrdForceSealEvery  = 250 * time.Millisecond // smrd -force-seal-every
	smrdCycles          = 10                     // open-loop segments, each followed by a closed-loop round
	recoverRepeats      = 15
)

// closedProcs is the GOMAXPROCS of the closed-loop rounds. On a host of
// two shared vCPUs, a round that needs both loses up to half its rate
// whenever another tenant busies one of them (measured: 99k → 52k ops/s
// with one vCPU kept busy), which swung sat_ops_per_s by a quarter from
// run to run. On one P the Go threads move to whichever vCPU is free,
// and the same busy vCPU left the rate unchanged (49.0k → 49.7k ops/s).
// The figure is therefore the service's saturation rate on one core.
const closedProcs = 1

// smrdSpec is in-process smrd: two journaled LS volumes, each fed usr_0
// over its own SMRD2 connection, standalone or replicated.
type smrdSpec struct {
	replicated bool
	scale      float64 // usr_0 scale per volume
	openRate   float64 // aggregate open-loop rate, ops/s
	satGuess   float64 // expected closed-loop rate, sizes that phase
	window     int     // requested SMRD2 window per connection
	warmOps    int     // untimed warm-up, per volume
	directOps  int     // direct TryDo phase, per volume
}

func smrdJournaled() smrdSpec {
	return smrdSpec{scale: 20, openRate: 20000, satGuess: 50000, window: 128, warmOps: 20000, directOps: 5000}
}

// replSpec is the replicated pair: the same volumes on a primary with a
// semi-sync follower. It cycles usr_0 at scale 2 because of a shipping
// defect: a follower that falls a whole checkpoint generation behind
// catches up only by receiving the checkpoint file in one reply, and a
// reply may not exceed the wire's 1 MiB frame cap. A larger extent map
// strands the follower for good.
var replSpec = smrdSpec{replicated: true, scale: 2, window: 128}

// replOps is the closed-loop load on the replicated pair, per volume.
const replOps = 30000

// smrdEnv is one set-up: generated traces, open volumes or nodes, and
// dialed clients.
type smrdEnv struct {
	root    string
	names   []string
	recs    [][]trace.Record
	cursor  []int // records sent so far, per volume
	mgr     *volume.Manager
	srv     *server.Server
	conns   *connCounts
	prim    *chaos.Node
	fol     *chaos.Node
	addr    string
	clients []*server.AsyncClient
	genS    float64
}

func volSeed(seed uint64, v int) uint64 { return seed + uint64(v)*0x9E3779B97F4A7C15 }

func (s smrdSpec) setup(seed uint64, root string, conns *connCounts) (*smrdEnv, error) {
	e := &smrdEnv{root: root}
	p, err := workload.ByName("usr_0")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for v := 0; v < smrdVolumes; v++ {
		p.Seed = volSeed(seed, v)
		e.names = append(e.names, fmt.Sprintf("v%d", v))
		e.recs = append(e.recs, trace.PreloadRecords(p.Generate(s.scale)).Records())
	}
	e.cursor = make([]int, smrdVolumes)
	e.genS = time.Since(t0).Seconds()
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, err
	}
	if s.replicated {
		cfg := chaos.Config{
			Volumes: e.names, Frontier: smrdFrontier,
			SealEvery: smrdSealEvery, CheckpointEvery: smrdCheckpointEvery,
			SyncTimeout: smrdSyncTimeout, ForceSealEvery: smrdForceSealEvery,
		}
		if e.prim, err = chaos.StartPrimary(filepath.Join(root, "primary"), cfg); err != nil {
			return nil, err
		}
		cfg.Source = e.prim.Addr
		if e.fol, err = chaos.StartFollower(filepath.Join(root, "follower"), cfg); err != nil {
			e.prim.Close()
			return nil, err
		}
		e.addr = e.prim.Addr
	} else {
		if e.mgr, err = volume.OpenAll(e.volConfigs(filepath.Join(root, "live"))...); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.mgr.Close()
			return nil, err
		}
		e.conns = conns
		if conns != nil {
			ln = countingListener{Listener: ln, c: conns}
		}
		e.srv = server.New(e.mgr, ln, server.Options{Logf: func(string, ...any) {}})
		e.addr = e.srv.Addr().String()
	}
	for range e.names {
		ac, err := server.DialAsync(e.addr, s.window)
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, ac)
	}
	return e, nil
}

// volConfigs are smrd's standalone volume settings with journals under dir.
func (e *smrdEnv) volConfigs(dir string) []volume.Config {
	var cfgs []volume.Config
	for _, name := range e.names {
		cfgs = append(cfgs, volume.Config{
			Name:            name,
			Sim:             core.Config{LogStructured: true, FrontierStart: smrdFrontier},
			JournalDir:      filepath.Join(dir, name),
			CheckpointEvery: smrdCheckpointEvery,
			SealEvery:       smrdSealEvery,
		})
	}
	return cfgs
}

// journalDir is where volume v's live journal lives.
func (e *smrdEnv) journalDir(v int) string {
	if e.prim != nil {
		return filepath.Join(e.prim.Root, e.names[v])
	}
	return filepath.Join(e.root, "live", e.names[v])
}

func (e *smrdEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, ac := range e.clients {
		ac.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Close()
		keep(e.mgr.Close())
		e.srv, e.mgr = nil, nil
	}
	if e.fol != nil {
		keep(e.fol.Close())
		e.fol = nil
	}
	if e.prim != nil {
		keep(e.prim.Close())
		e.prim = nil
	}
	return first
}

// next returns the next record for volume v; a trace shorter than the
// run wraps around.
func (e *smrdEnv) next(v int) trace.Record {
	r := e.recs[v][e.cursor[v]%len(e.recs[v])]
	e.cursor[v]++
	return r
}

// records returns the first n records volume v is sent, in order.
func (e *smrdEnv) records(v, n int) []trace.Record {
	out := make([]trace.Record, n)
	for k := range out {
		out[k] = e.recs[v][k%len(e.recs[v])]
	}
	return out
}

// opSample is one request's timeline. For an open loop due is when the
// schedule called for it; for a closed loop it equals sent.
type opSample struct {
	due, sent, submitted, done time.Time
	write                      bool
	err                        error
}

type reply struct {
	at  time.Time
	err error
}

// conn tracks one volume's in-flight requests: the sender files each
// call's sample index under its wire ID and the receiver timestamps the
// reply; whichever comes second completes the sample.
type conn struct {
	samples []opSample
	done    chan *server.Call
	fails   chan int // submit failures, sent once the sender is done

	mu      sync.Mutex
	pending map[uint64]int
	early   map[uint64]reply
}

func (c *conn) submitted(id uint64, i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.early[id]; ok {
		delete(c.early, id)
		c.samples[i].done, c.samples[i].err = r.at, r.err
		return
	}
	c.pending[id] = i
}

func (c *conn) replied(id uint64, r reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.samples[i].done, c.samples[i].err = r.at, r.err
		return
	}
	c.early[id] = r
}

// receive collects replies until every submitted request has one.
func (c *conn) receive() {
	n := len(c.samples)
	expected, got := -1, 0
	timeout := time.After(120 * time.Second)
	for expected < 0 || got < expected {
		select {
		case call := <-c.done:
			at := time.Now()
			_, err := call.Result()
			got++
			c.replied(call.ID, reply{at: at, err: err})
		case fails := <-c.fails:
			expected = n - fails
		case <-timeout:
			c.mu.Lock()
			for i := range c.samples {
				if c.samples[i].done.IsZero() {
					c.samples[i].err = errors.New("perfbench: no reply")
				}
			}
			c.mu.Unlock()
			return
		}
	}
}

// send submits volume v's next record as sample i of c.
func (e *smrdEnv) send(v int, c *conn, i int, due time.Time) bool {
	rec := e.next(v)
	sm := &c.samples[i]
	sm.write = rec.Kind == disk.Write
	sm.sent = time.Now()
	sm.due = due
	if due.IsZero() {
		sm.due = sm.sent
	}
	call, err := e.clients[v].SubmitStep(e.names[v], rec, c.done)
	sm.submitted = time.Now()
	if err != nil {
		sm.err, sm.done = err, sm.submitted
		return false
	}
	c.submitted(call.ID, i)
	return true
}

// load sends n records to every volume, each over its own connection,
// and returns every request's timeline. With period 0 it is a closed
// loop: one sender per connection, as fast as the window allows. With a
// period it is an open loop: one paced sender walks a fixed absolute
// schedule — request k of the merged stream is due at t0 + k·period and
// goes to volume k mod 2 — and sends each request when it is due,
// however many are still outstanding.
func (e *smrdEnv) load(n int, period time.Duration) ([][]opSample, time.Time) {
	conns := make([]*conn, smrdVolumes)
	var wg sync.WaitGroup
	for v := range conns {
		c := &conn{samples: make([]opSample, n), done: make(chan *server.Call, e.clients[v].Window()),
			fails: make(chan int, 1), pending: make(map[uint64]int), early: make(map[uint64]reply)}
		conns[v] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.receive()
		}()
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	if period == 0 {
		for v, c := range conns {
			wg.Add(1)
			go func(v int, c *conn) {
				defer wg.Done()
				fails := 0
				for i := 0; i < n; i++ {
					if !e.send(v, c, i, time.Time{}) {
						fails++
					}
				}
				c.fails <- fails
			}(v, c)
		}
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lockPacer()
			fails := make([]int, smrdVolumes)
			for k := 0; k < n*smrdVolumes; k++ {
				v, due := k%smrdVolumes, t0.Add(time.Duration(k)*period)
				sleepUntil(due)
				if !e.send(v, conns[v], k/smrdVolumes, due) {
					fails[v]++
				}
			}
			for v, c := range conns {
				c.fails <- fails[v]
			}
		}()
	}
	wg.Wait()
	out := make([][]opSample, smrdVolumes)
	for v, c := range conns {
		out[v] = c.samples
	}
	return out, t0
}

func (s smrdSpec) pass(o *runOpts, tr *Tracer, setups int) (*passResult, error) {
	res := newPassResult()
	var conns *connCounts
	if tr != nil {
		conns = &connCounts{}
	}
	var setupS, genS []float64
	var e *smrdEnv
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		root := filepath.Join(o.scratch, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = s.setup(o.seed, root, conns); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, e.genS)
	}
	defer e.close()
	res.e2e["setup_s"] = median(setupS)
	res.layer["workload.generate_s"] = median(genS)

	// Every phase sends a fixed number of records, so what each volume
	// will receive is known now.
	segOps := int(s.openRate * o.seconds * 0.5 / smrdVolumes / smrdCycles)
	roundOps := int(s.satGuess * o.seconds * 0.3 / smrdVolumes / smrdCycles)
	perVolume := s.warmOps + smrdCycles*(segOps+roundOps)
	perVolume += s.directOps
	ref, err := newReference(e, tr, perVolume)
	if err != nil {
		return nil, err
	}

	// 1. Warm-up, untimed.
	warm, _ := e.load(s.warmOps, 0)
	res.count(warm)
	ref.advance(s.warmOps)

	// 2–3. Open-loop segments, each on a fixed absolute schedule,
	// alternate with closed-loop rounds with a full window, so both
	// phases sample the whole run and a slow stretch of a shared host
	// weighs on each alike. The p50s are the median segment's p50, so a
	// burst of steal time that spoils a few segments does not set them;
	// the p99s come from the raw samples of every segment together,
	// which span dozens of journal checkpoints where one segment holds
	// too few. The median round's rate is the saturation figure.
	// After each round the reference replays what the cycle sent;
	// replay_ops_per_s is the cycles' records over their replay time.
	// (The rate falls as the extent maps grow, so the median cycle's
	// rate would sit where it falls fastest.)
	period := time.Duration(float64(time.Second) / s.openRate)
	var (
		lat          latencies
		wp50, rp50   []float64
		late, rates  []float64
		refTime      time.Duration
		heapMB       float64
		backlogs     int
		worstBacklog int
	)
	for c := 0; c < smrdCycles; c++ {
		open, t0 := e.load(segOps, period)
		res.count(open)
		heapMB = max(heapMB, liveHeapMB())
		var seg latencies
		for v, vs := range open {
			for i, sm := range vs {
				late = append(late, usSince(sm.due, sm.sent))
				if sm.err == nil {
					seg.add(sm.write, usSince(sm.due, sm.done))
				}
				if tr != nil {
					req := uint64(v)<<40 | uint64(c*segOps+i)
					id := tr.Record("smrd.request", req, 0, sm.due, sm.done, sm.submitted.Sub(sm.sent))
					tr.Record("client.Submit", req, id, sm.sent, sm.submitted, 0)
				}
			}
		}
		// The backlog grew if, when a segment's last request was due,
		// more were still unanswered than the rate delivers in 100 ms.
		lastDue := t0.Add(time.Duration(smrdVolumes*segOps-1) * period)
		backlog := 0
		for _, vs := range open {
			for _, sm := range vs {
				if sm.done.After(lastDue) {
					backlog++
				}
			}
		}
		if backlog > int(s.openRate*0.1) {
			backlogs++
			worstBacklog = max(worstBacklog, backlog)
		}
		wp50, rp50 = append(wp50, quantile(seg.write, 0.5)), append(rp50, quantile(seg.read, 0.5))
		lat.write, lat.read = append(lat.write, seg.write...), append(lat.read, seg.read...)

		// A closed round runs on one P (see closedProcs).
		procs := runtime.GOMAXPROCS(closedProcs)
		c0 := time.Now()
		closed, _ := e.load(roundOps, 0)
		rates = append(rates, float64(smrdVolumes*roundOps)/time.Since(c0).Seconds())
		runtime.GOMAXPROCS(procs)
		res.count(closed)
		refTime += ref.advance(segOps + roundOps)
	}
	res.e2e["replay_ops_per_s"] = float64(smrdVolumes*smrdCycles*(segOps+roundOps)) / refTime.Seconds()
	if backlogs > 0 {
		res.problem("open loop invalid: %d of %d segments ended with a backlog, the worst %d requests (limit %d)",
			backlogs, smrdCycles, worstBacklog, int(s.openRate*0.1))
	}
	res.checkSamples("write", len(lat.write))
	res.checkSamples("read", len(lat.read))
	res.samples["write"], res.samples["read"] = len(lat.write), len(lat.read)
	res.e2e["write_p50_us"], res.e2e["write_p99_us"] = median(wp50), quantile(lat.write, 0.99)
	res.e2e["read_p50_us"], res.e2e["read_p99_us"] = median(rp50), quantile(lat.read, 0.99)
	res.profiles = append(res.profiles, profile("write", lat.write), profile("read", lat.read), profile("late", late))
	res.layer["bench.gen_late_p99_us"] = quantile(late, 0.99)
	res.e2e["sat_ops_per_s"] = median(rates)
	res.rate = res.e2e["sat_ops_per_s"]
	res.e2e["peak_heap_mb"] = max(heapMB, liveHeapMB())
	if e.conns != nil {
		wireOps := float64(res.attempted)
		res.layer["server.conn_reads_per_op"] = float64(e.conns.reads.Load()) / wireOps
		res.layer["server.conn_writes_per_op"] = float64(e.conns.writes.Load()) / wireOps
		res.layer["server.bytes_per_op"] = float64(e.conns.bytes.Load()) / wireOps
	}

	// 4. Direct TryDo on the same volumes, one request at a time.
	s.direct(e, res)
	ref.advance(s.directOps)
	if err := ref.finish(res); err != nil {
		return nil, err
	}
	res.layer["server.abandoned"] = float64(e.srv.Abandoned())
	res.layer["server.overloaded"] = float64(res.overloaded)
	res.layer["trace.records"] = float64(e.cursor[0] + e.cursor[1])
	for v := range e.names {
		if e.cursor[v] != perVolume {
			return nil, fmt.Errorf("volume %s was sent %d records, planned %d", e.names[v], e.cursor[v], perVolume)
		}
	}

	// 5. Outputs: live stats over the wire, a verified flush, and a copy
	// of the journals taken before the closing checkpoint.
	live, err := s.inspect(e, o, res)
	if err != nil {
		return nil, err
	}
	res.layer["journal.checkpoint_p99_us"] = fsyncP99(e.mgr, e.names)
	if err := e.close(); err != nil {
		res.problem("closing the service: %v", err)
	}

	// 6. The live state against the reference replay.
	s.checkReference(e, ref, live, res)
	// 7. Restart: verified recovery of the copied journals.
	if err := s.restart(e, o, ref, res); err != nil {
		return nil, err
	}
	// 8. The replication layer, on a pair of its own.
	if err := replicate(o, res); err != nil {
		return nil, err
	}
	res.layer["error_frac"] = ratio(res.failed, res.attempted)
	return res, nil
}

// count tallies a phase's requests into attempted and failed; a shed
// (overloaded) request counts as failed.
func (r *passResult) count(phase [][]opSample) {
	for _, vs := range phase {
		for _, sm := range vs {
			r.attempted++
			if sm.err != nil {
				r.failed++
				if server.IsOverloaded(sm.err) {
					r.overloaded++
				}
			}
		}
	}
}

// direct times volume.Volume.TryDo without TCP, one request in flight.
func (s smrdSpec) direct(e *smrdEnv, res *passResult) {
	var us []float64
	sheds := 0
	done := make(chan volume.Result, 1)
	for v, name := range e.names {
		vol, _ := e.mgr.Get(name)
		for k := 0; k < s.directOps; k++ {
			rec := e.next(v)
			req := volume.Request{Kind: volume.OpRead, Extent: rec.Extent}
			if rec.Kind == disk.Write {
				req.Kind = volume.OpWrite
			}
			res.attempted++
			t0 := time.Now()
			err := vol.TryDo(req, done)
			for errors.Is(err, volume.ErrOverloaded) {
				sheds++
				time.Sleep(50 * time.Microsecond)
				err = vol.TryDo(req, done)
			}
			if err != nil {
				res.failed++
				continue
			}
			r := <-done
			us = append(us, usSince(t0, time.Now()))
			if r.Err != nil {
				res.failed++
			}
		}
	}
	res.layer["volume.op_p50_us"] = quantile(us, 0.5)
	res.layer["volume.op_p99_us"] = quantile(us, 0.99)
	res.layer["volume.sheds"] = float64(sheds)
}

// replicate measures the repl layer on a primary with a semi-sync
// follower (internal/repl/chaos, smrd's defaults, checkpoints on): a
// closed loop of replOps records per volume, then catch-up, then the
// follower's journal against the primary's. Its figures feed only the
// per-layer repl metrics and the checks: the end-to-end figures of a
// replicated workload did not repeat on this kind of host (see
// README.md).
func replicate(o *runOpts, res *passResult) error {
	e, err := replSpec.setup(o.seed, filepath.Join(o.scratch, "repl"), nil)
	if err != nil {
		return err
	}
	defer e.close()
	lag := startLagSampler(e)
	load, _ := e.load(replOps, 0)
	res.count(load)
	lag.stop()
	res.layer["repl.lag_bytes_p99"] = quantile(lag.samples, 0.99)
	catchUp(e, res)
	c, err := server.Dial(e.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for v, name := range e.names {
		// The verify op flushes the primary's journal before it is read.
		if _, err := c.Verify(name); err != nil {
			res.problem("verify %s on the primary: %v", name, err)
		}
		checkFollower(e, v, res)
	}
	return nil
}

// lagSampler polls the primary's sealed frontier and the follower's
// applied position through repl's Role.
type lagSampler struct {
	quit    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func replLag(e *smrdEnv) (lag int64, caughtUp bool) {
	pr, fr := e.prim.Prim.Role(), e.fol.Fol.Role()
	caughtUp = true
	for _, name := range e.names {
		p, f := pr.Volumes[name], fr.Volumes[name]
		switch {
		case p.Gen == f.Gen && p.Bytes > f.Bytes:
			lag += p.Bytes - f.Bytes
		case p.Gen > f.Gen:
			lag += p.Bytes
		}
		caughtUp = caughtUp && p.Gen == f.Gen && p.Bytes == f.Bytes
	}
	return lag, caughtUp
}

func startLagSampler(e *smrdEnv) *lagSampler {
	l := &lagSampler{quit: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-tick.C:
				lag, _ := replLag(e)
				l.samples = append(l.samples, float64(lag))
			}
		}
	}()
	return l
}

func (l *lagSampler) stop() {
	close(l.quit)
	l.wg.Wait()
}

// catchUp waits until the follower holds the primary's sealed frontier
// on every volume. A follower that never gets there fails the run's
// checks.
func catchUp(e *smrdEnv, res *passResult) {
	t0 := time.Now()
	for {
		if _, ok := replLag(e); ok {
			break
		}
		if time.Since(t0) > 30*time.Second {
			res.problem("follower did not catch up within 30s: primary %+v, follower %+v",
				e.prim.Prim.Role().Volumes, e.fol.Fol.Role().Volumes)
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.layer["repl.catchup_s"] = time.Since(t0).Seconds()
	res.layer["repl.degraded_acks"] = float64(e.prim.Prim.Degraded())
	res.layer["repl.follower_rejects"] = float64(e.fol.Fol.Rejects())
}

// inspect reads each volume's stats over the wire, flushes and audits
// its journal through the wire verify op, and copies the journal files.
func (s smrdSpec) inspect(e *smrdEnv, o *runOpts, res *passResult) ([]core.Stats, error) {
	c, err := server.Dial(e.addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	live := make([]core.Stats, smrdVolumes)
	for v, name := range e.names {
		if live[v], err = c.Stat(name); err != nil {
			return nil, fmt.Errorf("stat %s: %w", name, err)
		}
		live[v].Config = core.Config{}
		if _, err := c.Verify(name); err != nil {
			res.problem("verify %s over the wire: %v", name, err)
		}
		if _, err := copyDir(e.journalDir(v), filepath.Join(o.scratch, "pristine", name)); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// checkFollower checks that the follower's journal is a byte prefix of
// the primary's journal of the same generation and that it verifies.
func checkFollower(e *smrdEnv, v int, res *passResult) {
	name := e.names[v]
	fdir := filepath.Join(e.fol.Root, name)
	fpos, ppos := e.fol.Fol.Role().Volumes[name], e.prim.Prim.Role().Volumes[name]
	fj, ferr := os.ReadFile(journal.JournalPath(fdir))
	pj, perr := os.ReadFile(journal.JournalPath(e.journalDir(v)))
	switch {
	case ferr != nil || perr != nil:
		res.problem("reading journals of %s: %v %v", name, ferr, perr)
	case fpos.Gen != ppos.Gen:
		res.problem("%s: follower at generation %d, primary at %d", name, fpos.Gen, ppos.Gen)
	case len(fj) > len(pj) || !bytes.Equal(pj[:len(fj)], fj):
		res.problem("%s: follower journal (%d B) is not a prefix of the primary's (%d B)", name, len(fj), len(pj))
	}
	if _, err := journal.VerifyDir(fdir); err != nil {
		res.problem("%s: follower journal does not verify: %v", name, err)
	}
}

// refReplay is the reference for a pass: each volume's planned records
// replayed directly through an LS simulator — the volume's stack
// without the actor, the network or the journal. It advances in step
// with the load, replaying after each phase the records that phase
// sent, while the service is idle.
type refReplay struct {
	recs      [][]trace.Record // planned records, per volume
	pos       []int            // records replayed so far, per volume
	sims      []*core.Simulator
	devs      []*timedDevice
	scopes    []*stepScope
	steps     [][]float64 // per-record Step time, ns (traced pass only)
	tr        *Tracer
	stats     []core.Stats
	layers    []*stl.LS
	nolsSeeks int64
}

func newReference(e *smrdEnv, tr *Tracer, perVolume int) (*refReplay, error) {
	ref := &refReplay{tr: tr, pos: make([]int, smrdVolumes), steps: make([][]float64, smrdVolumes)}
	for v := 0; v < smrdVolumes; v++ {
		ref.recs = append(ref.recs, e.records(v, perVolume))
		cfg := core.Config{LogStructured: true, FrontierStart: smrdFrontier}
		scope := &stepScope{}
		var td *timedDevice
		if tr != nil {
			cfg.Device, td = wrapDevice(disk.New(), tr, scope, "disk")
		}
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		ref.sims, ref.devs, ref.scopes = append(ref.sims, sim), append(ref.devs, td), append(ref.scopes, scope)
	}
	return ref, nil
}

// advance replays the next n planned records of every volume and
// returns the time it took.
func (ref *refReplay) advance(n int) time.Duration {
	// The service's heap is several times the replay's own; a collection
	// of it started by the load would charge mark assists to the replay.
	runtime.GC()
	var elapsed time.Duration
	for v, sim := range ref.sims {
		recs := ref.recs[v][ref.pos[v] : ref.pos[v]+n]
		t0 := time.Now()
		if ref.tr != nil {
			prev := t0
			for i, rec := range recs {
				now := ref.scopes[v].step(ref.tr, uint64(v)<<40|uint64(ref.pos[v]+i), prev, func() { sim.Step(rec) })
				ref.steps[v] = append(ref.steps[v], float64(now.Sub(prev).Nanoseconds()))
				prev = now
			}
		} else {
			for _, rec := range recs {
				sim.Step(rec)
			}
		}
		elapsed += time.Since(t0)
		ref.pos[v] += n
	}
	return elapsed
}

// finish ends the replays, which must have covered every planned
// record, and replays the same records through NoLS for read_saf.
func (ref *refReplay) finish(res *passResult) error {
	ref.stats, ref.layers = make([]core.Stats, smrdVolumes), make([]*stl.LS, smrdVolumes)
	var p50s, p99s []float64
	var calls, seeks int64
	for v, sim := range ref.sims {
		if ref.pos[v] != len(ref.recs[v]) {
			return fmt.Errorf("reference replayed %d of %d records", ref.pos[v], len(ref.recs[v]))
		}
		sim.Finish()
		ref.stats[v] = sim.Stats()
		ref.stats[v].Config = core.Config{}
		ref.layers[v] = sim.LS()
		if td := ref.devs[v]; td != nil {
			p50s, p99s = append(p50s, quantile(ref.steps[v], 0.5)), append(p99s, quantile(ref.steps[v], 0.99))
			calls, seeks = calls+td.calls, seeks+td.seeks
		}
		base, _ := core.NewSimulator(core.Config{})
		bst, err := base.Run(trace.NewSliceReader(ref.recs[v]))
		if err != nil {
			return err
		}
		ref.nolsSeeks += bst.Disk.ReadSeeks
	}
	if ref.tr != nil {
		step, d := ref.tr.Totals("core.Step"), ref.tr.Totals("disk")
		res.layer["core.step_busy_s"] = step.Total.Seconds()
		res.layer["core.self_s"] = step.Self.Seconds()
		res.layer["disk.busy_s"] = d.Total.Seconds()
		res.layer["core.step_p50_ns"], res.layer["core.step_p99_ns"] = median(p50s), median(p99s)
		res.layer["disk.accesses_per_op"] = float64(calls) / float64(smrdVolumes*len(ref.recs[0]))
		res.layer["disk.seek_frac"] = ratio(seeks, calls)
	}
	return nil
}

func (s smrdSpec) checkReference(e *smrdEnv, ref *refReplay, live []core.Stats, res *passResult) {
	var total core.Stats
	var lsSeeks int64
	mappings := 0
	for v, name := range e.names {
		want := ref.stats[v]
		got := live[v]
		got.Durability = want.Durability
		if !reflect.DeepEqual(want, got) {
			res.problem("%s: stats over the wire differ from a direct replay of the records sent:\n wire   %+v\n direct %+v", name, got, want)
		}
		if live[v].Durability.JournalAppends != want.Writes {
			res.problem("%s: %d journal appends for %d writes", name, live[v].Durability.JournalAppends, want.Writes)
		}
		addStats(&total, live[v])
		lsSeeks += live[v].Disk.ReadSeeks
		mappings += ref.layers[v].Map().Len()
	}
	res.e2e["read_saf"] = float64(lsSeeks) / float64(ref.nolsSeeks)
	res.e2e["write_amp"] = writeAmp(total)
	res.det = fmt.Sprintf("%+v", live)
	res.layer["extmap.mappings"] = float64(mappings)
	res.layer["journal.checkpoints"] = float64(total.Durability.Checkpoints)
	res.setStlCore(total)
}

// restart times volume.OpenAll with verified recovery on fresh copies of
// the journals, checks the copies audit clean, and checks the recovered
// state against the reference replay.
func (s smrdSpec) restart(e *smrdEnv, o *runOpts, ref *refReplay, res *passResult) error {
	var recS, verifyMBs, recoverMBs []float64
	var journalBytes, journalRecords int64
	pristine := filepath.Join(o.scratch, "pristine")
	for r := 0; r < recoverRepeats; r++ {
		dir := filepath.Join(o.scratch, fmt.Sprintf("restart%d", r))
		var dirBytes int64
		for _, name := range e.names {
			n, err := copyDir(filepath.Join(pristine, name), filepath.Join(dir, name))
			if err != nil {
				return err
			}
			dirBytes += n
		}
		t0 := time.Now()
		for _, name := range e.names {
			a, err := journal.VerifyDirWorkers(filepath.Join(dir, name), 0)
			if err != nil {
				res.problem("copied journal of %s does not verify: %v", name, err)
				continue
			}
			if r == 0 {
				fi, err := os.Stat(journal.JournalPath(filepath.Join(dir, name)))
				if err == nil {
					journalBytes += fi.Size()
				}
				journalRecords += a.SealedRecords + a.TailRecords
			}
		}
		verifyMBs = append(verifyMBs, float64(dirBytes)/(1<<20)/time.Since(t0).Seconds())

		runtime.GC() // no collection left over from the copy lands in the timing
		t0 = time.Now()
		mgr, err := volume.OpenAll(e.volConfigs(dir)...)
		recS = append(recS, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("recovering copied journals: %w", err)
		}
		var recElapsed time.Duration
		for _, name := range e.names {
			vol, _ := mgr.Get(name)
			if vol.Recovery == nil || !vol.Recovery.Verified {
				res.problem("%s: restart did not run a verified recovery", name)
				continue
			}
			recElapsed += vol.Recovery.Elapsed
		}
		if recElapsed > 0 {
			recoverMBs = append(recoverMBs, float64(dirBytes)/(1<<20)/recElapsed.Seconds())
		}
		if err := mgr.Close(); err != nil {
			return err
		}
		if r == recoverRepeats-1 {
			for v, name := range e.names {
				ls, _, err := stl.RecoverDir(filepath.Join(dir, name))
				if err != nil {
					return err
				}
				want := ref.layers[v]
				if ls.Frontier() != want.Frontier() || !ls.Map().Equal(want.Map()) {
					res.problem("%s: recovered state differs from the live volume's: %s", name, ls.Map().Diff(want.Map()))
				}
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	res.e2e["recover_s"] = median(recS)
	res.layer["journal.verify_mb_per_s"] = median(verifyMBs)
	res.layer["stl.recover_mb_per_s"] = median(recoverMBs)
	res.layer["journal.bytes_per_write"] = ratio(journalBytes, journalRecords)
	return nil
}

// copyDir copies the files of src into dst and returns their bytes.
func copyDir(src, dst string) (int64, error) {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		n, err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name()))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func copyFile(src, dst string) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, in)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// addStats sums the counters the per-layer metrics read.
func addStats(dst *core.Stats, st core.Stats) {
	dst.Disk.ReadSeeks += st.Disk.ReadSeeks
	dst.Disk.WriteSectors += st.Disk.WriteSectors
	dst.Reads += st.Reads
	dst.Writes += st.Writes
	dst.FragmentedReads += st.FragmentedReads
	dst.TotalFragments += st.TotalFragments
	dst.CacheHits += st.CacheHits
	dst.CacheMisses += st.CacheMisses
	dst.CacheInvalidations += st.CacheInvalidations
	dst.PrefetchHits += st.PrefetchHits
	dst.DefragSectors += st.DefragSectors
	dst.Durability.Checkpoints += st.Durability.Checkpoints
	dst.Cleaning.Add(st.Cleaning)
}

// fsyncP99 merges the live volumes' checkpoint fsync histograms
// (obsv.Collector) and returns the upper edge of the bucket holding the
// 99th percentile; the buckets are powers of two, so this is coarse.
func fsyncP99(mgr *volume.Manager, names []string) float64 {
	var buckets []metrics.Bucket
	var total int64
	for _, name := range names {
		vol, _ := mgr.Get(name)
		h := vol.Collector().Snapshot().JournalFsync
		buckets = append(buckets, h.Buckets...)
		total += h.Total
	}
	if total == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Hi < buckets[j].Hi })
	need := (total*99 + 99) / 100
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		if cum >= need {
			return float64(b.Hi)
		}
	}
	return float64(buckets[len(buckets)-1].Hi)
}
