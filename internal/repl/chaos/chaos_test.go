package chaos

// Chaos matrix for replicated smrd. Every scenario drives real TCP
// nodes through crash-shaped faults and asserts the replication
// contract: no client-acknowledged write is ever lost, followers only
// persist chunks that verify, and a promoted follower is
// indistinguishable from a direct single-node run.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/server"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

const vol = "v0"

func baseConfig(t *testing.T) Config {
	return Config{
		Volumes:        []string{vol},
		Frontier:       1 << 20,
		SealEvery:      64,
		SyncTimeout:    2 * time.Second,
		ForceSealEvery: 25 * time.Millisecond,
		TailWait:       150 * time.Millisecond,
		PollEvery:      25 * time.Millisecond,
		Logf:           t.Logf,
	}
}

// makeTrace builds a deterministic interleaving of writes and reads
// (reads always target previously written extents).
func makeTrace(writes, reads int) []trace.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]trace.Record, 0, writes+reads)
	var written []geom.Extent
	for w, r := 0, 0; w < writes || r < reads; {
		if w < writes && (r >= reads || len(written) == 0 || rng.Intn(3) != 0) {
			ext := geom.Ext(geom.Sector(rng.Intn(1<<16)), int64(1+rng.Intn(64)))
			written = append(written, ext)
			recs = append(recs, trace.Record{Kind: disk.Write, Extent: ext})
			w++
		} else {
			recs = append(recs, trace.Record{Kind: disk.Read, Extent: written[rng.Intn(len(written))]})
			r++
		}
	}
	return recs
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// caughtUp reports whether the follower's applied position matches the
// primary's sealed frontier (and something has actually shipped).
func caughtUp(prim, fol *Node) bool {
	pp, ok := prim.Prim.Role().Volumes[vol]
	if !ok || pp.Bytes == 0 {
		return false
	}
	fp, ok := fol.Fol.Role().Volumes[vol]
	return ok && fp.Gen == pp.Gen && fp.Bytes == pp.Bytes
}

func mustVerifyDir(t *testing.T, dir string) {
	t.Helper()
	if _, err := journal.VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir(%s): %v", dir, err)
	}
}

// assertPrefix asserts the follower's journal file is a byte-identical
// prefix of the primary's — the core replication invariant.
func assertPrefix(t *testing.T, primRoot, folRoot string) {
	t.Helper()
	pf, err := os.ReadFile(journal.JournalPath(filepath.Join(primRoot, vol)))
	if err != nil {
		t.Fatal(err)
	}
	ff, err := os.ReadFile(journal.JournalPath(filepath.Join(folRoot, vol)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ff) > len(pf) {
		t.Fatalf("follower journal %d bytes, primary only %d", len(ff), len(pf))
	}
	if !bytes.Equal(pf[:len(ff)], ff) {
		t.Fatalf("follower journal is not a byte prefix of the primary's (%d bytes compared)", len(ff))
	}
}

// checkpointMappings forces a checkpoint on the serving node and reads
// the resulting extent map from the volume's journal directory.
func checkpointMappings(t *testing.T, snapshot func() error, root string) []extmap.Mapping {
	t.Helper()
	if err := snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snap, err := journal.ReadCheckpointFile(journal.CheckpointPath(filepath.Join(root, vol)))
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatalf("no checkpoint under %s after snapshot", root)
	}
	return snap.Mappings
}

// assertCovered asserts every acked write extent is fully mapped —
// acknowledged writes survived.
func assertCovered(t *testing.T, maps []extmap.Mapping, exts []geom.Extent) {
	t.Helper()
	for _, e := range exts {
		var cov int64
		for _, m := range maps {
			lo, hi := max(m.Lba.Start, e.Start), min(m.Lba.End(), e.End())
			if hi > lo {
				cov += hi - lo
			}
		}
		if cov != e.Count {
			t.Fatalf("acked write %v: only %d of %d sectors mapped on the survivor", e, cov, e.Count)
		}
	}
}

// TestKillPrimaryMidLoad SIGKILLs the primary in the middle of a
// replay. The client must fail over (promoting the follower), every
// record must eventually succeed, and every write acknowledged at any
// point — before or after the kill — must be mapped on the survivor.
func TestKillPrimaryMidLoad(t *testing.T) {
	cfg := baseConfig(t)
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	fcfg := cfg
	fcfg.Source = prim.Addr
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	set, err := server.DialSet(context.Background(), []string{prim.Addr, fol.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	recs := makeTrace(200, 100)
	var acked []geom.Extent
	killAt := len(recs) / 2
	for i, rec := range recs {
		if i == killAt {
			prim.Kill()
		}
		if _, err := set.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Kind == disk.Write {
			acked = append(acked, rec.Extent)
		}
	}
	if set.Failovers() == 0 {
		t.Fatal("primary died mid-load but the client never failed over")
	}
	if got := prim.Prim.Degraded(); got != 0 {
		t.Fatalf("healthy pre-kill link degraded %d write acks", got)
	}
	info, err := fol.Role()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "primary" || info.Epoch != 2 {
		t.Fatalf("survivor role %s at epoch %d, want promoted primary at epoch 2", info.Role, info.Epoch)
	}
	maps := checkpointMappings(t, func() error { return set.Snapshot(vol) }, folRoot)
	assertCovered(t, maps, acked)
	mustVerifyDir(t, filepath.Join(folRoot, vol))
}

// TestPartitionHeal cuts the replication link mid-load. Writes must
// keep succeeding (degraded, counted), and after the heal the follower
// must converge back to a verified byte prefix of the primary with
// nothing rejected.
func TestPartitionHeal(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SyncTimeout = 100 * time.Millisecond
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	proxy, err := NewProxy(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	fcfg := cfg
	fcfg.Source = proxy.Addr()
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	c, err := server.Dial(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recs := makeTrace(120, 0)
	for i, rec := range recs[:40] {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "follower catch-up before partition", func() bool { return caughtUp(prim, fol) })

	proxy.Partition(true)
	for i, rec := range recs[40:80] {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("partitioned record %d: %v", i, err)
		}
	}
	if prim.Prim.Degraded() == 0 {
		t.Fatal("partitioned writes were acknowledged without any degrade accounting")
	}

	proxy.Partition(false)
	for i, rec := range recs[80:] {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("healed record %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "follower catch-up after heal", func() bool { return caughtUp(prim, fol) })
	if n := fol.Fol.Rejects(); n != 0 {
		t.Fatalf("follower rejected %d chunks on a clean (if flaky) link", n)
	}
	assertPrefix(t, primRoot, folRoot)
	mustVerifyDir(t, filepath.Join(folRoot, vol))
}

// TestSlowFollower adds latency to every replication response. The
// load must still complete and the follower must converge to a
// verified prefix — slowness degrades write acks, never correctness.
func TestSlowFollower(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SyncTimeout = 75 * time.Millisecond
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	proxy, err := NewProxy(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetDelay(30 * time.Millisecond)
	fcfg := cfg
	fcfg.Source = proxy.Addr()
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	c, err := server.Dial(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, rec := range makeTrace(100, 0) {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	proxy.SetDelay(0)
	waitFor(t, 15*time.Second, "slow follower convergence", func() bool { return caughtUp(prim, fol) })
	if n := fol.Fol.Rejects(); n != 0 {
		t.Fatalf("slow link caused %d rejects; slowness must never corrupt", n)
	}
	assertPrefix(t, primRoot, folRoot)
	mustVerifyDir(t, filepath.Join(folRoot, vol))
}

// TestCorruptShippedSegment flips a byte inside every large shipped
// frame. The follower must reject every corrupted chunk before it
// touches disk — its journal stays verifiable throughout — and must
// converge once the corruption stops.
func TestCorruptShippedSegment(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SyncTimeout = 0 // async: load fully before any follower exists
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	c, err := server.Dial(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, rec := range makeTrace(80, 0) {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}

	// Now attach a follower through a proxy that flips one byte deep
	// inside any frame big enough to carry segment data (control
	// responses stay intact). Its first catch-up chunk carries the whole
	// sealed load, so it must be corrupted — and rejected.
	proxy, err := NewProxy(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetCorrupt(func(p []byte) {
		if len(p) > 256 {
			p[len(p)-5] ^= 0x01
		}
	})
	fcfg := cfg
	fcfg.Source = proxy.Addr()
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFor(t, 10*time.Second, "corrupted chunks to be rejected", func() bool { return fol.Fol.Rejects() > 0 })
	// Whatever the follower has persisted so far must verify: corruption
	// was rejected before the journal, not after. (An empty dir — nothing
	// persisted at all — is equally fine.)
	folDir := filepath.Join(folRoot, vol)
	if _, err := os.Stat(journal.JournalPath(folDir)); err == nil {
		mustVerifyDir(t, folDir)
	}

	proxy.SetCorrupt(nil)
	waitFor(t, 15*time.Second, "convergence after corruption stops", func() bool { return caughtUp(prim, fol) })
	assertPrefix(t, primRoot, folRoot)
	mustVerifyDir(t, filepath.Join(folRoot, vol))
}

// TestPromotedFollowerMatchesDirectRun is the replica-consistency
// acceptance check: after a quiesced kill and promotion, the follower's
// extent map must be bit-identical to a direct single-node run of the
// same trace, and every read must resolve to the same fragment count.
func TestPromotedFollowerMatchesDirectRun(t *testing.T) {
	cfg := baseConfig(t)
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	fcfg := cfg
	fcfg.Source = prim.Addr
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	set, err := server.DialSet(context.Background(), []string{prim.Addr, fol.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	recs := makeTrace(150, 80)
	for i, rec := range recs {
		if _, err := set.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "follower catch-up before kill", func() bool { return caughtUp(prim, fol) })
	prim.Kill()

	// Direct single-node reference over its own journal.
	directRoot := t.TempDir()
	dmgr, err := volume.OpenAll(cfg.volConfigs(directRoot)...)
	if err != nil {
		t.Fatal(err)
	}
	defer dmgr.Close()
	dv, _ := dmgr.Get(vol)
	ctx := context.Background()
	for i, rec := range recs {
		kind := volume.OpWrite
		if rec.Kind == disk.Read {
			kind = volume.OpRead
		}
		if res, err := dv.Do(ctx, kind, rec.Extent); err != nil || res.Err != nil {
			t.Fatalf("direct record %d: %v / %v", i, err, res.Err)
		}
	}

	// Re-issue every read against both: identical fragment counts is the
	// paper's read-seek signal surviving failover bit-for-bit.
	for i, rec := range recs {
		if rec.Kind != disk.Read {
			continue
		}
		wireFrags, err := set.Step(vol, rec)
		if err != nil {
			t.Fatalf("post-failover read %d: %v", i, err)
		}
		res, err := dv.Do(ctx, volume.OpRead, rec.Extent)
		if err != nil || res.Err != nil {
			t.Fatalf("direct read %d: %v / %v", i, err, res.Err)
		}
		if wireFrags != res.Frags {
			t.Fatalf("read %d of %v: promoted follower resolved %d fragments, direct run %d",
				i, rec.Extent, wireFrags, res.Frags)
		}
	}
	if set.Failovers() == 0 {
		t.Fatal("reads after the kill never triggered a failover")
	}

	folMaps := checkpointMappings(t, func() error { return set.Snapshot(vol) }, folRoot)
	directMaps := checkpointMappings(t, func() error {
		res, err := dv.Do(ctx, volume.OpSnapshot, geom.Extent{})
		if err != nil {
			return err
		}
		return res.Err
	}, directRoot)
	if len(folMaps) != len(directMaps) {
		t.Fatalf("extent maps diverged: %d mappings on promoted follower, %d direct", len(folMaps), len(directMaps))
	}
	for i := range folMaps {
		if folMaps[i] != directMaps[i] {
			t.Fatalf("extent map entry %d diverged: follower %+v, direct %+v", i, folMaps[i], directMaps[i])
		}
	}
}

// TestStalePrimaryFenced kills a primary, promotes the follower, then
// restarts the old primary pointed at the survivor. It must discover
// the higher epoch, fence itself, and reject data ops; a replica-set
// client must route around it.
func TestStalePrimaryFenced(t *testing.T) {
	cfg := baseConfig(t)
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	fcfg := cfg
	fcfg.Source = prim.Addr
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	set, err := server.DialSet(context.Background(), []string{prim.Addr, fol.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	recs := makeTrace(40, 0)
	for i, rec := range recs[:20] {
		if _, err := set.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	prim.Kill()
	for i, rec := range recs[20:] {
		if _, err := set.Step(vol, rec); err != nil {
			t.Fatalf("post-kill record %d: %v", i, err)
		}
	}

	// The old primary rejoins at its stale epoch, peering with the
	// survivor.
	rcfg := cfg
	rcfg.Peers = []string{fol.Addr}
	stale, err := StartPrimary(primRoot, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	waitFor(t, 10*time.Second, "stale primary to fence itself", func() bool { return !stale.Prim.AcceptingData() })
	info, err := stale.Role()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "fenced" {
		t.Fatalf("stale primary role %q, want fenced", info.Role)
	}

	c, err := server.Dial(stale.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Step(vol, recs[0])
	var se *server.StatusError
	if !errors.As(err, &se) || se.Status != server.StatusNotPrimary {
		t.Fatalf("data op on fenced ex-primary: got %v, want not-primary rejection", err)
	}

	set2, err := server.DialSet(context.Background(), []string{stale.Addr, fol.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer set2.Close()
	if set2.Primary() != fol.Addr {
		t.Fatalf("replica set routed to %s, want the promoted follower %s", set2.Primary(), fol.Addr)
	}
	if _, err := set2.Step(vol, recs[0]); err != nil {
		t.Fatalf("step through rerouted set: %v", err)
	}
}

// TestCheckpointCatchUp starts a follower only after the primary has
// checkpointed past its first generation: catch-up must arrive via a
// verified checkpoint install, then segments of the live generation.
func TestCheckpointCatchUp(t *testing.T) {
	cfg := baseConfig(t)
	cfg.SyncTimeout = 0 // async: no follower exists for most of the run
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()

	c, err := server.Dial(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recs := makeTrace(90, 0)
	for i, rec := range recs[:60] {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := c.Snapshot(vol); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[60:] {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("post-checkpoint record %d: %v", i, err)
		}
	}

	fcfg := cfg
	fcfg.Source = prim.Addr
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	waitFor(t, 15*time.Second, "checkpoint catch-up", func() bool { return caughtUp(prim, fol) })

	snap, err := journal.ReadCheckpointFile(journal.CheckpointPath(filepath.Join(folRoot, vol)))
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("follower caught up a checkpointed primary without installing its checkpoint")
	}
	assertPrefix(t, primRoot, folRoot)
	mustVerifyDir(t, filepath.Join(folRoot, vol))
}

// TestRebirthWithoutSealsNoRejects checkpoints a primary whose follower
// is caught up and then writes nothing: the new generation holds no
// seals, so the follower — polling it right after installing the
// checkpoint — must be told there is nothing to ship, not be sent a
// header-only chunk it has to reject.
func TestRebirthWithoutSealsNoRejects(t *testing.T) {
	cfg := baseConfig(t)
	primRoot, folRoot := t.TempDir(), t.TempDir()
	prim, err := StartPrimary(primRoot, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	fcfg := cfg
	fcfg.Source = prim.Addr
	fol, err := StartFollower(folRoot, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()

	c, err := server.Dial(prim.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, rec := range makeTrace(30, 0) {
		if _, err := c.Step(vol, rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	waitFor(t, 10*time.Second, "follower catch-up", func() bool { return caughtUp(prim, fol) })

	if err := c.Snapshot(vol); err != nil {
		t.Fatal(err)
	}
	var snap *journal.Snapshot
	waitFor(t, 10*time.Second, "checkpoint install on the follower", func() bool {
		snap, err = journal.ReadCheckpointFile(journal.CheckpointPath(filepath.Join(folRoot, vol)))
		return err == nil && snap != nil
	})
	// A tail poll at the start of the seal-less generation — where the
	// follower resumes — must be held for the whole long poll, not
	// answered at once: an immediate empty answer would have the
	// follower re-poll in a tight loop until the next seal.
	start := time.Now()
	_, chunk, err := c.Tail(vol, snap.Generation+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Kind != journal.ShipNone {
		t.Fatalf("tail at the start of a seal-less generation shipped kind %d, want none", chunk.Kind)
	}
	if held := time.Since(start); held < cfg.TailWait*3/4 {
		t.Fatalf("tail at the start of a seal-less generation returned after %v, want about %v", held, cfg.TailWait)
	}
	// Give the follower several long polls of the seal-less generation.
	time.Sleep(3 * cfg.TailWait)
	if n := fol.Fol.Rejects(); n != 0 {
		t.Fatalf("follower rejected %d chunks after a checkpoint with no seals", n)
	}
}
