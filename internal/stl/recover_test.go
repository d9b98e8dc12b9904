package stl

import (
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// journaledWrite appends the record for a write and applies it, the way
// the simulator does: append first, mutate only on success.
func journaledWrite(t *testing.T, l *LS, log *journal.Log, lba geom.Extent) bool {
	t.Helper()
	rec := journal.Record{Kind: journal.RecWrite, Lba: lba, Pba: l.Frontier()}
	if err := log.Append(rec); err != nil {
		if !errors.Is(err, journal.ErrCrashed) {
			t.Fatalf("append: %v", err)
		}
		return false
	}
	l.Write(nil, lba)
	return true
}

func assertRecoveredEqual(t *testing.T, live, rec *LS) {
	t.Helper()
	if diff := live.Map().Diff(rec.Map()); diff != "" {
		t.Errorf("recovered map diverges: %s", diff)
	}
	if live.Frontier() != rec.Frontier() {
		t.Errorf("frontier: live %d, recovered %d", live.Frontier(), rec.Frontier())
	}
	if live.LogSectors() != rec.LogSectors() {
		t.Errorf("written: live %d, recovered %d", live.LogSectors(), rec.LogSectors())
	}
	if err := rec.Map().CheckInvariants(); err != nil {
		t.Errorf("recovered map invariants: %v", err)
	}
}

func TestRecoverReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := NewLS(1000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		lba := geom.Ext(rng.Int63n(4000), rng.Int63n(64)+1)
		if !journaledWrite(t, live, log, lba) {
			t.Fatal("unexpected crash")
		}
	}
	rec, st, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCheckpoint || st.TornTail || st.Replayed != 500 {
		t.Errorf("stats = %+v, want 500 replayed, no checkpoint, no torn tail", st)
	}
	assertRecoveredEqual(t, live, rec)
}

func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := NewLS(0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(2000), rng.Int63n(32)+1))
		if i%100 == 99 {
			if err := log.Checkpoint(live.Snapshot()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 400 writes, checkpoint at 100/200/300/400: nothing after the last
	// checkpoint yet. Add a tail.
	for i := 0; i < 37; i++ {
		journaledWrite(t, live, log, geom.Ext(rng.Int63n(2000), rng.Int63n(32)+1))
	}
	rec, st, err := RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FromCheckpoint || st.Replayed != 37 || st.TornTail {
		t.Errorf("stats = %+v, want checkpoint + 37 replayed", st)
	}
	assertRecoveredEqual(t, live, rec)
}

func TestRecoverAfterTornCrash(t *testing.T) {
	// Crash on the 50th append with a torn half-record: recovery must
	// reproduce the live state, which never applied the failed write.
	for _, torn := range []int{0, 13, 40} {
		dir := t.TempDir()
		log, err := journal.Open(dir, 500)
		if err != nil {
			t.Fatal(err)
		}
		log.CrashAfter(50, torn)
		live := NewLS(500)
		rng := rand.New(rand.NewSource(3))
		crashed := false
		for i := 0; i < 100; i++ {
			if !journaledWrite(t, live, log, geom.Ext(rng.Int63n(1000), rng.Int63n(16)+1)) {
				crashed = true
				break
			}
		}
		log.Close()
		if !crashed {
			t.Fatal("crash point never fired")
		}
		rec, st, err := RecoverDir(dir)
		if err != nil {
			t.Fatalf("torn=%d: %v", torn, err)
		}
		if st.Replayed != 49 {
			t.Errorf("torn=%d: replayed %d, want 49", torn, st.Replayed)
		}
		if wantTorn := torn > 0; st.TornTail != wantTorn {
			t.Errorf("torn=%d: TornTail=%v, want %v", torn, st.TornTail, wantTorn)
		}
		assertRecoveredEqual(t, live, rec)
	}
}

func TestRecoverRejectsFrontierMismatch(t *testing.T) {
	d := journal.Data{
		Generation:   1,
		InitFrontier: 100,
		Records: []journal.Record{
			{Kind: journal.RecWrite, Lba: geom.Ext(0, 4), Pba: 100},
			{Kind: journal.RecWrite, Lba: geom.Ext(8, 4), Pba: 999}, // not the frontier
		},
	}
	if _, _, err := Recover(nil, d); err == nil || !strings.Contains(err.Error(), "frontier") {
		t.Errorf("err = %v, want frontier mismatch", err)
	}
}

func TestRecoverFrontierRecord(t *testing.T) {
	d := journal.Data{
		Generation:   1,
		InitFrontier: 100,
		Records: []journal.Record{
			{Kind: journal.RecWrite, Lba: geom.Ext(0, 4), Pba: 100},
			{Kind: journal.RecFrontier, Pba: 5000},
			{Kind: journal.RecWrite, Lba: geom.Ext(4, 2), Pba: 5000},
		},
	}
	l, st, err := Recover(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	if l.Frontier() != 5002 || st.Replayed != 3 {
		t.Errorf("frontier %d replayed %d, want 5002/3", l.Frontier(), st.Replayed)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	live := NewLS(1 << 20)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		live.Write(nil, geom.Ext(rng.Int63n(1<<18), rng.Int63n(256)+1))
	}
	snap := live.Snapshot()
	rec, st, err := Recover(&snap, journal.Data{Generation: snap.Generation + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.FromCheckpoint || st.Replayed != 0 {
		t.Errorf("stats = %+v", st)
	}
	assertRecoveredEqual(t, live, rec)
}

func TestRecoverDirWithVerify(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	live := NewLS(0)
	for i := 0; i < 6; i++ {
		journaledWrite(t, live, log, geom.Ext(int64(i)*8, 8))
	}
	log.Close()

	// Clean sealed journal: verified recovery succeeds and says so.
	rec, st, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Verified || st.SealedSegments != 3 || st.Replayed != 6 {
		t.Errorf("stats = %+v, want verified with 3 sealed segments", st)
	}
	assertRecoveredEqual(t, live, rec)

	// Unverified recovery of the same dir reports Verified=false.
	if _, st, err := RecoverDir(dir); err != nil || st.Verified {
		t.Errorf("unverified recovery: %+v, %v", st, err)
	}

	// Flip one byte inside the sealed region: verified recovery refuses
	// with ErrCorrupt; the error names the journal file.
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[70] ^= 0x01 // inside the first record frame
	if err := os.WriteFile(journal.JournalPath(dir), raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true}); !errors.Is(err, journal.ErrCorrupt) {
		t.Errorf("verified recovery of corrupt dir: %v, want ErrCorrupt", err)
	}

	// A torn tail past the last seal is crash residue: verified recovery
	// still succeeds, replaying the verified prefix.
	raw[70] ^= 0x01 // undo
	frame := journal.MarshalRecord(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(48, 8), Pba: 48})
	torn := append(append([]byte(nil), raw...), frame[:20]...)
	if err := os.WriteFile(journal.JournalPath(dir), torn, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, st, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true}); err != nil ||
		!st.TornTail || st.Replayed != 6 {
		t.Errorf("verified recovery of torn dir: %+v, %v", st, err)
	}
}

// FuzzJournalReplay feeds arbitrary bytes through the full recovery
// pipeline: journal parse (which must stop cleanly at any torn or
// corrupt tail) and replay (which must either fail or produce a map
// whose invariants hold) — never a panic.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a well-formed journal: header + a few records.
	dir := f.TempDir()
	log, err := journal.Open(dir, 100)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := log.Append(journal.Record{
			Kind: journal.RecWrite, Lba: geom.Ext(i*8, 8), Pba: 100 + i*8,
		}); err != nil {
			f.Fatal(err)
		}
	}
	log.Close()
	seed, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	f.Add([]byte("SMRWAL02"))

	// And a sealed journal: small segments so the seed carries several
	// seal frames for the fuzzer to mangle.
	sdir := f.TempDir()
	slog, err := journal.Open(sdir, 100)
	if err != nil {
		f.Fatal(err)
	}
	if err := slog.SetSegmentSize(2); err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := slog.Append(journal.Record{
			Kind: journal.RecWrite, Lba: geom.Ext(i*8, 8), Pba: 100 + i*8,
		}); err != nil {
			f.Fatal(err)
		}
	}
	slog.Close()
	sealed, err := os.ReadFile(journal.JournalPath(sdir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-10]) // torn inside the final seal frame
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := journal.ReadJournal(strings.NewReader(string(data)))
		if err != nil {
			return // damaged header: rejected, fine
		}
		l, _, err := Recover(nil, d)
		if err != nil {
			return // inconsistent record stream: rejected, fine
		}
		if err := l.Map().CheckInvariants(); err != nil {
			t.Fatalf("recovered map violates invariants: %v", err)
		}
	})
}
