package stl

import (
	"fmt"
	"os"
	"time"

	"smrseek/internal/extmap"
	"smrseek/internal/journal"
)

// Snapshot captures the layer's durable state — extent map, frontier,
// written-sector counter — as a checkpoint snapshot. The mapping slice
// is a copy; the live map is untouched.
func (l *LS) Snapshot() journal.Snapshot {
	ms := make([]extmap.Mapping, 0, l.m.Len())
	l.m.Walk(func(m extmap.Mapping) bool {
		ms = append(ms, m)
		return true
	})
	return journal.Snapshot{Frontier: l.frontier, Written: l.written, Mappings: ms}
}

// ReplayStats describes what recovery found and did.
type ReplayStats struct {
	// FromCheckpoint reports that a checkpoint seeded the state.
	FromCheckpoint bool
	// Replayed is the number of complete journal records applied on top
	// of the checkpoint (or the journal's initial state).
	Replayed int64
	// ReplayedSectors is the sectors those records appended to the log.
	ReplayedSectors int64
	// TornTail reports that the journal ended in a torn or corrupt
	// record, which was discarded — the expected signature of a crash
	// mid-append.
	TornTail bool
	// Generation is the journal generation recovery ended on.
	Generation uint64
	// Verified reports that the seal chain and checkpoint linkage were
	// checked before replay (RecoverOptions.VerifyOnRecover).
	Verified bool
	// SealedSegments is the number of verified seals, when Verified.
	SealedSegments int
	// Workers is the verification worker count the scans ran with (only
	// set by RecoverDirWith; 0 from a bare Recover).
	Workers int
	// JournalBytes is the size of the journal file that was scanned, for
	// throughput reporting (0 when no journal file existed).
	JournalBytes int64
	// Elapsed is the wall-clock duration of RecoverDirWith, including
	// verification, load and replay. Zero it before comparing stats
	// across runs.
	Elapsed time.Duration
}

// RecoverOptions controls directory recovery.
type RecoverOptions struct {
	// VerifyOnRecover runs journal.VerifyDir before replay: every frame
	// CRC, every segment's Merkle root, the seal chain, and the
	// checkpoint⇄journal anchor linkage. Recovery then refuses a
	// directory with damage inside the sealed region (journal.ErrCorrupt,
	// with segment and offset) instead of silently truncating it to a
	// "torn tail". Torn tails — damage past the last seal with no sealed
	// data beyond it — still recover to the verified prefix.
	VerifyOnRecover bool
	// Workers bounds the pool verifying sealed segments concurrently
	// during the scans (journal.ScanBytesWorkers): <= 0 means
	// journal.DefaultRecoveryWorkers (GOMAXPROCS), 1 scans inline. The
	// recovered layer and stats are bit-identical at any count.
	Workers int
}

// Recover rebuilds a log-structured layer from a checkpoint snapshot
// (may be nil: journal-only recovery) and a parsed journal. Records are
// replayed in order through the same insert path live writes take, so
// the recovered extent map, frontier and written-sector counter are
// bit-identical to the layer that produced them.
//
// The write-ahead discipline makes this exact: a mutation is applied
// only after its record is acknowledged, so the live state at crash
// time is precisely the state after replaying every complete record —
// the torn tail, if any, was never applied.
func Recover(snap *journal.Snapshot, d journal.Data) (*LS, ReplayStats, error) {
	var st ReplayStats
	l := &LS{m: extmap.NewCoalesced()}
	if snap != nil {
		st.FromCheckpoint = true
		l.frontier = snap.Frontier
		l.written = snap.Written
		for _, m := range snap.Mappings {
			l.m.InsertFunc(m.Lba, m.Pba, nil)
		}
	} else {
		l.frontier = d.InitFrontier
	}
	st.TornTail = d.Torn
	st.Generation = d.Generation
	for i, rec := range d.Records {
		switch rec.Kind {
		case journal.RecWrite, journal.RecRelocate:
			// The record's placement must be the replay frontier: LS
			// appends at the frontier and journals before mutating, so a
			// divergence means the journal does not belong to this
			// checkpoint (or the pair was tampered with) — refuse rather
			// than build a plausible-but-wrong map.
			if rec.Pba != l.frontier {
				return nil, st, fmt.Errorf(
					"stl: record %d places %v at pba %d but the replay frontier is %d (checkpoint/journal mismatch?)",
					i, rec.Lba, rec.Pba, l.frontier)
			}
			l.m.InsertFunc(rec.Lba, rec.Pba, nil)
			l.frontier += rec.Lba.Count
			l.written += rec.Lba.Count
			st.ReplayedSectors += rec.Lba.Count
		case journal.RecFrontier:
			l.frontier = rec.Pba
		default:
			return nil, st, fmt.Errorf("stl: record %d has unknown kind %d", i, rec.Kind)
		}
		st.Replayed++
	}
	if err := l.m.CheckInvariants(); err != nil {
		return nil, st, fmt.Errorf("stl: recovered map is corrupt: %w", err)
	}
	return l, st, nil
}

// RecoverDir recovers from a journal directory as left by a crash: the
// checkpoint (if any) plus the journal replayed on top, honouring the
// generation rule that discards a stale journal. It does not verify the
// seal chain; use RecoverDirWith for verified recovery.
func RecoverDir(dir string) (*LS, ReplayStats, error) {
	return RecoverDirWith(dir, RecoverOptions{})
}

// RecoverDirWith is RecoverDir with options. With VerifyOnRecover set
// it audits the directory first and refuses to recover from one whose
// sealed history does not verify — the caller gets the *CorruptError
// (matching journal.ErrCorrupt) naming the damaged file, segment and
// offset. Note LoadDir itself also surfaces sealed-region damage; the
// verify pass adds the checkpoint-linkage checks (anchor and generation
// succession) that replay alone cannot see.
func RecoverDirWith(dir string, opt RecoverOptions) (*LS, ReplayStats, error) {
	start := time.Now()
	workers := opt.Workers
	if workers <= 0 {
		workers = journal.DefaultRecoveryWorkers()
	}
	var audit *journal.Audit
	if opt.VerifyOnRecover {
		a, err := journal.VerifyDirWorkers(dir, workers)
		if err != nil {
			return nil, ReplayStats{}, err
		}
		audit = a
	}
	snap, d, err := journal.LoadDirWorkers(dir, workers)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	l, st, err := Recover(snap, d)
	if audit != nil {
		st.Verified = true
		st.SealedSegments = len(audit.Segments)
	}
	st.Workers = workers
	if fi, serr := os.Stat(journal.JournalPath(dir)); serr == nil {
		st.JournalBytes = fi.Size()
	}
	st.Elapsed = time.Since(start)
	return l, st, err
}
