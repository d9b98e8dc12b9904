package journal

import (
	"os"
	"testing"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
)

// TestShipFromAfterRebirthShipsNone pins the rebirth corner of the ship
// protocol: right after a checkpoint the new generation holds only its
// header, so a follower asking for that generation from offset 0 must be
// told there is nothing to ship — a header-only chunk has no segment to
// verify, and the follower would have to reject it.
func TestShipFromAfterRebirthShipsNone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(Record{Kind: RecWrite, Lba: geom.Ext(geom.Sector(i*8), 8), Pba: geom.Sector(i * 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(Snapshot{
		Frontier: 32, Written: 32,
		Mappings: []extmap.Mapping{{Lba: geom.Ext(0, 32), Pba: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen, _, _, err := ParseHeader(raw)
	if err != nil {
		t.Fatal(err)
	}

	chunk, err := ShipFrom(dir, gen, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Kind != ShipNone {
		t.Fatalf("ShipFrom(gen %d, 0) after a rebirth shipped %s with %d bytes, want none",
			gen, ShipKindName(chunk.Kind), len(chunk.Data))
	}
	if chunk.Gen != gen || chunk.Off != 0 {
		t.Fatalf("ShipNone at (%d,%d), want (%d,0)", chunk.Gen, chunk.Off, gen)
	}
}
