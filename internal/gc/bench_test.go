package gc

import (
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

func benchLayer(b *testing.B, policy Policy) {
	b.Helper()
	l, err := New(Config{
		DeviceSectors:  1 << 20,
		LogSectors:     256 * 2048,
		SegmentSectors: 2048,
		Policy:         policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(1)
	var placed []stl.Fragment
	var ops []stl.MaintenanceOp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		placed = l.Write(placed[:0], geom.Ext(int64(seed%(400*1024)), 16))
		ops = l.Maintenance(ops[:0])
	}
	b.ReportMetric(float64(l.Cleanings()), "cleanings")
}

func BenchmarkWriteGreedy(b *testing.B)      { benchLayer(b, Greedy) }
func BenchmarkWriteCostBenefit(b *testing.B) { benchLayer(b, CostBenefit) }

func BenchmarkResolve(b *testing.B) {
	l, err := New(Config{DeviceSectors: 1 << 20, LogSectors: 256 * 2048, SegmentSectors: 2048})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(2)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.Write(nil, geom.Ext(int64(seed%(400*1024)), 16))
		l.Maintenance(nil)
	}
	var frags []stl.Fragment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		frags = l.Resolve(frags[:0], geom.Ext(int64(seed%(400*1024)), 256))
	}
}
