package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of raw samples (sorted in
// place). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// minSamplesForP99 is the sample count that leaves at least ten samples
// beyond the 99th percentile.
const minSamplesForP99 = 1000

// liveHeapMB runs a full GC and returns the heap it found live, in MB.
// Taken at the end of a measured phase while the phase's state is still
// referenced, it is the memory that state holds; unlike a sampled peak
// it does not depend on when GC cycles happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// latencies holds raw per-operation samples in microseconds, by kind.
type latencies struct {
	write, read []float64
}

func (l *latencies) add(isWrite bool, us float64) {
	if isWrite {
		l.write = append(l.write, us)
	} else {
		l.read = append(l.read, us)
	}
}

func usSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e3 }

// profile summarizes raw samples for the human-readable output.
func profile(kind string, xs []float64) string {
	return fmt.Sprintf("latency %-5s n=%d p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f us",
		kind, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), quantile(xs, 0.999), quantile(xs, 1))
}
