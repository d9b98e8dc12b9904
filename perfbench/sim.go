package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"smrseek/internal/band"
	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/experiments"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// simSpec is an in-process replay workload: one trace replayed through
// one simulator stack on one goroutine, no journal and no network.
type simSpec struct {
	profile string  // catalog or experiments.WAFProfiles name
	scale   float64 // workload.Profile.Generate scale
	// stack builds a fresh configuration for one replay; every replay
	// starts from empty caches and a fresh device, as a real one does.
	stack func(in *simInput) (core.Config, error)
	// layer names the device seam's span ("disk" or "band").
	layer string
}

// simInput is the set-up of a sim workload: the generated trace and the
// NoLS baseline on the infinite disk that read_saf divides by.
type simInput struct {
	recs          []trace.Record
	frontier      geom.Sector
	footprint     int64 // distinct sectors ever written
	baseReadSeeks int64
	generateS     float64
}

func findProfile(name string) (workload.Profile, error) {
	for _, p := range experiments.WAFProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return workload.ByName(name)
}

// simPaper is w91 through LS+defrag+prefetch+selective cache with the
// paper's default mechanism settings on the infinite disk.
func simPaper() simSpec {
	return simSpec{profile: "w91", scale: 4, layer: "disk", stack: func(in *simInput) (core.Config, error) {
		d, p, c := core.DefaultDefragConfig(), core.DefaultPrefetchConfig(), core.DefaultCacheConfig()
		return core.Config{LogStructured: true, FrontierStart: in.frontier, Defrag: &d, Prefetch: &p, Cache: &c}, nil
	}}
}

// simBanded is the cleaning experiment's oltp row: NoLS on a POL-A banded
// device with 2048-sector bands and a persistent cache of ~10% of the
// write footprint.
func simBanded() simSpec {
	return simSpec{profile: "oltp", scale: 10, layer: "band", stack: func(in *simInput) (core.Config, error) {
		const bandSectors = 2048
		dev, err := band.New(band.Config{
			BandSectors:  bandSectors,
			CacheSectors: ((in.footprint/10)/bandSectors + 1) * bandSectors,
			UnitSectors:  2 * bandSectors,
			Policy:       band.PolA,
		})
		if err != nil {
			return core.Config{}, err
		}
		return core.Config{Device: dev}, nil
	}}
}

func (s simSpec) setup(seed uint64) (*simInput, error) {
	p, err := findProfile(s.profile)
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	t0 := time.Now()
	recs := trace.PreloadRecords(p.Generate(s.scale)).Records()
	in := &simInput{recs: recs, frontier: core.FrontierFor(recs), generateS: time.Since(t0).Seconds()}
	written := geom.NewSet()
	for _, r := range recs {
		if r.Kind == disk.Write {
			written.Add(r.Extent)
		}
	}
	in.footprint = written.Sectors()
	base, err := core.NewSimulator(core.Config{})
	if err != nil {
		return nil, err
	}
	st, err := base.Run(trace.NewSliceReader(recs))
	if err != nil {
		return nil, err
	}
	in.baseReadSeeks = st.Disk.ReadSeeks
	return in, nil
}

// simReplay is one timed replay's outcome.
type simReplay struct {
	stats    core.Stats
	elapsed  time.Duration
	mappings int
	steps    []float64 // per-record Step time, µs
	lat      latencies // per-op latency behind a full queue, µs
	dev      *timedDevice
	heapMB   float64 // live heap at the end of the replay
}

// replay runs in.recs once through a fresh stack. With tr set, every
// Step and every device access below it is a span.
func (s simSpec) replay(in *simInput, tr *Tracer, replayNo uint64) (*simReplay, error) {
	cfg, err := s.stack(in)
	if err != nil {
		return nil, err
	}
	out := &simReplay{}
	scope := &stepScope{}
	if tr != nil {
		inner := cfg.Device
		if inner == nil {
			inner = disk.New()
		}
		cfg.Device, out.dev = wrapDevice(inner, tr, scope, s.layer)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	n := len(in.recs)
	out.steps = make([]float64, n)
	reqBase := replayNo * uint64(n)
	start := time.Now()
	prev := start
	for i, r := range in.recs {
		var now time.Time
		if tr != nil {
			now = scope.step(tr, reqBase+uint64(i), prev, func() { sim.Step(r) })
		} else {
			sim.Step(r)
			now = time.Now()
		}
		out.steps[i] = usSince(prev, now)
		prev = now
	}
	sim.Finish()
	out.elapsed = time.Since(start)
	if err := sim.JournalErr(); err != nil {
		return nil, err
	}
	out.lat = queuedLatencies(in.recs, out.steps)
	out.heapMB = liveHeapMB()
	out.stats = sim.Stats()
	out.stats.Config = core.Config{}
	if ls := sim.LS(); ls != nil {
		out.mappings = ls.Map().Len()
	}
	return out, nil
}

func (s simSpec) pass(o *runOpts, tr *Tracer, setups int) (*passResult, error) {
	res := newPassResult()
	var setupS, genS []float64
	var in *simInput
	for i := 0; i < setups; i++ {
		in = nil // let the previous set-up's trace go before building the next
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = s.setup(o.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		genS = append(genS, in.generateS)
	}
	res.e2e["setup_s"] = median(setupS)
	res.layer["workload.generate_s"] = median(genS)
	res.layer["trace.records"] = float64(len(in.recs))

	// Timed phase: full replays through the measured stack until the
	// budget is spent (at least three).
	budget := time.Duration(o.seconds * float64(time.Second))
	var (
		rates, wp50, wp99, rp50, rp99, secs []float64
		heapMB                              float64
		first                               *simReplay
		stepNs                              []float64
		busyStep, selfStep, busyDev         []float64
	)
	began := time.Now()
	for n := uint64(0); n < 3 || time.Since(began) < budget; n++ {
		before := tr.Totals("core.Step")
		beforeDev := tr.Totals(s.layer)
		r, err := s.replay(in, tr, n)
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(in.recs))
		if first == nil {
			first = r
		} else if !reflect.DeepEqual(first.stats, r.stats) {
			res.problem("replay %d of the same trace gave different stats", n)
		}
		rates = append(rates, float64(len(in.recs))/r.elapsed.Seconds())
		heapMB = max(heapMB, r.heapMB)
		secs = append(secs, r.elapsed.Seconds())
		wp50 = append(wp50, quantile(r.lat.write, 0.5))
		wp99 = append(wp99, quantile(r.lat.write, 0.99))
		rp50 = append(rp50, quantile(r.lat.read, 0.5))
		rp99 = append(rp99, quantile(r.lat.read, 0.99))
		res.checkSamples("write", len(r.lat.write))
		res.checkSamples("read", len(r.lat.read))
		if tr != nil {
			after, afterDev := tr.Totals("core.Step"), tr.Totals(s.layer)
			busyStep = append(busyStep, (after.Total - before.Total).Seconds())
			selfStep = append(selfStep, (after.Self - before.Self).Seconds())
			busyDev = append(busyDev, (afterDev.Total - beforeDev.Total).Seconds())
			stepNs = append(stepNs, quantile(r.steps, 0.5)*1e3, quantile(r.steps, 0.99)*1e3)
			res.layer["disk.accesses_per_op"] = float64(r.dev.calls) / float64(len(in.recs))
			res.layer["disk.seek_frac"] = ratio(r.dev.seeks, r.dev.calls)
		}
	}
	res.e2e["peak_heap_mb"] = heapMB

	st := first.stats
	res.e2e["replay_ops_per_s"] = median(rates)
	// A replay is itself a closed loop: the next record goes in as soon
	// as the previous one is done, so the stack's saturation rate is its
	// replay rate.
	res.e2e["sat_ops_per_s"] = res.e2e["replay_ops_per_s"]
	res.e2e["recover_s"] = median(secs)
	res.e2e["read_saf"] = float64(st.Disk.ReadSeeks) / float64(in.baseReadSeeks)
	res.e2e["write_amp"] = writeAmp(st)
	res.e2e["write_p50_us"], res.e2e["write_p99_us"] = median(wp50), median(wp99)
	res.e2e["read_p50_us"], res.e2e["read_p99_us"] = median(rp50), median(rp99)
	res.samples["write"], res.samples["read"] = len(first.lat.write), len(first.lat.read)
	res.profiles = append(res.profiles, profile("write", first.lat.write), profile("read", first.lat.read))
	res.rate = res.e2e["replay_ops_per_s"]
	res.det = fmt.Sprintf("%+v", st)

	ops := float64(st.Reads + st.Writes)
	res.layer["extmap.mappings"] = float64(first.mappings)
	res.setStlCore(st)
	if tr != nil {
		pairs := len(stepNs) / 2
		p50s, p99s := make([]float64, pairs), make([]float64, pairs)
		for i := 0; i < pairs; i++ {
			p50s[i], p99s[i] = stepNs[2*i], stepNs[2*i+1]
		}
		res.layer["core.step_busy_s"] = median(busyStep)
		res.layer["core.self_s"] = median(selfStep)
		res.layer["core.step_p50_ns"] = median(p50s)
		res.layer["core.step_p99_ns"] = median(p99s)
		res.layer[s.layer+".busy_s"] = median(busyDev)
	}
	c := st.Cleaning
	res.layer["band.bands_cleaned_per_kop"] = perKop(c.BandsCleaned, ops)
	res.layer["band.stalls_per_kop"] = perKop(c.Stalls, ops)
	res.layer["band.stall_sectors_per_kop"] = perKop(c.StallSectors, ops)
	res.layer["band.cached_write_frac"] = ratio(c.CachedSectors, c.HostWriteSectors)
	return res, nil
}

// simQueueDepth is the client queue the sim workloads' latencies assume:
// smrd's default SMRD2 window.
const simQueueDepth = 32

// queuedLatencies turns per-record Step times into the latency each op
// would see from a client that keeps simQueueDepth ops queued: its own
// Step time plus those of the simQueueDepth-1 ops ahead of it. Unlike a
// single Step time, its tail does not jump when the share of expensive
// ops (band cleaning, cache invalidation) crosses 1%.
func queuedLatencies(recs []trace.Record, steps []float64) latencies {
	lat := latencies{write: make([]float64, 0, len(steps)), read: make([]float64, 0, len(steps))}
	var sum float64
	for i, st := range steps {
		sum += st
		if i >= simQueueDepth {
			sum -= steps[i-simQueueDepth]
		}
		lat.add(recs[i].Kind == disk.Write, sum)
	}
	return lat
}

// setStlCore fills the translation-layer and mechanism ratios shared by
// every workload from a run's Stats.
func (r *passResult) setStlCore(st core.Stats) {
	ops := float64(st.Reads + st.Writes)
	r.layer["stl.frags_per_read"] = ratio(st.TotalFragments, st.Reads)
	r.layer["stl.fragmented_read_frac"] = ratio(st.FragmentedReads, st.Reads)
	r.layer["core.cache_hit_frac"] = ratio(st.CacheHits, st.CacheHits+st.CacheMisses)
	r.layer["core.cache_invalidated_per_kop"] = perKop(st.CacheInvalidations, ops)
	r.layer["core.prefetch_hit_frac"] = ratio(st.PrefetchHits, st.Reads)
	r.layer["core.defrag_sectors_per_kop"] = perKop(st.DefragSectors, ops)
}

// writeAmp is sectors the device wrote over sectors the host asked to
// write: metrics.Cleaning.WriteAmp on a banded device, and on the
// infinite disk the disk's written sectors (defrag write-backs included)
// over the host's.
func writeAmp(st core.Stats) float64 {
	if st.Cleaning.Any() {
		return st.Cleaning.WriteAmp()
	}
	return float64(st.Disk.WriteSectors) / float64(st.Disk.WriteSectors-st.DefragSectors)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perKop(n int64, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) * 1000 / ops
}
