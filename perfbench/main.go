// Command perfbench is smrseek's end-to-end benchmark. It runs one
// workload per invocation and prints, as its last line, one JSON object
// with the run's correctness, operation counts and metrics: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. See README.md for the workloads, the metrics and
// the seams they are measured at.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sim-paper --seed 7 --seconds 30 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runOpts are one invocation's settings.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	scratch  string // per-pass scratch directory under --out
}

// metricDef names a metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadMetrics reads the metric lists from BENCHMARK.json at the
// repository root, the one place they are defined. A --trace 0 run
// prints every end-to-end metric and a --trace 1 run every per-layer
// metric, on every workload.
func loadMetrics(path string) (endToEnd, perLayer []metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, spec.PerLayer, nil
}

// passResult is one measured pass of a workload.
type passResult struct {
	e2e, layer        map[string]float64
	samples           map[string]int // open-loop or per-replay samples, by op kind
	attempted, failed int64
	overloaded        int64
	rate              float64 // throughput the tracing overhead is judged on
	det               string  // deterministic counts, equal across passes
	problems          []string
	profiles          []string // latency summaries for the human-readable output
}

func newPassResult() *passResult {
	return &passResult{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

func (r *passResult) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// checkSamples requires enough samples that ten lie beyond the p99.
func (r *passResult) checkSamples(kind string, n int) {
	if n < minSamplesForP99 {
		r.problem("only %d %s samples; p99 needs %d", n, kind, minSamplesForP99)
	}
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	pass func(o *runOpts, tr *Tracer, setups int) (*passResult, error)
}

var workloads = []workloadDef{
	{"sim-paper", simPaper().pass},
	{"sim-banded", simBanded().pass},
	{"smrd-journaled", smrdJournaled().pass},
}

// setupRepeats is how many times a measured pass sets up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload to run: sim-paper, sim-banded, smrd-journaled")
		seed    = fl.Uint64("seed", 1811, "workload seed; it replaces the generator profile's seed")
		seconds = fl.Float64("seconds", 30, "measured seconds of one pass")
		traced  = fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		out     = fl.String("out", ".bench_build", "directory for scratch files, traces and results")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	endToEnd, perLayer, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	runDir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	o := &runOpts{workload: *name, seed: *seed, seconds: *seconds}
	passOpts := func(tag string) *runOpts {
		po := *o
		po.scratch = filepath.Join(runDir, tag)
		return &po
	}

	prov := provenance(o, *traced)
	var (
		res      *passResult
		defs     []metricDef
		values   map[string]float64
		problems []string
	)
	if *traced == 0 {
		r, err := def.pass(passOpts("untraced"), nil, setupRepeats)
		if err != nil {
			return err
		}
		res, defs, values, problems = r, endToEnd, r.e2e, r.problems
	} else {
		u, err := def.pass(passOpts("untraced"), nil, 1)
		if err != nil {
			return err
		}
		tr := newTracer(64, 200000)
		t, err := def.pass(passOpts("traced"), tr, 1)
		if err != nil {
			return err
		}
		if u.det != t.det {
			t.problem("deterministic counts differ between the traced and untraced passes:\n untraced %s\n traced   %s", u.det, t.det)
		}
		t.layer["bench.trace_overhead_frac"] = u.rate/t.rate - 1
		// End-to-end figures listed as per-layer metrics (the p99s, whose
		// spread is too wide to bound) come from the untraced pass.
		for _, d := range perLayer {
			if v, ok := u.e2e[d.Name]; ok {
				t.layer[d.Name] = v
			}
		}
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.WriteFile(path); err != nil {
			return err
		}
		t.attempted += u.attempted
		t.failed += u.failed
		res, defs, values = t, perLayer, t.layer
		problems = append(u.problems, t.problems...)
	}

	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			if *traced == 0 {
				return fmt.Errorf("workload %s did not measure %s", o.workload, d.Name)
			}
			v = 0 // a layer this workload does not run
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	kinds := make([]string, 0, len(res.samples))
	for k := range res.samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(stdout, "samples %s %d\n", k, res.samples[k])
	}
	for _, p := range res.profiles {
		fmt.Fprintln(stdout, p)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", d.Name, metrics[d.Name]["value"], d.Unit)
	}
	result := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	}
	record := map[string]any{"provenance": prov, "samples": res.samples, "problems": problems, "result": result}
	if err := writeJSON(filepath.Join(*out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, *traced)), record); err != nil {
		return err
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "provenance %s\n", pj)
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// provenance describes the host and the inputs of a run. Results from
// different hosts are not comparable.
func provenance(o *runOpts, traced int) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source_sha": sourceDigest("."),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      traced,
		"sizes":      sizes(o.workload),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// sizes reports the scales and rates a workload runs at.
func sizes(name string) map[string]any {
	switch name {
	case "sim-paper", "sim-banded":
		s := simPaper()
		if name == "sim-banded" {
			s = simBanded()
		}
		return map[string]any{"profile": s.profile, "scale": s.scale}
	}
	s := smrdJournaled()
	return map[string]any{"profile": "usr_0", "volumes": smrdVolumes, "scale": s.scale,
		"open_rate_ops_per_s": s.openRate, "window": s.window, "closed_loop_sizing_ops_per_s": s.satGuess,
		"cycles": smrdCycles, "closed_loop_gomaxprocs": closedProcs,
		"replicated_scale": replSpec.scale, "replicated_ops_per_volume": replOps}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories), identifying the code measured when no commit is
// known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}
