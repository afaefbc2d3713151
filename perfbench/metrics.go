package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// phase accumulates one measured phase of a run: simulated (or, for
// the farm's warm phase, delivered) instructions, host time, and the
// latency of each operation.
type phase struct {
	instr float64
	dur   time.Duration
	cpu   time.Duration
	lat   []float64 // ms per operation
}

func (p *phase) add(instr uint64, d time.Duration) {
	p.instr += float64(instr)
	p.dur += d
	p.lat = append(p.lat, float64(d)/1e6)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rate is millions of instructions per host second.
func (p phase) rate() float64 {
	if p.dur <= 0 {
		return 0
	}
	return p.instr / 1e6 / p.dur.Seconds()
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	p1, p2 phase
	// names label the two phases in the run record.
	p1Name, p2Name string

	attempted, failed int
	// simInstr counts the instructions the run simulated, the base of
	// the per-kinstr runtime counters.
	simInstr float64
	// digest hashes every simulated statistic of the run's first pass.
	digest string
	// layer carries workload-computed per-layer values (modelled work,
	// set-up splits, farm latencies); record carries extra run facts.
	layer  map[string]float64
	record map[string]any
}

func newOutcome(p1, p2 string) *outcome {
	return &outcome{p1Name: p1, p2Name: p2, layer: map[string]float64{}, record: map[string]any{}}
}

// phaseFacts is one phase's entry in the run record.
type phaseFacts struct {
	Name       string  `json:"name"`
	Ops        int     `json:"ops"`
	Seconds    float64 `json:"seconds"`
	MInstr     float64 `json:"minstr"`
	CPUSeconds float64 `json:"cpu_seconds"`
	P50Ms      float64 `json:"p50_ms"`
	// TailQ is the highest percentile with at least ten samples beyond
	// it (0 when there are too few samples for any), TailMs its value.
	TailQ  float64 `json:"tail_q"`
	TailMs float64 `json:"tail_ms"`
}

func (o *outcome) phases() []phaseFacts {
	var out []phaseFacts
	for _, p := range []struct {
		name string
		ph   phase
	}{{o.p1Name, o.p1}, {o.p2Name, o.p2}} {
		f := phaseFacts{
			Name: p.name, Ops: len(p.ph.lat), Seconds: p.ph.dur.Seconds(), MInstr: p.ph.instr / 1e6, CPUSeconds: p.ph.cpu.Seconds(),
			P50Ms: quantile(p.ph.lat, 0.5), TailQ: tailLevel(len(p.ph.lat)),
		}
		if f.TailQ > 0 {
			f.TailMs = quantile(p.ph.lat, f.TailQ)
		}
		out = append(out, f)
	}
	return out
}

// setupTimes splits the run's own set-up by layer, in milliseconds.
type setupTimes struct {
	programMs, predecodeMs, traceMs, storeOpenMs float64
}

// runRecord is the line printed before the result: everything needed to
// interpret the numbers, so results from different hosts or seeds are
// never compared silently.
type runRecord struct {
	Workload           string         `json:"workload"`
	Seed               uint64         `json:"seed"`
	Seconds            float64        `json:"seconds"`
	Traced             bool           `json:"traced"`
	Tiny               bool           `json:"tiny,omitempty"`
	Host               host           `json:"host"`
	SetupS             float64        `json:"setup_s"`
	SetupChildrenS     []float64      `json:"setup_children_s,omitempty"`
	Attempted          int            `json:"attempted"`
	Failed             int            `json:"failed"`
	Phases             []phaseFacts   `json:"phases"`
	Digest             string         `json:"digest"`
	DigestChecked      bool           `json:"digest_checked"`
	Top3               []string       `json:"layer_top3,omitempty"`
	TracingOverheadPct float64        `json:"tracing_overhead_pct,omitempty"`
	Extra              map[string]any `json:"extra,omitempty"`
}

// host is the set of facts that make two runs comparable.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostFacts() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel is the highest of the usual reporting percentiles that
// leaves at least ten samples beyond it; 0 if none does.
func tailLevel(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75, 50} {
		rank := (pct*n + 99) / 100 // nearest rank, 1-based
		if n-rank >= 10 {
			return float64(pct) / 100
		}
	}
	return 0
}

// e2eMetric is one end-to-end metric: every workload reports every one.
type e2eMetric struct {
	name, unit string
	value      func(o *outcome, setups []float64) float64
}

// endToEndMetrics are printed by untraced runs. Each workload has two
// measured phases (README.md names them); the phase metrics are that
// phase's simulated instructions per host second and its median
// operation latency.
var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", func(_ *outcome, s []float64) float64 { return median(s) }},
	{"phase1_minstr_per_s", "Minstr/s", func(o *outcome, _ []float64) float64 { return o.p1.rate() }},
	{"phase2_minstr_per_s", "Minstr/s", func(o *outcome, _ []float64) float64 { return o.p2.rate() }},
	{"phase1_p50_ms", "ms", func(o *outcome, _ []float64) float64 { return median(o.p1.lat) }},
	{"phase2_p50_ms", "ms", func(o *outcome, _ []float64) float64 { return median(o.p2.lat) }},
	{"peak_rss_mb", "MB", func(*outcome, []float64) float64 { return peakRSSMB() }},
}
