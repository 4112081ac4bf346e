// Package bench holds what the end-to-end and traced benchmark runners
// share: argument parsing, the metric tables BENCHMARK.json mirrors,
// percentiles, the peak-heap probe, the result printer, and the
// workload set-up and load generator. It calls the program only through
// public functions and never through a simulator stage, so a change to
// a stage signature cannot stop the end-to-end runner from compiling.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Workloads are the benchmark's named workloads, in BENCHMARK.json order.
var Workloads = []string{"node-busy", "fleet-idle-io"}

// Args are the command-line arguments every runner takes.
type Args struct {
	Workload string
	Seed     uint64
	Seconds  float64
	// SpansOut, when set, is where the traced run writes its spans.
	SpansOut string
}

// ParseArgs parses --workload, --seed, --seconds and --spans. Which run
// is traced is fixed by the binary, not by a flag.
func ParseArgs(name string, argv []string) (Args, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var a Args
	fs.StringVar(&a.Workload, "workload", "", "workload: "+strings.Join(Workloads, ", "))
	fs.Uint64Var(&a.Seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&a.Seconds, "seconds", 10, "host seconds the timed phase measures")
	fs.StringVar(&a.SpansOut, "spans", "", "file the traced run writes its spans to as JSON lines")
	if err := fs.Parse(argv); err != nil {
		return a, err
	}
	if a.Seconds <= 0 {
		return a, fmt.Errorf("--seconds must be positive")
	}
	for _, w := range Workloads {
		if w == a.Workload {
			return a, nil
		}
	}
	return a, fmt.Errorf("unknown --workload %q (want one of %s)", a.Workload, strings.Join(Workloads, ", "))
}

// Def names one metric with its unit and direction, as BENCHMARK.json
// lists it.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd is what the untraced run prints on every workload. Each
// simulated node-second yields one estimated counter sample (the sampler
// runs at 1 Hz), so samples_per_s is simulated node-seconds per host
// second.
//
// On a shared host the speed of a run flips between states up to 1.5x
// apart every few seconds, so a median or mean lands wherever the mix
// of states fell and differs between runs by up to a quarter. The
// gated numbers are therefore the ones the slower state sets, which
// repeat: the p90 latency, and the throughput nine windows in ten
// reach. The report lines still state each median.
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"samples_per_s", "samples/s", "higher"},
	{"latency_ms_p90", "ms", "lower"},
	{"est_err_pct", "%", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// SustainedQ is the quantile of the window rates samples_per_s reports:
// the rate nine windows in ten reach.
const SustainedQ = 0.1

// WindowRates splits consecutive operations, each doing perOp units of
// work in the host milliseconds tookMs lists, into windows of perWindow
// operations and returns each whole window's work per host second.
func WindowRates(perOp float64, tookMs Dist, perWindow int) Dist {
	var rates Dist
	for lo := 0; lo+perWindow <= len(tookMs); lo += perWindow {
		ms := 0.0
		for _, v := range tookMs[lo : lo+perWindow] {
			ms += v
		}
		rates = append(rates, perOp*float64(perWindow)/(ms/1e3))
	}
	return rates
}

// StageNames are the eight stages of one simulated slice, in data-flow
// order, named <package>.<call>.
var StageNames = []string{
	"workload.demand", "osmodel.step", "cpu.step", "mem.step",
	"chipset.step", "power.truth", "daq.acquire", "perfctr.sampler",
}

// PerLayer is what the traced run prints on every workload. A layer a
// workload does not exercise reads 0 there.
var PerLayer = func() []Def {
	var d []Def
	for _, s := range StageNames {
		d = append(d, Def{s + "_ns", "ns", "lower"})
	}
	return append(d,
		Def{"cpu.halted_share", "fraction", "higher"},
		Def{"mem.bus_util_mean", "fraction", "lower"},
		Def{"osmodel.interrupts_per_s", "count/s", "lower"},
		Def{"machine.allocs_per_sim_s", "count", "lower"},
		Def{"machine.bytes_per_sim_s", "B", "lower"},
		Def{"machine.layer_sum_ratio", "ratio", "higher"},
		Def{"machine.trace_overhead", "ratio", "lower"},
		Def{"align.merge_ms", "ms", "lower"},
		Def{"core.estimate_ns", "ns", "lower"},
		Def{"core.extract_ns", "ns", "lower"},
		Def{"core.train_ms", "ms", "lower"},
		Def{"cluster.run_ms_w1", "ms", "lower"},
		Def{"cluster.run_ms_wN", "ms", "lower"},
		Def{"cluster.speedup", "ratio", "higher"},
		Def{"cluster.node_step_max_over_mean", "ratio", "lower"},
		Def{"cluster.snapshot_ms", "ms", "lower"},
		Def{"perfctr.encode_ns", "ns", "lower"},
		Def{"perfctr.decode_ns", "ns", "lower"},
		Def{"serve.admission_ms_p99", "ms", "lower"},
		Def{"serve.queue_wait_ms_p99", "ms", "lower"},
		Def{"serve.service_ms_p99", "ms", "lower"},
		Def{"serve.e2e_server_ms_p99", "ms", "lower"},
		Def{"serve.queue_depth_max", "count", "lower"},
		Def{"serve.shed", "count", "lower"},
		Def{"serve.nonfinite", "count", "lower"},
		Def{"serve.gen_lag_ms_p99", "ms", "lower"},
		Def{"serve.ack_ms_p50", "ms", "lower"},
		Def{"serve.ack_ms_p99", "ms", "lower"},
		Def{"serve.visible_ms_p99", "ms", "lower"},
		Def{"serve.read_ms_p99", "ms", "lower"},
		Def{"serve.slo_samples_per_s", "samples/s", "higher"},
		Def{"serve.peak_samples_per_s", "samples/s", "higher"},
	)
}()

// LayerSumBound is how far the traced stage times may sum away from the
// untraced host time per slice before the layer-sum check fails: a
// stage timing that measures the wrong thing moves the ratio past it.
const LayerSumBound = 0.2

// Quantile returns the nearest-rank q-quantile of sorted values.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLevels are the percentiles TailQuantile chooses among.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// TailQuantile returns the highest of p50, p90, p99, p99.9 and p99.99
// that has at least ten of n samples beyond its nearest rank, or 0 when
// not even the median has.
func TailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailLevels {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// Dist is a sample of one timing, kept whole so the report can state its
// count and spread.
type Dist []float64

// Summary renders the count, median, tail and range of d (in d's unit).
func (d Dist) Summary() string {
	if len(d) == 0 {
		return "n=0"
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	out := fmt.Sprintf("n=%d p50=%.4g min=%.4g max=%.4g", len(s), Quantile(s, 0.5), s[0], s[len(s)-1])
	if q := TailQuantile(len(s)); q > 0.5 {
		out += fmt.Sprintf(" p%g=%.4g", q*100, Quantile(s, q))
	}
	return out
}

// Q returns d's nearest-rank q-quantile.
func (d Dist) Q(q float64) float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return Quantile(s, q)
}

// Median returns d's median.
func (d Dist) Median() float64 { return d.Q(0.5) }

// Mean returns d's arithmetic mean.
func (d Dist) Mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// Ms converts a duration to milliseconds.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// HeapPeak tracks the largest live heap seen at the observation points
// of a timed phase: the end of every episode, where the state the run
// holds is largest, outside the timing. Observing there, rather than
// whenever a GC happened to run, keeps the peak independent of GC
// timing and of where the deadline fell. The buffer the run records its
// call timings in is left out: its size follows the number of calls,
// that is the host's speed, not the program's heap.
type HeapPeak struct {
	peak  uint64
	calls *Dist
}

// StartHeapPeak collects garbage, so set-up leftovers do not count, and
// takes the first observation. calls is the timing buffer to leave out.
func StartHeapPeak(calls *Dist) *HeapPeak {
	h := &HeapPeak{calls: calls}
	h.Observe()
	return h
}

// Observe collects garbage and records the live heap.
func (h *HeapPeak) Observe() {
	runtime.GC()
	v := liveHeap()
	if own := uint64(cap(*h.calls)) * 8; v > own {
		v -= own
	}
	if v > h.peak {
		h.peak = v
	}
}

// StopMB observes once more, so the heap the phase left behind counts,
// and returns the peak in MB.
func (h *HeapPeak) StopMB() float64 {
	h.Observe()
	return float64(h.peak) / (1 << 20)
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// Report collects one run's metrics, operation counts and check
// outcomes, and prints them.
type Report struct {
	args      Args
	traced    bool
	defs      []Def
	mu        sync.Mutex
	values    map[string]float64
	spreads   map[string]string
	attempted int
	failed    int
	failures  []string
	notes     []string
}

// NewReport starts the report of a run printing defs; traced says
// whether the run is the traced per-layer one.
func NewReport(a Args, traced bool, defs []Def) *Report {
	return &Report{args: a, traced: traced, defs: defs, values: map[string]float64{}, spreads: map[string]string{}}
}

// Set records a metric; spread, when non-empty, describes the values it
// was taken from. Setting a name the report does not print is a bug.
func (r *Report) Set(name string, v float64, spread string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.defs {
		if d.Name == name {
			r.values[name] = v
			r.spreads[name] = spread
			return
		}
	}
	panic("bench: metric " + name + " is not in this run's table")
}

// Ops counts operations the workload attempted and how many failed.
func (r *Report) Ops(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d of %d operations failed", failed, attempted))
	}
}

// Check records one correctness check as an attempted operation that
// fails when ok is false.
func (r *Report) Check(name string, ok bool, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAIL"
		r.failures = append(r.failures, name+": "+detail)
	}
	r.notes = append(r.notes, fmt.Sprintf("check %s %s %s", name, status, detail))
}

// Note adds a free-form line to the printed report.
func (r *Report) Note(format string, a ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// Fail records a failure that stopped the workload before its checks.
func (r *Report) Fail(err error) {
	r.Check("run", false, err.Error())
}

// Correct reports whether every operation and check succeeded.
func (r *Report) Correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed == 0 && r.attempted > 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// Stamp describes the host and run a result came from, so records from
// different hosts are never compared.
type Stamp struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// Print writes the human-readable report, one "metric" line per metric,
// then the result object as the last line. A metric the run did not set
// is an error: every run prints its whole table.
func (r *Report) Print(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	stamp, err := json.Marshal(Stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Workload: r.args.Workload, Seed: r.args.Seed, Seconds: r.args.Seconds, Traced: r.traced,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stamp %s\n", stamp)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	res := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	var missing []string
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		fmt.Fprintf(w, "metric %s %.6g %s %s\n", d.Name, v, d.Unit, r.spreads[d.Name])
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted > 0 {
		fmt.Fprintf(w, "error_rate %.6g (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
