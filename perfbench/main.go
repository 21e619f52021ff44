// Command perfbench is the repository benchmark. It drives the membership
// system from outside, through the exported functions of each layer, and
// edits no package. One invocation runs one workload for a fixed time and
// prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, taken from spans the
// benchmark records around its calls into each layer. See README.md for the
// workloads, the metrics and the layer map. Build and run it with run.sh
// from the root of a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// nproc is the number of busy threads the benchmark allows itself: the
// sharded engine's worker pool, the figure sweeps and the markov kernels
// all size themselves from GOMAXPROCS.
var nproc = runtime.GOMAXPROCS(0)

// endToEnd lists the end-to-end metrics every untraced run reports, in the
// order of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"heap_peak_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports, in the
// order of BENCHMARK.json. A layer that a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"protocol.initiate_ns", "ns"},
	{"protocol.receive_ns", "ns"},
	{"protocol.msgs_per_tick", "msg/tick"},
	{"protocol.dup_frac", "frac"},
	{"protocol.selfloop_frac", "frac"},
	{"protocol.reply_frac", "frac"},
	{"protocol.initiations", "count"},
	{"protocol.msgs", "count"},
	{"protocol.dups", "count"},
	{"protocol.selfloops", "count"},
	{"protocol.receives", "count"},
	{"protocol.replies", "count"},
	{"driver.route_ns", "ns"},
	{"driver.delivered_frac", "frac"},
	{"driver.delayed_frac", "frac"},
	{"driver.dead_letter_frac", "frac"},
	{"driver.pending_p50", "count"},
	{"driver.sends", "count"},
	{"driver.deliveries", "count"},
	{"driver.delayed", "count"},
	{"driver.dead_letters", "count"},
	{"driver.losses", "count"},
	{"faults.decide_ns", "ns"},
	{"runtime.tick_ns_per_node", "ns"},
	{"runtime.self_ns_per_node", "ns"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.drain_ms", "ms"},
	{"runtime.views_ms", "ms"},
	{"runtime.add_node_us", "us"},
	{"runtime.remove_node_us", "us"},
	{"mgmt.local.leave_ms", "ms"},
	{"mgmt.local.join_us", "us"},
	{"mgmt.local.metrics_us", "us"},
	{"mgmt.http_overhead_us", "us"},
	{"experiments.fig6_3_s", "s"},
	{"experiments.fig6_4_s", "s"},
	{"experiments.cor6_14_s", "s"},
	{"experiments.fig6_1_s", "s"},
	{"degreemc.solve_ms", "ms"},
	{"degreemc.outer_iters", "count"},
	{"markov.stationary_ms", "ms"},
	{"markov.inner_iters", "count"},
	{"engine.step_ns", "ns"},
	{"engine.allocs_per_step", "count"},
	{"graph.from_views_ms", "ms"},
	{"metrics.degrees_ms", "ms"},
	{"go.gc_cpu_frac", "frac"},
	{"go.gc_pauses", "count"},
	{"trace.overhead_frac", "frac"},
}

type metricDef struct {
	name, unit string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"sf-steady-100k":   runSFSteady,
	"daemon-churn-10k": runDaemon,
	"figures":          runFigures,
}

// run is the state of one benchmark invocation: its inputs, the metrics it
// has measured, its correctness ledger and, when tracing, its spans.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	trace    *tracer // nil for untraced runs
	out      io.Writer

	values    map[string]float64
	attempted int
	failed    int
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sf-steady-100k, daemon-churn-10k or figures")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics, 0 reports end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		out:      stdout,
		values:   map[string]float64{},
	}
	if *trace == 1 {
		r.trace = newTracer()
	}
	printHost(stdout)
	var heap *heapWatch
	if r.trace == nil {
		heap = startHeapWatch()
	}
	gc0 := readGC()
	err := fn(r)
	gc1 := readGC()
	if heap != nil {
		peak := heap.stop()
		if err == nil {
			r.set("heap_peak_mb", peak)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.set("go.gc_cpu_frac", gc1.frac(gc0))
	r.set("go.gc_pauses", float64(gc1.pauses-gc0.pauses))

	defs := endToEnd
	if r.trace != nil {
		defs = perLayer
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := r.trace.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r.trace.printSummary(stdout)
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res, err := r.result(defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// set records a metric and prints it by name with its unit.
func (r *run) set(name string, v float64) {
	r.values[name] = v
	fmt.Fprintf(r.out, "metric %-28s %14.6g %s\n", name, v, unitOf(name))
}

// info prints a figure that is reported for reading, not gated by the
// benchmark's bounds.
func (r *run) info(name string, v float64, unit string) {
	fmt.Fprintf(r.out, "info   %-28s %14.6g %s\n", name, v, unit)
}

// gate records one correctness check: it counts as an attempted operation
// and, when it fails, as a failed one.
func (r *run) gate(name string, ok bool, detail string) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		status = "FAIL"
	}
	fmt.Fprintf(r.out, "gate   %-28s %s  %s\n", name, status, detail)
}

// ops records operations of the workload loop and how many of them failed.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return "?"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final JSON line. End-to-end metrics must all have
// been measured; per-layer metrics of layers the workload leaves idle read 0.
func (r *run) result(defs []metricDef) (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && r.trace == nil {
			return res, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	fmt.Fprintf(r.out, "info   %-28s %14.6g frac (%d of %d)\n", "ops_failed_frac", frac(r.failed, r.attempted), r.failed, r.attempted)
	return res, nil
}

// printHost prints the host block: CPU model, nproc, GOMAXPROCS and Go
// version.
func printHost(w io.Writer) {
	host := struct {
		CPU        string `json:"cpu"`
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		OS         string `json:"os"`
		Arch       string `json:"arch"`
	}{cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
	b, _ := json.Marshal(host) // a struct of strings and ints always marshals
	fmt.Fprintf(w, "host %s\n", b)
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

// heapWatch samples the size of the Go heap (bytes in heap objects, live
// or not yet swept) every millisecond on a background goroutine. The
// workload's heap peak is the 99th percentile of the samples: the size the
// heap stays under for all but 1% of the run. The maximum itself is the
// height of whichever GC sawtooth the run happened to catch worst, and
// varies between runs by a factor of two on the figures workload.
type heapWatch struct {
	sample []metrics.Sample
	sizes  []float64 // MiB, one per sample; owned by the sampler until stop
	quit   chan struct{}
	done   chan struct{}
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{
		sample: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		sizes:  make([]float64, 0, 1<<17),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.read()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) read() {
	metrics.Read(h.sample)
	if len(h.sizes) < cap(h.sizes) {
		h.sizes = append(h.sizes, float64(h.sample[0].Value.Uint64())/(1<<20))
	}
}

// stop ends sampling, waits for the sampler to exit and returns the 99th
// percentile of the heap size in MiB.
func (h *heapWatch) stop() float64 {
	close(h.quit)
	<-h.done
	h.read()
	sort.Float64s(h.sizes)
	return h.sizes[len(h.sizes)*99/100]
}

// gcStats is a reading of the Go runtime's GC counters.
type gcStats struct {
	gcCPU, totalCPU float64
	pauses          uint64
}

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var g gcStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range s[2].Value.Float64Histogram().Counts {
			g.pauses += c
		}
	}
	return g
}

// frac returns the share of CPU time spent in GC between two readings.
func (g gcStats) frac(before gcStats) float64 {
	total := g.totalCPU - before.totalCPU
	if total <= 0 {
		return 0
	}
	return (g.gcCPU - before.gcCPU) / total
}

// mallocs returns the cumulative count of heap allocations. It stops the
// world, so callers keep it off timed paths.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// latencies collects per-operation durations.
type latencies []time.Duration

// quantile returns the q-quantile by linear interpolation between order
// statistics, in milliseconds.
func (l latencies) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// total returns the summed duration.
func (l latencies) total() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
