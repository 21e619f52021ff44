package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sendforget/internal/experiments"
	"sendforget/internal/metrics"
	sfrt "sendforget/internal/runtime"
)

// sfCounts are the driver and protocol counts of a short sf-steady run and
// of a replay from its final views.
type sfCounts struct {
	traffic  metrics.Traffic
	counters sfrt.NodeCounters
	replay   replayCounts
	routed   metrics.Traffic
}

func sfCountsAt(t *testing.T, seed int64, workers int) sfCounts {
	t.Helper()
	// The set-up's warm-up length depends on when allocations stop, which
	// varies with the worker count; a fixed round count does not.
	sub, err := newSFCluster(seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := randomizeOverlay(sub, sfN, sfInitDegree, seed); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		sub.TickRound()
	}
	rp, err := newReplay(sub.Views(), sfShard, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rp.round(nil, i)
	}
	return sfCounts{sub.Traffic(), sub.Counters(), rp.c, rp.router.Traffic()}
}

// TestSFCountsDeterministic checks that the sf-steady counts depend on the
// seed alone: the same for two runs, the same for one worker and for
// several (the sharded engine's promise), and different for another seed.
func TestSFCountsDeterministic(t *testing.T) {
	a := sfCountsAt(t, 7, nproc)
	if a.replay.msgs == 0 || a.traffic.Sends == 0 {
		t.Fatalf("no traffic: %+v", a)
	}
	if b := sfCountsAt(t, 7, nproc); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ:\n%+v\n%+v", a, b)
	}
	for _, w := range []int{1, 4} {
		if b := sfCountsAt(t, 7, w); !reflect.DeepEqual(a, b) {
			t.Errorf("workers=%d differs from workers=%d:\n%+v\n%+v", w, nproc, b, a)
		}
	}
	if c := sfCountsAt(t, 8, nproc); reflect.DeepEqual(a.traffic, c.traffic) || reflect.DeepEqual(a.replay, c.replay) {
		t.Errorf("seeds 7 and 8 give the same counts: %+v", a)
	}
}

// daemonCounts runs the daemon workload's traced phase and returns its
// count metrics.
func daemonCounts(t *testing.T, seed int64) map[string]float64 {
	t.Helper()
	d, err := newDaemon(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.close(); err != nil {
			t.Error(err)
		}
	}()
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	r := &run{seed: seed, window: 20 * time.Millisecond, trace: newTracer(), out: io.Discard,
		values: map[string]float64{}}
	op := 0
	traceDaemon(r, d, &op)
	d.gates(r)
	if r.failed != 0 {
		t.Fatalf("%d of %d daemon operations failed", r.failed, r.attempted)
	}
	counts := map[string]float64{}
	for name, v := range r.values {
		if strings.HasPrefix(name, "driver.") && !strings.HasSuffix(name, "_ns") ||
			strings.HasPrefix(name, "protocol.") && !strings.HasSuffix(name, "_ns") {
			counts[name] = v
		}
	}
	return counts
}

// TestDaemonCountsDeterministic checks that the daemon workload's traced
// counts, behind its driver and protocol ratios, repeat for a seed and
// change with it.
func TestDaemonCountsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three daemons")
	}
	a := daemonCounts(t, 3)
	if a["driver.delayed"] == 0 || a["driver.dead_letters"] == 0 {
		t.Fatalf("the daemon phase parked or dead-lettered nothing: %v", a)
	}
	if b := daemonCounts(t, 3); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs differ:\n%v\n%v", a, b)
	}
	if c := daemonCounts(t, 4); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 3 and 4 give the same counts: %v", a)
	}
}

// TestScrapeCheckCatchesMismatch checks that the daemon's /metrics gate
// accepts a true scrape and rejects one whose counter is off by one.
func TestScrapeCheckCatchesMismatch(t *testing.T) {
	d, err := newDaemon(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	body, err := d.do("GET", "/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.checkScrape(body); err != nil {
		t.Fatalf("true scrape rejected: %v", err)
	}
	sends := d.local.Traffic().Sends
	bad := strings.Replace(string(body),
		"sendforget_traffic_sends_total "+strconv.Itoa(sends),
		"sendforget_traffic_sends_total "+strconv.Itoa(sends+1), 1)
	if bad == string(body) {
		t.Fatal("sends counter not found in the scrape")
	}
	if err := d.checkScrape([]byte(bad)); err == nil {
		t.Error("scrape with a wrong sends counter accepted")
	}
}

// TestFig63CheckCatchesMismatch checks the fig6.3 gate on hand-made
// reports: the EXPERIMENTS.md values pass, a changed digit fails.
func TestFig63CheckCatchesMismatch(t *testing.T) {
	report := func(in01 string) *experiments.Report {
		return &experiments.Report{Tables: []experiments.Table{{
			Title:   "Moments per loss rate",
			Columns: []string{"loss", "indegree (MC)"},
			Rows: [][]string{
				{"0.00", "28.0 ± 3.6"}, {"0.01", in01}, {"0.05", "24.3 ± 4.7"}, {"0.10", "22.8 ± 5.0"},
			},
		}}}
	}
	if err := checkFig63(report("26.8 ± 4.0")); err != nil {
		t.Errorf("EXPERIMENTS.md values rejected: %v", err)
	}
	if err := checkFig63(report("26.9 ± 4.0")); err == nil {
		t.Error("changed in-degree accepted")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
	check := func(kind string, spec []struct{ Name, Unit string }, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
