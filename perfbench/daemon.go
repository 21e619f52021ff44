package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/mgmt"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/rng"
	sfrt "sendforget/internal/runtime"
)

// The daemon-churn-10k workload has the shape of `sfnode -local -mgmt`: the
// management server over a sharded push-pull cluster with loss and a
// one-round delivery jitter, driven by one client on one keep-alive
// connection.
const (
	dmN      = 10000
	dmS      = 16
	dmLoss   = 0.01
	dmJitter = 1
	// dmSeeds is the size of a rejoining node's seed view: the cluster's
	// bootstrap out-degree.
	dmSeeds = 8
	// dmSetups is how many times a run starts the daemon; setup_s is the
	// median.
	dmSetups = 7
	// dmWarm is the number of rounds ticked during set-up.
	dmWarm = 20
	// dmTraceRounds is the fixed number of scripted rounds behind the traced
	// run's counts.
	dmTraceRounds = 300
	// dmDrainProbes is how many times the traced run times a delay-queue
	// drain.
	dmDrainProbes = 10
)

// daemon is a running management server over its cluster, plus the client
// that drives it.
type daemon struct {
	sub    sfrt.Substrate
	local  *mgmt.Local
	srv    *mgmt.Server
	tr     *http.Transport
	client *http.Client
	base   string

	ids  *rng.RNG
	left int // the node that left in the previous round; it rejoins next
	body []byte
}

func newDaemon(seed int64) (*daemon, error) {
	sub, err := sfrt.New(sfrt.Config{
		Engine:  sfrt.EngineSharded,
		N:       dmN,
		NewCore: func() (protocol.StepCore, error) { return pushpull.NewCore(dmS) },
		Loss:    dmLoss,
		Seed:    seed,
		Workers: nproc,
	})
	if err != nil {
		return nil, err
	}
	if err := sub.Conditions().SetDelay(faults.Delay{Jitter: dmJitter}); err != nil {
		sub.Close()
		return nil, err
	}
	local, err := mgmt.NewLocal(mgmt.LocalOptions{
		Sub: sub, Protocol: "pushpull", Engine: string(sfrt.EngineSharded),
		N: dmN, S: dmS, Seed: seed, Period: time.Second, Loss: dmLoss,
	})
	if err != nil {
		sub.Close()
		return nil, err
	}
	srv, err := mgmt.New(mgmt.Options{Addr: "127.0.0.1:0", Backend: local})
	if err != nil {
		sub.Close()
		return nil, err
	}
	if err := srv.Start(); err != nil {
		sub.Close()
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &daemon{
		sub: sub, local: local, srv: srv, tr: tr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:   "http://" + srv.Addr(),
		ids:    rng.New(rng.DeriveSeed(seed, 4)),
		left:   -1,
	}, nil
}

// close shuts the server down, waits for it and releases the cluster.
func (d *daemon) close() error {
	d.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.sub.Close()
	return err
}

// start warms the daemon up: a health check over the client's connection,
// the first departure, then dmWarm rounds.
func (d *daemon) start() error {
	if _, err := d.do("GET", "/health", nil); err != nil {
		return err
	}
	leave, _ := d.pick()
	if _, err := d.do("POST", "/leave", d.leaveBody(leave)); err != nil {
		return err
	}
	d.left = leave
	for i := 0; i < dmWarm; i++ {
		d.local.Tick()
	}
	return nil
}

// do sends one request and returns the response body; a transport error or
// a non-2xx status is an error.
func (d *daemon) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// pick draws this round's departing node and the seeds of the node that
// rejoins. Every node but the one that left last round is live, so the
// departing node is any other node, and the seeds are distinct live nodes.
func (d *daemon) pick() (leave int, seeds []int) {
	for {
		leave = d.ids.Intn(dmN)
		if leave != d.left {
			break
		}
	}
	seeds = make([]int, 0, dmSeeds)
	for len(seeds) < dmSeeds {
		s := d.ids.Intn(dmN)
		ok := s != leave && s != d.left
		for _, t := range seeds {
			ok = ok && s != t
		}
		if ok {
			seeds = append(seeds, s)
		}
	}
	return leave, seeds
}

func (d *daemon) leaveBody(id int) []byte {
	b := append(d.body[:0], `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	d.body = append(b, '}')
	return d.body
}

func (d *daemon) joinBody(id int, seeds []int) []byte {
	b := append(d.body[:0], `{"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"seeds":[`...)
	for i, s := range seeds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	d.body = append(b, "]}"...)
	return d.body
}

// roundResult is one scripted round as the client saw it.
type roundResult struct {
	tick, scrape, leave, join time.Duration
	failed                    int
	err                       error
}

func (rr roundResult) total() time.Duration { return rr.tick + rr.scrape + rr.leave + rr.join }

// round runs the client's script once: tick, scrape /metrics, one node
// leaves, the node that left last round rejoins. The scrape is checked
// against the backend after the timed part. A nil tracer records nothing.
func (d *daemon) round(t *tracer, op int) roundResult {
	var rr roundResult
	fail := func(err error) {
		rr.failed++
		if rr.err == nil {
			rr.err = err
		}
	}
	root := t.begin("daemon.round", 0, op)

	sp := t.begin("mgmt.local.tick", root, op)
	t0 := time.Now()
	d.local.Tick()
	rr.tick = time.Since(t0)
	t.end(sp, 1)

	sp = t.begin("client.scrape", root, op)
	t0 = time.Now()
	body, err := d.do("GET", "/metrics", nil)
	rr.scrape = time.Since(t0)
	t.end(sp, 1)
	if err != nil {
		fail(err)
	} else if err := d.checkScrape(body); err != nil {
		fail(err)
	}

	leave, seeds := d.pick()
	sp = t.begin("client.leave", root, op)
	t0 = time.Now()
	_, err = d.do("POST", "/leave", d.leaveBody(leave))
	rr.leave = time.Since(t0)
	t.end(sp, 1)
	if err != nil {
		fail(err)
	}

	sp = t.begin("client.join", root, op)
	t0 = time.Now()
	_, err = d.do("POST", "/join", d.joinBody(d.left, seeds))
	rr.join = time.Since(t0)
	t.end(sp, 1)
	if err != nil {
		fail(err)
	}
	d.left = leave
	t.end(root, 4)
	return rr
}

// checkScrape compares a /metrics body with the backend's own ledgers,
// read while the client holds the daemon quiescent.
func (d *daemon) checkScrape(body []byte) error {
	got := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return fmt.Errorf("metrics: malformed line %q", line)
		}
		if v, err := strconv.Atoi(val); err == nil {
			got[name] = v
		}
	}
	tr := d.local.Traffic()
	c := d.local.Counters()
	want := map[string]int{
		"sendforget_traffic_sends_total":        tr.Sends,
		"sendforget_traffic_losses_total":       tr.Losses,
		"sendforget_traffic_deliveries_total":   tr.Deliveries,
		"sendforget_traffic_dead_letters_total": tr.DeadLetters,
		"sendforget_traffic_delayed_total":      tr.Delayed,
		"sendforget_node_ticks_total":           c.Ticks,
		"sendforget_node_sends_total":           c.Sends,
		"sendforget_node_receives_total":        c.Receives,
		"sendforget_node_replies_total":         c.Replies,
		"sendforget_node_duplications_total":    c.Duplications,
		"sendforget_node_selfloops_total":       c.SelfLoops,
		"sendforget_rounds_total":               int(d.local.Rounds()),
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("metrics: %s missing", name)
		}
		if g != w {
			return fmt.Errorf("metrics: %s = %d, backend has %d", name, g, w)
		}
	}
	return nil
}

// gates drains the daemon through its backend and checks the invariants and
// the traffic identity.
func (d *daemon) gates(r *run) {
	err := d.local.Drain()
	r.gate("drain_invariants", err == nil, fmt.Sprint(err))
	tr := d.local.Traffic()
	r.gate("traffic_conserved", tr.Conserved(), fmt.Sprintf("sends=%d losses=%d deliveries=%d dead=%d delayed=%d", tr.Sends, tr.Losses, tr.Deliveries, tr.DeadLetters, tr.Delayed))
}

// script runs scripted rounds for the window and returns them.
func (d *daemon) script(r *run, t *tracer, op *int, window time.Duration) []roundResult {
	out := make([]roundResult, 0, 1<<14)
	start := time.Now()
	for time.Since(start) < window {
		*op++
		rr := d.round(t, *op)
		if rr.err != nil {
			fmt.Fprintf(r.out, "error  round %d: %v\n", *op, rr.err)
		}
		r.ops(4, rr.failed)
		out = append(out, rr)
	}
	return out
}

func runDaemon(r *run) error {
	setups := dmSetups
	if r.trace != nil {
		setups = 1
	}
	var d *daemon
	var times []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if d, err = newDaemon(r.seed); err != nil {
			return err
		}
		if err := d.start(); err != nil {
			d.close()
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer d.close()
	op := 0
	if r.trace != nil {
		traceDaemon(r, d, &op)
		d.gates(r)
		return nil
	}
	r.set("setup_s", median(times))
	c0 := d.local.Counters()
	start := time.Now()
	rounds := d.script(r, nil, &op, r.window)
	elapsed := time.Since(start)
	c1 := d.local.Counters()
	var whole, tick, scrape, churn latencies
	for _, rr := range rounds {
		whole = append(whole, rr.total())
		tick = append(tick, rr.tick)
		scrape = append(scrape, rr.scrape)
		churn = append(churn, rr.leave, rr.join)
	}
	r.set("op_ms_p50", whole.quantile(0.5))
	r.info("rounds", float64(len(rounds)), "rounds")
	r.info("round_ms_p50", tick.quantile(0.5), "ms")
	r.info("round_ms_p99", tick.quantile(0.99), "ms")
	r.info("scrape_ms_p50", scrape.quantile(0.5), "ms")
	r.info("scrape_ms_p99", scrape.quantile(0.99), "ms")
	r.info("churn_ms_p50", churn.quantile(0.5), "ms")
	r.info("churn_ms_p99", churn.quantile(0.99), "ms")
	r.info("node_ticks_per_s", float64(c1.Ticks-c0.Ticks)/elapsed.Seconds(), "1/s")
	d.gates(r)
	return nil
}

// traceDaemon is the traced run. A fixed number of scripted rounds gives
// the counts; within them, every tenth round calls the runtime directly
// instead of the HTTP churn, and every tenth round (offset by five) calls
// the Local backend directly, so the backend and runtime costs can be
// separated from the client's latency without changing the rounds' effect.
// Then it times delay-queue drains and measures the tracing overhead.
func traceDaemon(r *run, d *daemon, op *int) {
	t := r.trace
	tr0, c0 := d.local.Traffic(), d.local.Counters()
	var pending []float64
	var allocs uint64
	var scrapeC, leaveC, joinC latencies
	var metricsB, leaveB, joinB, removeR, addR, viewsR latencies
	for rd := 0; rd < dmTraceRounds; rd++ {
		*op++
		root := t.begin("daemon.round", 0, *op)
		pending = append(pending, float64(d.local.Pending()))

		m0 := mallocs()
		sp := t.begin("mgmt.local.tick", root, *op)
		d.local.Tick()
		t.end(sp, 1)
		allocs += mallocs() - m0

		sp = t.begin("client.scrape", root, *op)
		body, err := d.do("GET", "/metrics", nil)
		t.end(sp, 1)
		scrapeC = append(scrapeC, t.durationOf(sp))
		failed := 0
		if err == nil {
			err = d.checkScrape(body)
		}
		if err != nil {
			failed++
			fmt.Fprintf(r.out, "error  round %d: %v\n", *op, err)
		}

		// The backend calls the /metrics handler makes.
		sp = t.begin("mgmt.local.metrics", root, *op)
		d.local.Traffic()
		d.local.Counters()
		d.local.FaultCounters()
		d.local.Rounds()
		d.local.Pending()
		t.end(sp, 5)
		metricsB = append(metricsB, t.durationOf(sp))

		leave, seeds := d.pick()
		switch rd % 10 {
		case 3:
			sp = t.begin("runtime.views", root, *op)
			d.sub.Views()
			t.end(sp, 1)
			viewsR = append(viewsR, t.durationOf(sp))
			sp = t.begin("runtime.remove_node", root, *op)
			d.sub.RemoveNode(peer.ID(leave))
			t.end(sp, 1)
			removeR = append(removeR, t.durationOf(sp))
			ps := make([]peer.ID, len(seeds))
			for i, s := range seeds {
				ps[i] = peer.ID(s)
			}
			sp = t.begin("runtime.add_node", root, *op)
			err = d.sub.AddNode(peer.ID(d.left), ps, false)
			t.end(sp, 1)
			addR = append(addR, t.durationOf(sp))
		case 8:
			sp = t.begin("mgmt.local.leave", root, *op)
			err = d.local.Leave(leave)
			t.end(sp, 1)
			leaveB = append(leaveB, t.durationOf(sp))
			if err == nil {
				id := d.left
				sp = t.begin("mgmt.local.join", root, *op)
				err = d.local.Join(mgmt.JoinRequest{ID: &id, Seeds: seeds})
				t.end(sp, 1)
				joinB = append(joinB, t.durationOf(sp))
			}
		default:
			sp = t.begin("client.leave", root, *op)
			_, err = d.do("POST", "/leave", d.leaveBody(leave))
			t.end(sp, 1)
			leaveC = append(leaveC, t.durationOf(sp))
			if err == nil {
				sp = t.begin("client.join", root, *op)
				_, err = d.do("POST", "/join", d.joinBody(d.left, seeds))
				t.end(sp, 1)
				joinC = append(joinC, t.durationOf(sp))
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(r.out, "error  round %d: %v\n", *op, err)
		}
		d.left = leave
		t.end(root, 4)
		r.ops(4, failed)
	}
	tr1, c1 := d.local.Traffic(), d.local.Counters()

	setProtocolCounts(r, replayCounts{
		initiations: c1.Ticks - c0.Ticks,
		msgs:        c1.Sends - c0.Sends,
		dups:        c1.Duplications - c0.Duplications,
		selfloops:   c1.SelfLoops - c0.SelfLoops,
		receives:    c1.Receives - c0.Receives,
		replies:     c1.Replies - c0.Replies,
	})
	tr1.Sends -= tr0.Sends
	tr1.Losses -= tr0.Losses
	tr1.Deliveries -= tr0.Deliveries
	tr1.DeadLetters -= tr0.DeadLetters
	tr1.Delayed -= tr0.Delayed
	setDriverCounts(r, tr1)
	r.set("driver.pending_p50", median(pending))
	r.set("runtime.allocs_per_round", float64(allocs)/dmTraceRounds)
	r.set("runtime.views_ms", viewsR.quantile(0.5))
	r.set("runtime.remove_node_us", removeR.quantile(0.5)*1e3)
	r.set("runtime.add_node_us", addR.quantile(0.5)*1e3)
	r.set("mgmt.local.leave_ms", leaveB.quantile(0.5))
	r.set("mgmt.local.join_us", joinB.quantile(0.5)*1e3)
	r.set("mgmt.local.metrics_us", metricsB.quantile(0.5)*1e3)
	overhead := (scrapeC.quantile(0.5) - metricsB.quantile(0.5)) +
		(leaveC.quantile(0.5) - leaveB.quantile(0.5)) +
		(joinC.quantile(0.5) - joinB.quantile(0.5))
	r.set("mgmt.http_overhead_us", overhead/3*1e3)

	var drains latencies
	for i := 0; i < dmDrainProbes; i++ {
		*op++
		d.local.Tick()
		sp := t.begin("runtime.drain", 0, *op)
		n := d.sub.Pending()
		d.sub.DrainDelayed()
		t.end(sp, n)
		drains = append(drains, t.durationOf(sp))
	}
	r.set("runtime.drain_ms", drains.quantile(0.5))

	plain := d.script(r, nil, op, r.window/2)
	traced := d.script(r, t, op, r.window/2)
	var p, q latencies
	for _, rr := range plain {
		p = append(p, rr.total())
	}
	for _, rr := range traced {
		q = append(q, rr.total())
	}
	r.set("trace.overhead_frac", q.quantile(0.5)/p.quantile(0.5)-1)
}
