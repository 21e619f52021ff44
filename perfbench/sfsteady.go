package main

import (
	"fmt"
	"math"
	gort "runtime"
	"slices"
	"time"

	"sendforget/internal/degreemc"
	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/rng"
	sfrt "sendforget/internal/runtime"
	"sendforget/internal/view"
)

// The sf-steady-100k workload: the sharded engine runs S&F at the fig6.3
// parameters and the benchmark calls TickRound back to back.
const (
	sfN    = 100000
	sfS    = 40
	sfDL   = 18
	sfLoss = 0.01
	// sfInitDegree is the bootstrap out-degree: the stationary mean degree
	// at these parameters (26.8 by the degree MC), so the degree
	// distribution only has to relax its shape, not its mean.
	sfInitDegree = 26

	// sfSetups is how many times a run builds and warms the cluster; the
	// reported setup_s is the median.
	sfSetups = 5
	// sfSettle is the round after set-up at which measurement starts: by
	// then messages per initiation are within 0.5% of their stationary
	// value. The traced run snapshots the views for its replay at this
	// round, so the replayed state, and with it every per-layer count,
	// depends only on the seed.
	sfSettle = 400
	// sfReplayRounds is how many rounds the traced run replays.
	sfReplayRounds = 30
	// sfGateRounds is the least number of rounds before the in-degree gate:
	// the mean in-degree settles within 500 rounds of the set-up.
	sfGateRounds = 500
	// sfInTol bounds |mean in-degree - degree MC mean in-degree|. The
	// sharded engine runs synchronous rounds while the degree MC is the
	// paper's mean-field model of an asynchronous system; at n=100 000 the
	// sample mean barely varies between seeds, and it sits 0.05 to 0.35
	// below the chain's 26.83 after 500 or more rounds: a model
	// difference, not noise.
	sfInTol = 0.6
	// sfShard is the replay's batch size: the engine's own shard size at
	// n=100 000.
	sfShard = 256
)

func newSFCluster(seed int64, workers int) (sfrt.Substrate, error) {
	return sfrt.New(sfrt.Config{
		Engine:     sfrt.EngineSharded,
		N:          sfN,
		NewCore:    func() (protocol.StepCore, error) { return sendforget.NewCore(sfS, sfDL) },
		InitDegree: sfInitDegree,
		Loss:       sfLoss,
		Seed:       seed,
		Workers:    workers,
	})
}

// randomizeOverlay rejoins every node with deg distinct random seeds other
// than itself, drawn from seed. The circulant bootstrap links each node to
// its id neighbours, so its views point at adjacent memory; gossip mixes
// that locality away only over about a thousand rounds, and rounds slow
// down by a third as it does. A random overlay starts the run in the mixed
// regime the steady state has.
func randomizeOverlay(sub sfrt.Substrate, n, deg int, seed int64) error {
	r := rng.New(seed)
	seeds := make([]peer.ID, deg)
	for u := 0; u < n; u++ {
		for i := 0; i < deg; {
			s := peer.ID(r.Intn(n))
			if int(s) == u || slices.Contains(seeds[:i], s) {
				continue
			}
			seeds[i] = s
			i++
		}
		sub.RemoveNode(peer.ID(u))
		if err := sub.AddNode(peer.ID(u), seeds, false); err != nil {
			return err
		}
	}
	return nil
}

// newSteadyCluster is the workload's set-up: build the cluster, randomize
// its overlay and tick until the engine's arenas stop growing. It returns
// the rounds ticked.
func newSteadyCluster(seed int64, workers int) (sfrt.Substrate, int, error) {
	sub, err := newSFCluster(seed, workers)
	if err != nil {
		return nil, 0, err
	}
	if err := randomizeOverlay(sub, sfN, sfInitDegree, rng.DeriveSeed(seed, 6)); err != nil {
		sub.Close()
		return nil, 0, err
	}
	return sub, warmUp(sub, 300), nil
}

// warmUp ticks until two consecutive rounds allocate nothing, that is until
// the engine's outbox and inbox arenas stop growing, and returns the number
// of rounds it ticked.
func warmUp(sub sfrt.Substrate, maxRounds int) int {
	quiet := 0
	for i := 1; i <= maxRounds; i++ {
		m0 := mallocs()
		sub.TickRound()
		if mallocs() == m0 {
			quiet++
			if quiet == 2 {
				return i
			}
		} else {
			quiet = 0
		}
	}
	return maxRounds
}

func runSFSteady(r *run) error {
	setups := sfSetups
	if r.trace != nil {
		setups = 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	var sub sfrt.Substrate
	var rounds int
	var times []float64
	for i := 0; i < setups; i++ {
		if sub != nil {
			sub.Close()
			sub = nil
			gort.GC()
		}
		t0 := time.Now()
		s, w, err := newSteadyCluster(r.seed, nproc)
		if err != nil {
			return err
		}
		rounds = w
		times = append(times, time.Since(t0).Seconds())
		sub = s
	}
	defer sub.Close()
	r.info("warmup_rounds", float64(rounds), "rounds")
	for ; rounds < sfSettle; rounds++ {
		sub.TickRound()
	}
	if r.trace == nil {
		r.set("setup_s", median(times))
		lat, ticks, elapsed := tickLoop(sub, r.window)
		rounds += len(lat)
		r.ops(len(lat), 0)
		r.set("op_ms_p50", lat.quantile(0.5))
		r.info("rounds", float64(len(lat)), "rounds")
		r.info("round_ms_p50", lat.quantile(0.5), "ms")
		r.info("round_ms_p99", lat.quantile(0.99), "ms")
		r.info("node_ticks_per_s", float64(ticks)/elapsed.Seconds(), "1/s")
		r.info("ns_per_node_tick", float64(lat.total())/float64(ticks), "ns")
	} else {
		var err error
		if rounds, err = traceSFSteady(r, sub, rounds); err != nil {
			return err
		}
	}
	return sfGates(r, sub, rounds)
}

// tickLoop calls TickRound back to back for the window. It returns the
// round latencies, the live-node initiations and the elapsed time.
func tickLoop(sub sfrt.Substrate, window time.Duration) (lat latencies, ticks int, elapsed time.Duration) {
	lat = make(latencies, 0, 1<<16)
	c0 := sub.Counters()
	start := time.Now()
	for time.Since(start) < window {
		t := time.Now()
		sub.TickRound()
		lat = append(lat, time.Since(t))
	}
	elapsed = time.Since(start)
	return lat, sub.Counters().Ticks - c0.Ticks, elapsed
}

// traceSFSteady is the traced run: it replays sampled rounds layer by
// layer, times TickRound at one worker and at nproc workers, and measures
// the tracing overhead. It returns the cluster's round count.
func traceSFSteady(r *run, sub sfrt.Substrate, rounds int) (int, error) {
	op := 1
	sp := r.trace.begin("runtime.views", 0, op)
	views := sub.Views()
	r.trace.end(sp, len(views))
	rp, err := newReplay(views, sfShard, r.seed)
	if err != nil {
		return rounds, err
	}
	views = nil // the replay holds its own copy; free the clones
	for i := 0; i < sfReplayRounds; i++ {
		op++
		rp.round(r.trace, op)
	}
	rp.report(r)
	replayNsPerNode := float64(rp.initiateNs+rp.routeNs+rp.receiveNs) / float64(rp.c.initiations)
	rp = nil
	gort.GC()

	// Allocations per round, counted exactly around each TickRound.
	const allocRounds = 20
	var allocs uint64
	for i := 0; i < allocRounds; i++ {
		m0 := mallocs()
		sub.TickRound()
		allocs += mallocs() - m0
	}
	rounds += allocRounds
	r.set("runtime.allocs_per_round", float64(allocs)/allocRounds)

	// One worker: the replay did the same layer work single-threaded, so
	// the difference is what the runtime adds around the layers.
	w1, w, err := newSteadyCluster(r.seed, 1)
	if err != nil {
		return rounds, err
	}
	for ; w < sfSettle; w++ {
		w1.TickRound()
	}
	var one latencies
	for i := 0; i < sfReplayRounds; i++ {
		op++
		sp := r.trace.begin("runtime.tick_round.workers1", 0, op)
		w1.TickRound()
		r.trace.end(sp, sfN)
		one = append(one, r.trace.durationOf(sp))
	}
	w1.Close()
	gort.GC()
	oneNs := one.quantile(0.5) * 1e6 / sfN
	r.info("runtime.tick_ns_per_node.workers1", oneNs, "ns")
	r.set("runtime.self_ns_per_node", oneNs-replayNsPerNode)

	// nproc workers, untraced then traced, for the overhead.
	plain, _, _ := tickLoop(sub, r.window/2)
	rounds += len(plain)
	traced := make(latencies, 0, 1<<14)
	start := time.Now()
	for time.Since(start) < r.window/2 {
		op++
		sp := r.trace.begin("runtime.tick_round", 0, op)
		sub.TickRound()
		r.trace.end(sp, sfN)
		traced = append(traced, r.trace.durationOf(sp))
	}
	rounds += len(traced)
	r.ops(len(plain)+len(traced)+sfReplayRounds, 0)
	r.set("runtime.tick_ns_per_node", traced.quantile(0.5)*1e6/sfN)
	r.set("trace.overhead_frac", traced.quantile(0.5)/plain.quantile(0.5)-1)
	return rounds, nil
}

// sfGates checks the run's outputs: after draining, the traffic identity
// and every view invariant hold, and the mean in-degree matches the degree
// MC at the same parameters.
func sfGates(r *run, sub sfrt.Substrate, rounds int) error {
	for ; rounds < sfGateRounds; rounds++ {
		sub.TickRound()
	}
	sub.DrainDelayed()
	tr := sub.Traffic()
	r.gate("traffic_conserved", tr.Conserved(), fmt.Sprintf("sends=%d losses=%d deliveries=%d dead=%d", tr.Sends, tr.Losses, tr.Deliveries, tr.DeadLetters))
	err := sub.CheckInvariants()
	r.gate("view_invariants", err == nil, fmt.Sprint(err))
	res, err := degreemc.Solve(degreemc.Params{S: sfS, DL: sfDL, Loss: sfLoss}, degreemc.SolveOptions{})
	if err != nil {
		return fmt.Errorf("degree MC: %w", err)
	}
	in := metrics.Degrees(sub.Snapshot(), nil).MeanIn
	r.gate("mean_indegree_vs_degree_mc", math.Abs(in-res.MeanIn()) <= sfInTol,
		fmt.Sprintf("sim %.3f after %d rounds, degree MC %.3f, tolerance %.2f", in, rounds, res.MeanIn(), sfInTol))
	return nil
}

// replayCounts are the message and outcome counts of a replay.
type replayCounts struct {
	initiations, msgs, dups, selfloops, receives, replies int
}

// msgRef locates a routed message: index idx of source shard src's outbox.
type msgRef struct{ src, idx int32 }

// replay re-executes rounds of a sharded cluster from a snapshot of its
// views, calling each layer directly: the protocol's batch initiate, the
// driver's router under a fault-stack session, and the protocol's batch
// receive. It mirrors the sharded engine's phases on one goroutine, so
// spans can wrap each layer's work per shard.
type replay struct {
	n, s, shard, shards int
	views               []view.View
	rngs                []rng.RNG
	live                []bool
	core                protocol.BatchStepCore

	cond   *faults.Conditions
	router *driver.Router
	// decide probes the fault layer alone, on a stack and stream of its
	// own, so the router's decision stream is undisturbed.
	decide    *faults.Conditions
	decideRNG *rng.RNG

	outboxes []protocol.Outbox
	replies  [2][]protocol.Outbox
	inbox    [][]msgRef

	c                                        replayCounts
	initiateNs, routeNs, decideNs, receiveNs int64
	routed, decisions                        int
}

func newReplay(views []*view.View, shard int, seed int64) (*replay, error) {
	n := len(views)
	core, err := sendforget.NewCore(sfS, sfDL)
	if err != nil {
		return nil, err
	}
	cond, err := faults.New(loss.MustUniform(sfLoss))
	if err != nil {
		return nil, err
	}
	probe, err := faults.New(loss.MustUniform(sfLoss))
	if err != nil {
		return nil, err
	}
	shards := (n + shard - 1) / shard
	rp := &replay{
		n: n, s: sfS, shard: shard, shards: shards,
		views:     make([]view.View, n),
		rngs:      make([]rng.RNG, n),
		live:      make([]bool, n),
		core:      core,
		cond:      cond,
		decide:    probe,
		decideRNG: rng.New(rng.DeriveSeed(seed, 2)),
		outboxes:  make([]protocol.Outbox, shards),
		inbox:     make([][]msgRef, shards),
	}
	rp.replies[0] = make([]protocol.Outbox, shards)
	rp.replies[1] = make([]protocol.Outbox, shards)
	slab := make([]peer.ID, n*sfS)
	for u, v := range views {
		rp.rngs[u] = rng.NewState(rng.DeriveSeed(seed, 3, int64(u)))
		window := slab[u*sfS : (u+1)*sfS]
		if v == nil {
			for i := range window {
				window[i] = peer.Nil
			}
			rp.views[u] = view.Wrap(window)
			continue
		}
		if v.Size() != sfS {
			return nil, fmt.Errorf("replay: view of node %d has %d slots, want %d", u, v.Size(), sfS)
		}
		for i := range window {
			window[i] = v.Slot(i)
		}
		rp.views[u] = view.Wrap(window)
		rp.live[u] = true
	}
	rp.router = driver.NewRouter(cond, rng.New(rng.DeriveSeed(seed, 1)), func(id peer.ID) bool { return rp.live[id] })
	return rp, nil
}

// round replays one round: initiate per shard, probe the fault layer, then
// route and deliver until no replies remain.
func (rp *replay) round(t *tracer, op int) {
	rp.router.Tick()
	root := t.begin("replay.round", 0, op)
	for k := 0; k < rp.shards; k++ {
		lo, hi := k*rp.shard, min((k+1)*rp.shard, rp.n)
		ob := &rp.outboxes[k]
		ob.Reset()
		sp := t.begin("protocol.initiate", root, op)
		for u := lo; u < hi; u++ {
			if !rp.live[u] {
				continue
			}
			rp.c.initiations++
			msgs, dups, ok := rp.core.InitiateBatch(&rp.views[u], peer.ID(u), &rp.rngs[u], ob)
			if !ok {
				rp.c.selfloops++
				continue
			}
			rp.c.msgs += msgs
			rp.c.dups += dups
		}
		t.end(sp, hi-lo)
		rp.initiateNs += int64(t.durationOf(sp))
	}

	ses := rp.decide.Begin()
	for k := range rp.outboxes {
		ob := &rp.outboxes[k]
		sp := t.begin("faults.decide", root, op)
		for i := range ob.Msgs {
			ses.Decide(ob.Msgs[i].From, ob.Msgs[i].To, rp.decideRNG)
		}
		t.end(sp, len(ob.Msgs))
		rp.decideNs += int64(t.durationOf(sp))
		rp.decisions += len(ob.Msgs)
	}
	ses.Close()

	boxes := rp.outboxes
	w := 0
	for rp.route(t, root, op, boxes) {
		rs := rp.replies[w]
		for k := range rs {
			rs[k].Reset()
		}
		for d := range rp.inbox {
			sp := t.begin("protocol.receive", root, op)
			refs := rp.inbox[d]
			for _, ref := range refs {
				ob := &boxes[ref.src]
				m := &ob.Msgs[ref.idx]
				rp.c.receives++
				pkt := protocol.Packet{Kind: m.Kind, From: m.From, IDs: ob.MsgIDs(m), Dup: m.Dup}
				if rp.core.ReceiveBatch(&rp.views[m.To], m.To, pkt, &rp.rngs[m.To], &rs[d]) {
					rp.c.replies++
				}
			}
			rp.inbox[d] = refs[:0]
			t.end(sp, len(refs))
			rp.receiveNs += int64(t.durationOf(sp))
		}
		boxes = rs
		w ^= 1
	}
	t.end(root, rp.n)
}

// route rules on every message of boxes under one fault-stack session and
// buckets the deliverable ones by destination shard. It reports whether any
// message is to be delivered.
func (rp *replay) route(t *tracer, parent, op int, boxes []protocol.Outbox) bool {
	delivered := false
	ses := rp.cond.Begin()
	for k := range boxes {
		ob := &boxes[k]
		sp := t.begin("driver.route", parent, op)
		for i := range ob.Msgs {
			m := &ob.Msgs[i]
			msg := protocol.Message{Kind: m.Kind, From: m.From, IDs: ob.MsgIDs(m), Dup: m.Dup}
			if rp.router.RouteIn(&ses, m.To, msg) != driver.Delivered {
				continue
			}
			d := int(m.To) / rp.shard
			rp.inbox[d] = append(rp.inbox[d], msgRef{src: int32(k), idx: int32(i)})
			delivered = true
		}
		t.end(sp, len(ob.Msgs))
		rp.routeNs += int64(t.durationOf(sp))
		rp.routed += len(ob.Msgs)
	}
	ses.Close()
	return delivered
}

// report sets the replay's per-layer metrics.
func (rp *replay) report(r *run) {
	c := rp.c
	r.set("protocol.initiate_ns", float64(rp.initiateNs)/float64(c.initiations))
	r.set("protocol.receive_ns", float64(rp.receiveNs)/float64(max(c.receives, 1)))
	r.set("driver.route_ns", float64(rp.routeNs)/float64(max(rp.routed, 1)))
	r.set("faults.decide_ns", float64(rp.decideNs)/float64(max(rp.decisions, 1)))
	setProtocolCounts(r, c)
	setDriverCounts(r, rp.router.Traffic())
}

// setProtocolCounts sets the protocol layer's counts and ratios.
func setProtocolCounts(r *run, c replayCounts) {
	r.set("protocol.initiations", float64(c.initiations))
	r.set("protocol.msgs", float64(c.msgs))
	r.set("protocol.dups", float64(c.dups))
	r.set("protocol.selfloops", float64(c.selfloops))
	r.set("protocol.receives", float64(c.receives))
	r.set("protocol.replies", float64(c.replies))
	r.set("protocol.msgs_per_tick", frac(c.msgs, c.initiations))
	r.set("protocol.dup_frac", frac(c.dups, c.msgs))
	r.set("protocol.selfloop_frac", frac(c.selfloops, c.initiations))
	r.set("protocol.reply_frac", frac(c.replies, c.receives))
}

// setDriverCounts sets the driver layer's counts and ratios.
func setDriverCounts(r *run, t metrics.Traffic) {
	r.set("driver.sends", float64(t.Sends))
	r.set("driver.deliveries", float64(t.Deliveries))
	r.set("driver.delayed", float64(t.Delayed))
	r.set("driver.dead_letters", float64(t.DeadLetters))
	r.set("driver.losses", float64(t.Losses))
	r.set("driver.delivered_frac", frac(t.Deliveries, t.Sends))
	r.set("driver.delayed_frac", frac(t.Delayed, t.Sends))
	r.set("driver.dead_letter_frac", frac(t.DeadLetters, t.Sends))
}
