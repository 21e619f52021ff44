// Package engine is the sequential discrete-event simulator realizing the
// paper's analysis model (Section 5): "a central entity repeatedly selects a
// random node, invokes its InitiateAction method, and waits for the
// completion of the receive by the receiving node (in case a message was
// sent)".
//
// Each Step picks an active node uniformly at random (Proposition 5.2),
// runs its initiate step, subjects every emitted message — including replies
// of bidirectional baselines — to the loss model, and runs the receive steps
// of delivered messages. A Round is n such steps, n the number of active
// nodes: "the period of time during which each node is expected to initiate
// exactly one action" (Section 6.5).
//
// Fault decisions, delay-queue mechanics, and traffic accounting live in
// the shared internal/driver router; the engine contributes only its
// scheduling discipline and the reply-chain walk.
package engine

import (
	"fmt"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Counters aggregates transport-level events across a run, with the unified
// cross-substrate semantics documented on metrics.Traffic: every emitted
// message counts under Sends first and then lands in exactly one of Losses,
// DeadLetters, or Deliveries (possibly after a stay in the delay queue).
type Counters struct {
	Steps       int // initiate steps executed
	Sends       int // messages emitted (including replies)
	Losses      int // messages dropped by the fault layer (all conditions)
	Deliveries  int // messages delivered to active nodes
	DeadLetters int // messages addressed to departed nodes

	LinkLosses     int // subset of Losses: per-link override models
	PartitionDrops int // subset of Losses: active partitions
	Delayed        int // messages that entered the delay queue
}

// LossRate returns the empirical loss fraction over all sends.
func (c Counters) LossRate() float64 {
	if c.Sends == 0 {
		return 0
	}
	return float64(c.Losses) / float64(c.Sends)
}

// Engine drives one protocol instance. Not safe for concurrent use.
type Engine struct {
	proto  protocol.Protocol
	cond   *faults.Conditions // fault-injection stack (nil = plain loss model)
	r      *rng.RNG
	router *driver.Router
	active []peer.ID // scheduling pool
	// pos[u] is u's position in active, -1 when u is not schedulable.
	// Protocols number their nodes 0..N-1, so the index is a dense slice.
	pos   []int32
	steps int

	// OnStep, when non-nil, runs after every step with the step index.
	// Metrics collectors hook here.
	OnStep func(step int)
	// OnAction, when non-nil, receives a structured event per step —
	// tracing and fine-grained measurement hook.
	OnAction func(ev ActionEvent)
}

// ActionEvent describes one protocol step for observers.
type ActionEvent struct {
	// Step is the 1-based step index.
	Step int
	// Initiator is the node whose action ran.
	Initiator peer.ID
	// Sent reports whether the action emitted a message (false = self-loop).
	Sent bool
	// To is the first message's destination (valid when Sent).
	To peer.ID
	// Lost reports whether any message of the action was dropped by the
	// loss model; DeadLetters counts messages to departed nodes; Delivered
	// counts successful deliveries (greater than one for reply chains).
	Lost        bool
	DeadLetters int
	Delivered   int
}

// New builds an engine over proto with the given loss model and randomness.
// All nodes the protocol reports active join the scheduling pool.
func New(proto protocol.Protocol, lm loss.Model, r *rng.RNG) (*Engine, error) {
	if lm == nil {
		return nil, fmt.Errorf("engine: nil dependency")
	}
	return build(proto, lm, nil, r)
}

// NewWithConditions builds an engine whose transmissions pass through a
// fault-injection stack (burst loss, per-link overrides, partitions, delay)
// instead of a plain loss model — the same decision logic the in-memory
// runtime network applies, so cross-substrate comparisons see identical
// network behavior. The conditions instance must be dedicated to this
// engine: stateful models advance on every decision.
func NewWithConditions(proto protocol.Protocol, cond *faults.Conditions, r *rng.RNG) (*Engine, error) {
	if cond == nil {
		return nil, fmt.Errorf("engine: nil dependency")
	}
	return build(proto, nil, cond, r)
}

func build(proto protocol.Protocol, lm loss.Model, cond *faults.Conditions, r *rng.RNG) (*Engine, error) {
	if proto == nil || r == nil {
		return nil, fmt.Errorf("engine: nil dependency")
	}
	e := &Engine{proto: proto, cond: cond, r: r, pos: make([]int32, proto.N())}
	for u := range e.pos {
		e.pos[u] = -1
	}
	// The router shares the engine's RNG: protocol draws and fault decisions
	// interleave on one stream, preserving the engine's historical draw
	// sequence (seed-calibrated tests depend on it).
	live := func(id peer.ID) bool { return e.position(id) >= 0 }
	if cond != nil {
		e.router = driver.NewRouter(cond, r, live)
	} else {
		e.router = driver.NewRouterModel(lm, r, live)
	}
	churner, isChurner := proto.(protocol.Churner)
	for u := 0; u < proto.N(); u++ {
		id := peer.ID(u)
		if !isChurner || churner.Active(id) {
			e.addActive(id)
		}
	}
	if len(e.active) == 0 {
		return nil, fmt.Errorf("engine: protocol has no active nodes")
	}
	return e, nil
}

// Conditions returns the fault-injection stack, nil when the engine was
// built over a plain loss model.
func (e *Engine) Conditions() *faults.Conditions { return e.cond }

// Protocol returns the driven protocol.
func (e *Engine) Protocol() protocol.Protocol { return e.proto }

// Counters returns a copy of the transport counters.
func (e *Engine) Counters() Counters {
	l := e.router.Ledger()
	return Counters{
		Steps:          e.steps,
		Sends:          l.Sends,
		Losses:         l.Losses,
		Deliveries:     l.Deliveries,
		DeadLetters:    l.DeadLetters,
		LinkLosses:     l.LinkLosses,
		PartitionDrops: l.PartitionDrops,
		Delayed:        l.Delayed,
	}
}

// Traffic reports the transport counters in the substrate-neutral shape
// shared with the concurrent runtime's Cluster.
func (e *Engine) Traffic() metrics.Traffic { return e.router.Traffic() }

// ActiveCount returns the number of schedulable nodes.
func (e *Engine) ActiveCount() int { return len(e.active) }

// Step executes one protocol action by a uniformly random active node.
func (e *Engine) Step() {
	u := e.active[e.r.Intn(len(e.active))]
	e.StepAt(u)
}

// StepAt executes one protocol action initiated by u. Experiments measuring
// a specific node's behaviour (Section 6.5 joins) use it directly.
func (e *Engine) StepAt(u peer.ID) {
	e.steps++
	ev := ActionEvent{Step: e.steps, Initiator: u}
	to, msg, ok := e.proto.Initiate(u, e.r)
	if ok {
		ev.Sent = true
		ev.To = to
		e.transmit(to, msg, &ev)
	}
	if e.OnStep != nil {
		e.OnStep(e.steps)
	}
	if e.OnAction != nil {
		e.OnAction(ev)
	}
}

// transmit routes msg through the shared driver and delivers it, following
// reply chains (each reply is again subject to the fault layer). With a
// plain loss model, destination-aware models (loss.DestinationModel)
// receive the target so nonuniform loss can be simulated; with conditions,
// messages may additionally be cut by partitions or parked in the delay
// queue until a later round.
func (e *Engine) transmit(to peer.ID, msg protocol.Message, ev *ActionEvent) {
	for {
		switch e.router.Route(to, msg) {
		case driver.Dropped:
			ev.Lost = true
			return
		case driver.Parked:
			return
		case driver.DeadLetter:
			ev.DeadLetters++
			return
		}
		ev.Delivered++
		reply, replyTo, hasReply := e.proto.Deliver(to, msg, e.r)
		if !hasReply {
			return
		}
		to, msg = replyTo, reply
	}
}

// Round executes one round: the delay queue delivers what came due, then as
// many steps as there are active nodes run. Rounds are the delay-queue
// clock; Step/StepAt called outside Round never advance it.
func (e *Engine) Round() {
	e.router.Tick()
	e.drainDue()
	for i, n := 0, len(e.active); i < n; i++ {
		e.Step()
	}
}

// PendingDelayed returns the number of messages parked in the delay queue.
func (e *Engine) PendingDelayed() int { return e.router.Pending() }

// DrainDelayed advances the delay-queue clock without running any protocol
// steps until the queue is empty, delivering everything in flight. Runs end
// with it so the traffic identity Sends = Losses + Deliveries + DeadLetters
// holds on the final counters. Replies generated by drained deliveries are
// subject to the fault layer and may be re-delayed; the loop runs until
// those settle too.
func (e *Engine) DrainDelayed() {
	for e.router.Pending() > 0 {
		e.router.Tick()
		e.drainDue()
	}
}

// drainDue delivers every delayed message due by the current round, bucket
// by bucket in (due, enqueue) order. Routing is resolved at drain time (a
// destination that left while the message was in flight is a dead letter),
// and replies re-enter transmit, so they face the fault layer like any send.
// OnAction does not fire for these deliveries: they belong to no initiate
// step.
func (e *Engine) drainDue() {
	for {
		b, ok := e.router.Due()
		if !ok {
			return
		}
		for i := range b.Msgs {
			m := &b.Msgs[i]
			if !e.router.Deliverable(m.To) {
				continue
			}
			msg := protocol.Message{Kind: m.Kind, From: m.From, IDs: b.MsgIDs(m), Dup: m.Dup}
			var ev ActionEvent // counters only; not reported
			if reply, replyTo, hasReply := e.proto.Deliver(m.To, msg, e.r); hasReply {
				e.transmit(replyTo, reply, &ev)
			}
		}
	}
}

// Run executes the given number of rounds.
func (e *Engine) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		e.Round()
	}
}

// Snapshot returns the current membership graph.
func (e *Engine) Snapshot() *graph.Graph {
	return graph.FromViews(e.Views())
}

// Views collects per-node views (nil for departed nodes). Callers must
// treat the views as read-only.
func (e *Engine) Views() []*view.View {
	out := make([]*view.View, e.proto.N())
	for u := 0; u < e.proto.N(); u++ {
		out[u] = e.proto.View(peer.ID(u))
	}
	return out
}

// Join activates node u with the given seed view and adds it to the
// scheduling pool. The protocol must implement protocol.Churner.
func (e *Engine) Join(u peer.ID, seeds []peer.ID) error {
	churner, ok := e.proto.(protocol.Churner)
	if !ok {
		return fmt.Errorf("engine: protocol %q does not support churn", e.proto.Name())
	}
	if err := churner.Join(u, seeds); err != nil {
		return err
	}
	e.addActive(u)
	return nil
}

// Leave removes node u from the protocol and the scheduling pool.
func (e *Engine) Leave(u peer.ID) error {
	churner, ok := e.proto.(protocol.Churner)
	if !ok {
		return fmt.Errorf("engine: protocol %q does not support churn", e.proto.Name())
	}
	churner.Leave(u)
	e.removeActive(u)
	return nil
}

// position returns u's index in the scheduling pool, or -1 when u is not
// schedulable (departed, never joined, or not a node id at all).
func (e *Engine) position(u peer.ID) int {
	if u < 0 || int(u) >= len(e.pos) {
		return -1
	}
	return int(e.pos[u])
}

func (e *Engine) addActive(u peer.ID) {
	if e.position(u) >= 0 {
		return
	}
	e.pos[u] = int32(len(e.active))
	e.active = append(e.active, u)
}

func (e *Engine) removeActive(u peer.ID) {
	i := e.position(u)
	if i < 0 {
		return
	}
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.pos[e.active[i]] = int32(i)
	e.active = e.active[:last]
	e.pos[u] = -1
}
