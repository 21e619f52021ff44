package runtime

import (
	"fmt"

	"sendforget/internal/driver"
	"sendforget/internal/engine"
	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/loss"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// This file adapts the sequential discrete-event engine (internal/engine)
// to the Substrate interface. The engine itself schedules over a
// protocol.Protocol; coreProto builds that protocol generically from a
// CoreFactory — per-node step cores over per-node views with the circulant
// bootstrap — so the seq backend runs the exact same protocol code as the
// cluster backends, constructed the exact same way, with the engine's
// uniform-random-with-replacement scheduling on top.

// coreProto adapts per-node StepCores to protocol.Protocol + Churner.
// Single-threaded, like every protocol implementation: the engine
// serializes all calls.
type coreProto struct {
	name    string
	n       int
	factory protocol.CoreFactory
	cores   []protocol.StepCore
	views   []*view.View

	// counters tallies protocol events across all nodes, in the same
	// shape the concurrent backends report, so the seq substrate exports
	// the node-level ledger too. Single-threaded like the rest of the
	// adapter: the engine serializes all calls.
	counters NodeCounters
}

var (
	_ protocol.Protocol = (*coreProto)(nil)
	_ protocol.Churner  = (*coreProto)(nil)
)

// newCoreProto builds one core and one circulant-seeded view per node —
// the same bootstrap overlay NewCluster and NewSharded wire.
func newCoreProto(f protocol.CoreFactory, n, initDegree int) (*coreProto, error) {
	cp := &coreProto{
		n:       n,
		factory: f,
		cores:   make([]protocol.StepCore, n),
		views:   make([]*view.View, n),
	}
	seeds := make([]peer.ID, initDegree)
	for u := 0; u < n; u++ {
		core, err := f()
		if err != nil {
			return nil, fmt.Errorf("runtime: core for node %d: %w", u, err)
		}
		driver.Circulant(peer.ID(u), n, seeds)
		v, err := core.SeedView(seeds)
		if err != nil {
			return nil, fmt.Errorf("runtime: node %d: %w", u, err)
		}
		cp.cores[u] = core
		cp.views[u] = v
	}
	cp.name = cp.cores[0].Name()
	return cp, nil
}

func (p *coreProto) Name() string { return p.name }
func (p *coreProto) N() int       { return p.n }

func (p *coreProto) View(u peer.ID) *view.View {
	if int(u) < 0 || int(u) >= p.n {
		return nil
	}
	return p.views[u]
}

func (p *coreProto) Initiate(u peer.ID, r *rng.RNG) (peer.ID, protocol.Message, bool) {
	p.counters.Ticks++
	msgs, ok := p.cores[u].Initiate(p.views[u], u, r)
	if !ok || len(msgs) == 0 {
		p.counters.SelfLoops++
		return peer.Nil, protocol.Message{}, false
	}
	p.counters.Sends++
	if msgs[0].Msg.Dup {
		p.counters.Duplications++
	}
	return msgs[0].To, msgs[0].Msg, true
}

func (p *coreProto) Deliver(u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Message, peer.ID, bool) {
	p.counters.Receives++
	reply, ok := p.cores[u].Receive(p.views[u], u, msg, r)
	if !ok {
		return protocol.Message{}, peer.Nil, false
	}
	p.counters.Replies++
	return reply.Msg, reply.To, true
}

func (p *coreProto) Join(u peer.ID, seeds []peer.ID) error {
	if int(u) < 0 || int(u) >= p.n {
		return fmt.Errorf("runtime: node id %v outside cluster universe", u)
	}
	if p.views[u] != nil {
		return fmt.Errorf("runtime: node %v is already active", u)
	}
	core, err := p.factory()
	if err != nil {
		return fmt.Errorf("runtime: core for node %v: %w", u, err)
	}
	v, err := core.SeedView(seeds)
	if err != nil {
		return err
	}
	p.cores[u] = core
	p.views[u] = v
	return nil
}

func (p *coreProto) Leave(u peer.ID) {
	if int(u) < 0 || int(u) >= p.n {
		return
	}
	p.views[u] = nil
	p.cores[u] = nil
}

func (p *coreProto) Active(u peer.ID) bool {
	return int(u) >= 0 && int(u) < p.n && p.views[u] != nil
}

// seqSubstrate adapts the engine to the Substrate interface. The engine's
// Round is TickRound; churn maps to Join/Leave (the engine maintains the
// scheduling pool).
type seqSubstrate struct {
	eng *engine.Engine
	cp  *coreProto
}

// newSeq builds the sequential backend from the factory config, mirroring
// the cluster constructors' defaulting and validation.
func newSeq(cfg Config) (Substrate, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("runtime: seq engine needs at least 2 nodes, got %d", cfg.N)
	}
	if cfg.NewCore == nil {
		return nil, fmt.Errorf("runtime: seq engine needs a core factory")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.InitDegree == 0 {
		d, err := defaultInitDegree(cfg.NewCore, cfg.N)
		if err != nil {
			return nil, err
		}
		cfg.InitDegree = d
	}
	if cfg.InitDegree >= cfg.N || cfg.InitDegree < 1 {
		return nil, fmt.Errorf("runtime: init degree %d must be in [1, n-1] for n=%d", cfg.InitDegree, cfg.N)
	}
	cond := cfg.Conditions
	if cond == nil {
		lm, err := loss.NewUniform(cfg.Loss)
		if err != nil {
			return nil, err
		}
		if cond, err = faults.New(lm); err != nil {
			return nil, err
		}
	}
	cp, err := newCoreProto(cfg.NewCore, cfg.N, cfg.InitDegree)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewWithConditions(cp, cond, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	return &seqSubstrate{eng: eng, cp: cp}, nil
}

func (s *seqSubstrate) TickRound()    { s.eng.Round() }
func (s *seqSubstrate) DrainDelayed() { s.eng.DrainDelayed() }
func (s *seqSubstrate) Pending() int  { return s.eng.PendingDelayed() }

func (s *seqSubstrate) Views() []*view.View    { return s.eng.Views() }
func (s *seqSubstrate) Snapshot() *graph.Graph { return s.eng.Snapshot() }
func (s *seqSubstrate) Traffic() metrics.Traffic {
	return s.eng.Traffic()
}

// Counters reports the protocol-event ledger in the shape the concurrent
// backends use (reply sends count under Replies, not Sends, matching
// Node.HandleMessage).
func (s *seqSubstrate) Counters() NodeCounters         { return s.cp.counters }
func (s *seqSubstrate) Conditions() *faults.Conditions { return s.eng.Conditions() }

func (s *seqSubstrate) CheckInvariants() error {
	for u := 0; u < s.cp.n; u++ {
		if s.cp.views[u] == nil {
			continue
		}
		if err := s.cp.cores[u].CheckView(s.cp.views[u]); err != nil {
			return fmt.Errorf("runtime: node %v: %w", peer.ID(u), err)
		}
	}
	return nil
}

// AddNode joins node u; the start flag is ignored (the seq engine is
// scheduler-driven, not timer-driven).
func (s *seqSubstrate) AddNode(u peer.ID, seeds []peer.ID, start bool) error {
	_ = start
	return s.eng.Join(u, seeds)
}

func (s *seqSubstrate) RemoveNode(u peer.ID) bool {
	if int(u) < 0 || int(u) >= s.cp.n || s.cp.views[u] == nil {
		return false
	}
	// Leave errs only for non-Churner protocols; coreProto always churns.
	_ = s.eng.Leave(u)
	return true
}

// Close is a no-op: the seq engine holds no goroutines or timers.
func (s *seqSubstrate) Close() {}
