package mgmt

import (
	"fmt"
	"sync"
	"time"

	"sendforget/internal/faults"
	"sendforget/internal/graph"
	"sendforget/internal/metrics"
	"sendforget/internal/peer"
	"sendforget/internal/runtime"
)

// LocalOptions parameterizes a Local backend over an in-process cluster.
type LocalOptions struct {
	// Sub is the substrate to manage. The backend becomes its single
	// owner: the daemon's run loop must tick through Local.Tick, never
	// Sub.TickRound directly, so HTTP-driven churn and config reloads
	// serialize against ticking on every engine (the seq and sharded
	// engines are not internally synchronized).
	Sub runtime.Substrate
	// Protocol, Engine, N, S, DL, Seed describe the running config.
	Protocol string
	Engine   string
	N        int
	S, DL    int
	Seed     int64
	// Period is the initial tick period.
	Period time.Duration
	// Loss is the initial base loss rate.
	Loss float64
	// OnPeriod, when non-nil, is called (outside the backend lock) after
	// a live period change so the daemon's run loop can retune its
	// ticker.
	OnPeriod func(time.Duration)
}

// Local adapts a runtime.Substrate to the management Backend. All substrate
// access is serialized under one mutex; see LocalOptions.Sub. The
// single-owner rule is load-bearing rather than advisory: sharedguard
// verifies that period, loss, and rounds are only ever touched under mu
// (or before the daemon goroutines exist), so a new HTTP handler that
// forgets the lock fails vet, not production.
type Local struct {
	opts LocalOptions

	mu     sync.Mutex
	period time.Duration
	loss   float64
	rounds int64
}

var _ Backend = (*Local)(nil)

// NewLocal builds the backend.
func NewLocal(opts LocalOptions) (*Local, error) {
	if opts.Sub == nil {
		return nil, fmt.Errorf("mgmt: nil substrate")
	}
	if opts.Period <= 0 {
		return nil, fmt.Errorf("mgmt: nonpositive period %v", opts.Period)
	}
	return &Local{opts: opts, period: opts.Period, loss: opts.Loss}, nil
}

// Tick drives one gossip round; the daemon's run loop calls it per period.
func (l *Local) Tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opts.Sub.TickRound()
	l.rounds++
}

// Info identifies the running configuration.
func (l *Local) Info() Info {
	return Info{Mode: "local", Protocol: l.opts.Protocol, Engine: l.opts.Engine, N: l.opts.N}
}

// Rounds returns how many rounds Tick has driven.
func (l *Local) Rounds() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rounds
}

// Views snapshots the live views, ordered by node id.
func (l *Local) Views() []NodeView {
	l.mu.Lock()
	defer l.mu.Unlock()
	views := l.opts.Sub.Views()
	out := make([]NodeView, 0, len(views))
	for id, v := range views {
		if v == nil {
			continue
		}
		ids := v.IDs()
		entries := make([]int, len(ids))
		for i, e := range ids {
			entries[i] = int(e)
		}
		out = append(out, NodeView{ID: id, View: entries})
	}
	return out
}

// Snapshot returns the membership graph under the backend lock, so the
// daemon's report loop can read overlay health without racing HTTP-driven
// churn.
func (l *Local) Snapshot() *graph.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Snapshot()
}

// Counters sums the node-level protocol ledger.
func (l *Local) Counters() runtime.NodeCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Counters()
}

// Traffic reports the transport ledger.
func (l *Local) Traffic() metrics.Traffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Traffic()
}

// FaultCounters reports the fault-layer ledger.
func (l *Local) FaultCounters() (faults.Counters, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Conditions().Counters(), true
}

// Pending returns the delay-queue depth.
func (l *Local) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Sub.Pending()
}

// Join activates a node slot with the given seed view.
func (l *Local) Join(req JoinRequest) error {
	if req.ID == nil {
		return fmt.Errorf("mgmt: join needs an id")
	}
	if len(req.Seeds) == 0 {
		return fmt.Errorf("mgmt: join needs seed ids (at least max(2, dL) live nodes)")
	}
	seeds := make([]peer.ID, len(req.Seeds))
	for i, s := range req.Seeds {
		if s == *req.ID {
			return fmt.Errorf("mgmt: node %d cannot seed its view with itself", s)
		}
		seeds[i] = peer.ID(s)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The daemon run loop drives rounds through Tick, so joined nodes are
	// picked up on the next round; no per-node timer to start.
	return l.opts.Sub.AddNode(peer.ID(*req.ID), seeds, false)
}

// Leave removes node id (no protocol action — the paper's leave).
func (l *Local) Leave(id int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < 0 || id >= l.opts.N {
		return fmt.Errorf("mgmt: node id %d outside cluster universe [0, %d)", id, l.opts.N)
	}
	if !l.opts.Sub.RemoveNode(peer.ID(id)) {
		return fmt.Errorf("mgmt: node %d is not active", id)
	}
	return nil
}

// Drain delivers everything in flight, then checks every live node's view
// invariant — the traffic identity Sends = Losses + Deliveries + DeadLetters
// holds exactly on the counters scraped afterwards.
func (l *Local) Drain() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.opts.Sub.DrainDelayed()
	return l.opts.Sub.CheckInvariants()
}

// Config returns the current configuration.
func (l *Local) Config() Config {
	l.mu.Lock()
	period, loss := l.period, l.loss
	l.mu.Unlock()
	return Config{
		Info: l.Info(),
		S:    l.opts.S, DL: l.opts.DL, Seed: l.opts.Seed,
		Period: period.String(), Loss: loss,
	}
}

// Reconfigure applies a live partial update: period retunes the daemon's
// tick cadence (via OnPeriod), loss swaps the fault layer's base model.
// Validation is all-or-nothing: a bad field leaves the whole update
// unapplied.
func (l *Local) Reconfigure(upd ConfigUpdate) error {
	var period time.Duration
	if upd.Period != nil {
		d, err := parsePeriod(*upd.Period)
		if err != nil {
			return err
		}
		period = d
	}
	if upd.Loss != nil && (*upd.Loss < 0 || *upd.Loss > 1) {
		return fmt.Errorf("mgmt: loss rate %g outside [0, 1]", *upd.Loss)
	}
	l.mu.Lock()
	if upd.Loss != nil {
		if err := l.opts.Sub.Conditions().SetRate(*upd.Loss); err != nil {
			l.mu.Unlock()
			return err
		}
		l.loss = *upd.Loss
	}
	if upd.Period != nil {
		l.period = period
	}
	l.mu.Unlock()
	if upd.Period != nil && l.opts.OnPeriod != nil {
		l.opts.OnPeriod(period)
	}
	return nil
}
