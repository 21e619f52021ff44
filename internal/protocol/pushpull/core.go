package pushpull

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node push-pull step core implementing protocol.StepCore:
// the keep-on-send push expressed over a single local view. The sequential
// Protocol adapter shares one Core across all nodes; the concurrent runtime
// builds one per node. Not safe for concurrent use.
type Core struct {
	s        int
	counters Counters
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a push-pull step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("pushpull: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "push-pull".
func (c *Core) Name() string { return "push-pull" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// Counters returns a copy of the core's event counters.
func (c *Core) Counters() Counters { return c.counters }

// SeedView fills a fresh view with the seed ids (at least one).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("pushpull: need at least one seed")
	}
	v := view.New(c.s)
	for i, id := range seeds {
		if i >= c.s {
			break
		}
		v.Set(i, id)
	}
	return v, nil
}

// Initiate pushes [u, w] to a random neighbor, keeping both entries — the
// defining difference from S&F.
func (c *Core) Initiate(lv *view.View, u peer.ID, r *rng.RNG) ([]protocol.Outgoing, bool) {
	c.counters.Initiations++
	i, j := lv.RandomPair(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		c.counters.SelfLoops++
		return nil, false
	}
	c.counters.Sends++
	return []protocol.Outgoing{{To: v, Msg: protocol.Message{
		Kind: protocol.KindGossip,
		From: u,
		IDs:  []peer.ID{u, w},
	}}}, true
}

// Receive stores the pushed ids, evicting random entries when the view is
// full. Push-pull never replies; non-gossip kinds are ignored.
func (c *Core) Receive(lv *view.View, u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Outgoing, bool) {
	if msg.Kind != protocol.KindGossip {
		return protocol.Outgoing{}, false
	}
	for _, id := range msg.IDs {
		if slot, ok := lv.RandomEmptySlot(r); ok {
			lv.Set(slot, id)
			continue
		}
		// Full view: overwrite a uniformly random entry.
		c.counters.Evictions++
		lv.Set(r.Intn(lv.Size()), id)
	}
	return protocol.Outgoing{}, false
}

// CheckView verifies internal view consistency; push-pull keeps no parity
// or floor invariant (views only ever gain or recycle ids).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
