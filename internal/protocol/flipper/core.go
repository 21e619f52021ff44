package flipper

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node 1-flipper step core implementing protocol.StepCore:
// one side of the atomic edge exchange expressed over a single local view.
// The sequential Protocol adapter shares one Core across all nodes; the
// concurrent runtime builds one per node. Not safe for concurrent use.
type Core struct {
	s        int
	counters Counters
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a flipper step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("flipper: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "flipper".
func (c *Core) Name() string { return "flipper" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// Counters returns a copy of the core's event counters.
func (c *Core) Counters() Counters { return c.counters }

// SeedView fills a fresh view with the seed ids (at least one).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("flipper: need at least one seed")
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

// Initiate starts a flip: u removes its payload edge (u, w) and offers it
// to its out-neighbor v. The edge (u, v) itself stays put — it is the rail
// the exchange travels on.
func (c *Core) Initiate(lv *view.View, u peer.ID, r *rng.RNG) ([]protocol.Outgoing, bool) {
	c.counters.Initiations++
	i, j := lv.RandomPair(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() || v == w {
		// Parallel-edge selections make degenerate flips; treat them as
		// self-loops like empty selections.
		c.counters.SelfLoops++
		return nil, false
	}
	lv.Clear(j) // the payload edge (u, w) leaves u
	c.counters.Requests++
	return []protocol.Outgoing{{To: v, Msg: protocol.Message{
		Kind: protocol.KindRequest,
		From: u,
		IDs:  []peer.ID{w},
	}}}, true
}

// Receive handles flip requests (store w, detach one own edge z, reply) and
// replies (store z). Other kinds and malformed arities are ignored.
func (c *Core) Receive(lv *view.View, u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Outgoing, bool) {
	switch msg.Kind {
	case protocol.KindRequest:
		if len(msg.IDs) != 1 {
			return protocol.Outgoing{}, false
		}
		// Detach a random own edge z to send back, then adopt w in its
		// place — outdegree unchanged.
		occupied := lv.OccupiedSlots()
		if len(occupied) == 0 {
			// Degenerate: nothing to swap; adopt w if possible.
			c.store(lv, msg.IDs[0], r)
			return protocol.Outgoing{}, false
		}
		slot := occupied[r.Intn(len(occupied))]
		z := lv.Slot(slot)
		lv.Clear(slot)
		c.store(lv, msg.IDs[0], r)
		c.counters.Replies++
		return protocol.Outgoing{To: msg.From, Msg: protocol.Message{
			Kind: protocol.KindReply,
			From: u,
			IDs:  []peer.ID{z},
		}}, true
	case protocol.KindReply:
		if len(msg.IDs) != 1 {
			return protocol.Outgoing{}, false
		}
		c.store(lv, msg.IDs[0], r)
		return protocol.Outgoing{}, false
	default:
		return protocol.Outgoing{}, false
	}
}

// store places id into a uniformly chosen empty slot, dropping it (counted)
// when the view is full.
func (c *Core) store(lv *view.View, id peer.ID, r *rng.RNG) {
	slot, ok := lv.RandomEmptySlot(r)
	if !ok {
		c.counters.Dropped++
		return
	}
	lv.Set(slot, id)
}

// CheckView verifies internal view consistency; the flipper keeps no parity
// or floor invariant (under loss its edge population only decays).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
