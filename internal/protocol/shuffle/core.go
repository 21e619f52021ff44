package shuffle

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node shuffle step core implementing protocol.StepCore:
// the delete-on-send exchange expressed over a single local view. The
// sequential Protocol adapter shares one Core across all nodes; the
// concurrent runtime builds one per node. Not safe for concurrent use.
type Core struct {
	s        int
	counters Counters
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a shuffle step core with view size s.
func NewCore(s int) (*Core, error) {
	if s < 2 {
		return nil, fmt.Errorf("shuffle: view size must be >= 2, got %d", s)
	}
	return &Core{s: s}, nil
}

// Name returns "shuffle".
func (c *Core) Name() string { return "shuffle" }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.s }

// Counters returns a copy of the core's event counters.
func (c *Core) Counters() Counters { return c.counters }

// SeedView fills a fresh view with the seed ids (at least one).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("shuffle: need at least one seed")
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

// Initiate removes two entries (the exchange offer) and sends them to the
// first as a request.
func (c *Core) Initiate(lv *view.View, u peer.ID, r *rng.RNG) ([]protocol.Outgoing, bool) {
	c.counters.Initiations++
	i, j := lv.RandomPair(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		c.counters.SelfLoops++
		return nil, false
	}
	lv.Clear(i)
	lv.Clear(j)
	c.counters.Requests++
	return []protocol.Outgoing{{To: v, Msg: protocol.Message{
		Kind: protocol.KindRequest,
		From: u,
		IDs:  []peer.ID{u, w},
	}}}, true
}

// Receive handles requests (store ids, remove and reply with two own
// entries) and replies (store ids). Messages of other kinds are ignored.
func (c *Core) Receive(lv *view.View, u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Outgoing, bool) {
	switch msg.Kind {
	case protocol.KindRequest:
		c.store(lv, msg.IDs, r)
		// Offer up to two of our own entries back, removing them.
		occupied := lv.OccupiedSlots()
		k := 2
		if len(occupied) < k {
			k = len(occupied)
		}
		if k == 0 {
			return protocol.Outgoing{}, false
		}
		var offer []peer.ID
		for _, idx := range r.Choose(len(occupied), k) {
			slot := occupied[idx]
			offer = append(offer, lv.Slot(slot))
			lv.Clear(slot)
		}
		c.counters.Replies++
		return protocol.Outgoing{To: msg.From, Msg: protocol.Message{
			Kind: protocol.KindReply,
			From: u,
			IDs:  offer,
		}}, true
	case protocol.KindReply:
		c.store(lv, msg.IDs, r)
		return protocol.Outgoing{}, false
	default:
		return protocol.Outgoing{}, false
	}
}

// store places ids into uniformly chosen empty slots, dropping ids that do
// not fit (counted).
func (c *Core) store(lv *view.View, ids []peer.ID, r *rng.RNG) {
	for _, id := range ids {
		slot, ok := lv.RandomEmptySlot(r)
		if !ok {
			c.counters.Dropped++
			continue
		}
		lv.Set(slot, id)
	}
}

// CheckView verifies internal view consistency; the shuffle keeps no parity
// or floor invariant (under loss its id population only decays).
func (c *Core) CheckView(lv *view.View) error {
	return lv.CheckInvariants()
}
