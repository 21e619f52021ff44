package sfopt

import (
	"fmt"

	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// Core is the per-node step core of the optimized S&F variants,
// implementing protocol.StepCore. Unlike the stateless baselines it carries
// per-node auxiliary state (the undeletion graveyard), so every node —
// sequential adapter slot or concurrent runtime node — gets its own
// instance. Not safe for concurrent use.
type Core struct {
	opts     Options
	counters Counters
	// The graveyard is a bounded FIFO ring over a preallocated buffer:
	// bury evicts the oldest entry on overflow, exhume pops the most
	// recent. A ring rather than a slice so the batch path stays
	// allocation-free; it is protocol state (not a diagnostic), so both
	// the scalar and the batch step maintain it.
	grave        []peer.ID
	gHead, gLen  int
	slotsScratch []int     // batch-path slot selection, len BatchK
	payload      []peer.ID // batch-path message payload, len BatchK
}

var _ protocol.StepCore = (*Core)(nil)

// NewCore builds a variant step core. Only the per-node fields of Options
// (S, DL, BatchK, ReplaceWhenFull, Undelete, GraveyardSize) matter here;
// system-level fields (N, InitDegree) are ignored.
func NewCore(opts Options) (*Core, error) {
	if err := opts.validateCore(); err != nil {
		return nil, err
	}
	if opts.BatchK == 0 {
		opts.BatchK = 2
	}
	if opts.GraveyardSize == 0 {
		opts.GraveyardSize = opts.S
	}
	c := &Core{
		opts:         opts,
		slotsScratch: make([]int, opts.BatchK),
		payload:      make([]peer.ID, opts.BatchK),
	}
	if opts.Undelete {
		c.grave = make([]peer.ID, opts.GraveyardSize)
	}
	return c, nil
}

// Name identifies the active variant combination.
func (c *Core) Name() string { return c.opts.variantName() }

// ViewSize returns s.
func (c *Core) ViewSize() int { return c.opts.S }

// Counters returns a copy of the core's event counters.
func (c *Core) Counters() Counters { return c.counters }

// SeedView fills a fresh view with the seed ids, truncated to an even count
// of at most s entries (the variants keep S&F's parity discipline).
func (c *Core) SeedView(seeds []peer.ID) (*view.View, error) {
	k := len(seeds)
	if k > c.opts.S {
		k = c.opts.S
	}
	if k%2 != 0 {
		k--
	}
	if k < 2 {
		return nil, fmt.Errorf("sfopt: need at least 2 usable seeds, got %d", k)
	}
	v := view.New(c.opts.S)
	for i := 0; i < k; i++ {
		v.Set(i, seeds[i])
	}
	return v, nil
}

// Initiate selects BatchK distinct slots; the first non-empty rule of the
// baseline generalizes to all selected slots being non-empty (a single
// empty selection is a self-loop, keeping the analysis clean).
func (c *Core) Initiate(lv *view.View, u peer.ID, r *rng.RNG) ([]protocol.Outgoing, bool) {
	c.counters.Initiations++
	k := c.opts.BatchK
	slots := r.Choose(lv.Size(), k)
	ids := make([]peer.ID, 0, k)
	for _, slot := range slots {
		id := lv.Slot(slot)
		if id.IsNil() {
			c.counters.SelfLoops++
			return nil, false
		}
		ids = append(ids, id)
	}
	target := ids[0]
	atFloor := lv.Outdegree() <= c.opts.DL
	switch {
	case !atFloor:
		for _, slot := range slots {
			c.bury(lv.Slot(slot))
			lv.Clear(slot)
		}
	case c.opts.Undelete && c.gLen >= k:
		// Optimization 1: clear the sent entries but refill from the
		// graveyard — fresh-ish ids instead of correlated copies.
		for _, slot := range slots {
			lv.Clear(slot)
		}
		for i := 0; i < k; i++ {
			id := c.exhume()
			if slot, ok := lv.RandomEmptySlot(r); ok {
				lv.Set(slot, id)
			}
		}
		c.counters.Undeletions++
	default:
		// Baseline duplication: keep the entries.
		c.counters.Duplications++
	}
	c.counters.Sends++
	payload := make([]peer.ID, k)
	payload[0] = u
	copy(payload[1:], ids[1:])
	return []protocol.Outgoing{{To: target, Msg: protocol.Message{
		Kind: protocol.KindGossip,
		From: u,
		IDs:  payload,
		Dup:  atFloor,
	}}}, true
}

// Receive stores the batch, replacing or deleting on overflow per the
// options. Parity of the outdegree is preserved: the number of empty slots
// is even, so the count stored into empties is even whenever the batch is.
// Non-gossip kinds are ignored.
func (c *Core) Receive(lv *view.View, u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Outgoing, bool) {
	if msg.Kind != protocol.KindGossip {
		return protocol.Outgoing{}, false
	}
	c.counters.Receives++
	for _, id := range msg.IDs {
		if slot, ok := lv.RandomEmptySlot(r); ok {
			lv.Set(slot, id)
			c.counters.Stored++
			continue
		}
		if c.opts.ReplaceWhenFull {
			slot := r.Intn(lv.Size())
			c.bury(lv.Slot(slot))
			lv.Set(slot, id)
			c.counters.Replaced++
			continue
		}
		c.counters.Deleted++
	}
	return protocol.Outgoing{}, false
}

// bury pushes id onto the graveyard ring (bounded FIFO: the oldest entry is
// evicted on overflow).
func (c *Core) bury(id peer.ID) {
	if !c.opts.Undelete || id.IsNil() {
		return
	}
	size := len(c.grave)
	if c.gLen == size {
		c.gHead = (c.gHead + 1) % size
		c.gLen--
	}
	c.grave[(c.gHead+c.gLen)%size] = id
	c.gLen++
}

// exhume pops the most recently buried id.
func (c *Core) exhume() peer.ID {
	c.gLen--
	return c.grave[(c.gHead+c.gLen)%len(c.grave)]
}

// CheckView verifies even outdegree within [0, s]. The variant relaxes the
// hard dL floor only in that undeletion may briefly leave fewer live
// entries if the graveyard ran dry mid-refill; parity must still hold.
func (c *Core) CheckView(lv *view.View) error {
	if err := lv.CheckInvariants(); err != nil {
		return err
	}
	if lv.Outdegree()%2 != 0 {
		return fmt.Errorf("sfopt: odd outdegree %d", lv.Outdegree())
	}
	if lv.Outdegree() > c.opts.S {
		return fmt.Errorf("sfopt: outdegree %d exceeds s", lv.Outdegree())
	}
	return nil
}
