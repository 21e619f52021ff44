package sendforget

import (
	"sendforget/internal/peer"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

// The functions in this file are the raw protocol steps of Figure 5.1,
// operating on a single node's view. Both the centralized Protocol (driven
// by the sequential engine) and the concurrent runtime (one goroutine per
// node, internal/runtime) execute exactly this code, so the simulated and
// the distributed protocol cannot drift apart.

// Send is the message produced by an initiate step: [u, w] addressed to v.
type Send struct {
	To  peer.ID    // v, the first selected entry
	IDs [2]peer.ID // [u, w]: the sender's own id and the second entry
	Dup bool       // whether the action duplicated (kept) the entries
}

// InitiateStep runs S&F-InitiateAction for node u over view lv with
// duplication threshold dl. It returns ok = false for a self-loop
// transformation (an empty entry was selected; the view is unchanged).
// slots reports the two selected slot indices for dependence tracking.
func InitiateStep(lv *view.View, u peer.ID, dl int, r *rng.RNG) (send Send, slots [2]int, ok bool) {
	i, j := lv.RandomPair(r)
	v, w := lv.Slot(i), lv.Slot(j)
	if v.IsNil() || w.IsNil() {
		return Send{}, [2]int{}, false
	}
	dup := lv.Outdegree() <= dl
	if !dup {
		// Both slots were just read non-Nil, so the fused clear applies.
		lv.ClearOccupiedPair(i, j)
	}
	return Send{To: v, IDs: [2]peer.ID{u, w}, Dup: dup}, [2]int{i, j}, true
}

// ReceiveStep runs S&F-Receive over view lv with view size bound s. It
// returns stored = false when the view was full and the ids were deleted.
// slots reports where the ids were stored, for dependence tracking.
//
//vet:hotpath
func ReceiveStep(lv *view.View, s int, ids [2]peer.ID, r *rng.RNG) (slots [2]int, stored bool) {
	if lv.Outdegree() >= s {
		return [2]int{}, false
	}
	a, b, ok := lv.ChooseEmptyPair(r)
	if !ok {
		// Outdegree below s with even parity guarantees two empty slots;
		// reaching here means the view invariant was violated externally.
		return [2]int{}, false
	}
	lv.FillEmptyPair(a, b, ids[0], ids[1])
	return [2]int{a, b}, true
}
