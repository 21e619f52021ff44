package sendforget

import (
	"strings"
	"testing"
	"testing/quick"

	"sendforget/internal/graph"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

func mustNew(t *testing.T, cfg Config) *Protocol {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"valid", Config{N: 10, S: 8, DL: 2}, ""},
		{"valid paper params", Config{N: 100, S: 40, DL: 18}, ""},
		{"too few nodes", Config{N: 1, S: 8, DL: 0}, "at least 2 nodes"},
		{"odd s", Config{N: 10, S: 7, DL: 0}, "even and >= 6"},
		{"s too small", Config{N: 10, S: 4, DL: 0}, "even and >= 6"},
		{"odd dL", Config{N: 10, S: 12, DL: 3}, "even in [0, s-6]"},
		{"dL too large", Config{N: 10, S: 8, DL: 4}, "even in [0, s-6]"},
		{"negative dL", Config{N: 10, S: 8, DL: -2}, "even in [0, s-6]"},
		{"odd init degree", Config{N: 10, S: 8, DL: 0, InitDegree: 3}, "even in [dL, s]"},
		{"init degree above s", Config{N: 100, S: 8, DL: 0, InitDegree: 10}, "even in [dL, s]"},
		{"init degree >= n", Config{N: 5, S: 8, DL: 0, InitDegree: 6}, "below n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestInitialTopology(t *testing.T) {
	p := mustNew(t, Config{N: 12, S: 8, DL: 2, InitDegree: 4})
	g := graph.FromViews(p.Views())
	if !g.WeaklyConnected() {
		t.Fatal("initial circulant topology not weakly connected")
	}
	for u := 0; u < 12; u++ {
		if got := g.Outdegree(peer.ID(u)); got != 4 {
			t.Errorf("node %d initial outdegree = %d, want 4", u, got)
		}
		if got := g.Indegree(peer.ID(u)); got != 4 {
			t.Errorf("node %d initial indegree = %d, want 4", u, got)
		}
		if got := g.SumDegree(peer.ID(u)); got != 12 {
			t.Errorf("node %d initial sum degree = %d, want 12", u, got)
		}
	}
	if g.SelfEdges() != 0 {
		t.Errorf("initial topology has %d self edges", g.SelfEdges())
	}
}

func TestDefaultInitDegree(t *testing.T) {
	p := mustNew(t, Config{N: 100, S: 40, DL: 18})
	d := p.viewForTest(0).Outdegree()
	if d%2 != 0 || d < 18 || d > 40 {
		t.Errorf("default init degree %d outside even [18,40]", d)
	}
	// Tiny system: default degree must stay below n.
	p2 := mustNew(t, Config{N: 4, S: 8, DL: 0})
	d2 := p2.viewForTest(0).Outdegree()
	if d2 >= 4 || d2 < 2 || d2%2 != 0 {
		t.Errorf("small-n default init degree = %d", d2)
	}
}

// initiateUntilSend retries Initiate until a non-self-loop action fires
// (selections may hit empty slots; self-loops leave views unchanged).
func initiateUntilSend(t *testing.T, p *Protocol, u peer.ID, r *rng.RNG) (peer.ID, protocol.Message) {
	t.Helper()
	for k := 0; k < 1000; k++ {
		to, msg, ok := p.Initiate(u, r)
		if ok {
			return to, msg
		}
	}
	t.Fatalf("node %v produced no send in 1000 attempts", u)
	return 0, protocol.Message{}
}

func TestInitiateSendsSelfAndPayload(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 0, InitDegree: 4})
	r := rng.New(1)
	to, msg := initiateUntilSend(t, p, 3, r)
	if msg.From != 3 {
		t.Errorf("msg.From = %v, want n3", msg.From)
	}
	if len(msg.IDs) != 2 {
		t.Fatalf("msg.IDs = %v, want 2 ids", msg.IDs)
	}
	if msg.IDs[0] != 3 {
		t.Errorf("first id = %v, want sender id n3 (reinforcement)", msg.IDs[0])
	}
	if to == 3 {
		t.Errorf("message sent to self from non-self-containing view")
	}
	// Without duplication, outdegree drops by 2.
	if got := p.viewForTest(3).Outdegree(); got != 2 {
		t.Errorf("outdegree after send = %d, want 2", got)
	}
	if msg.Dup {
		t.Error("msg.Dup set for non-duplicating send")
	}
	c := p.Counters()
	if c.Sends != 1 || c.Duplications != 0 {
		t.Errorf("counters = %+v", c)
	}
	if c.Initiations != c.Sends+c.SelfLoops {
		t.Errorf("Initiations %d != Sends %d + SelfLoops %d", c.Initiations, c.Sends, c.SelfLoops)
	}
}

func TestInitiateDuplicatesAtThreshold(t *testing.T) {
	// InitDegree == DL: every send duplicates and outdegree never drops.
	p := mustNew(t, Config{N: 10, S: 12, DL: 4, InitDegree: 4})
	r := rng.New(2)
	_, msg := initiateUntilSend(t, p, 0, r)
	if !msg.Dup {
		t.Error("msg.Dup not set at threshold outdegree")
	}
	if got := p.viewForTest(0).Outdegree(); got != 4 {
		t.Errorf("outdegree after duplicating send = %d, want 4 (kept)", got)
	}
	if c := p.Counters(); c.Duplications != 1 {
		t.Errorf("Duplications = %d, want 1", c.Duplications)
	}
}

func TestInitiateSelfLoopOnEmptySelection(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 0, InitDegree: 2})
	r := rng.New(3)
	selfLoops, sends := 0, 0
	for k := 0; k < 200; k++ {
		// With outdegree 2 of 8 slots, most selections hit an empty slot.
		_, _, ok := p.Initiate(9, r)
		if ok {
			sends++
			// Put the ids back so the view never empties: deliver to self is
			// not allowed, so just stop after first send.
			break
		}
		selfLoops++
	}
	if sends == 0 && selfLoops == 0 {
		t.Fatal("no actions recorded")
	}
	c := p.Counters()
	if c.SelfLoops != selfLoops {
		t.Errorf("SelfLoops counter = %d, want %d", c.SelfLoops, selfLoops)
	}
}

func TestDeliverFillsEmptySlots(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 0, InitDegree: 2})
	msg := protocol.Message{Kind: protocol.KindGossip, From: 5, IDs: []peer.ID{5, 7}}
	r := rng.New(4)
	_, _, hasReply := p.Deliver(1, msg, r)
	if hasReply {
		t.Error("S&F produced a reply")
	}
	lv := p.viewForTest(1)
	if lv.Outdegree() != 4 {
		t.Errorf("outdegree after delivery = %d, want 4", lv.Outdegree())
	}
	if !lv.Contains(5) || !lv.Contains(7) {
		t.Errorf("view %v missing delivered ids", lv)
	}
}

// TestReceiveStepAllocFree: the scalar receive draws its two empty slots
// without allocating, whether it stores the ids or deletes them.
func TestReceiveStepAllocFree(t *testing.T) {
	for _, s := range []int{40, 90} { // occupancy mask and slot scan
		lv := view.New(s)
		for i := 0; i < s/2; i++ {
			lv.Set(2*i, peer.ID(i))
		}
		r := rng.New(6)
		ids := [2]peer.ID{5, 7}
		avg := testing.AllocsPerRun(200, func() {
			if slots, stored := ReceiveStep(lv, s, ids, r); stored {
				lv.Clear(slots[0])
				lv.Clear(slots[1])
			}
		})
		if avg != 0 {
			t.Errorf("s=%d: ReceiveStep allocates %.1f times per call, want 0", s, avg)
		}
	}
}

func TestDeliverDeletesWhenFull(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 6, DL: 0, InitDegree: 6})
	msg := protocol.Message{From: 5, IDs: []peer.ID{5, 7}}
	r := rng.New(5)
	p.Deliver(1, msg, r)
	if got := p.viewForTest(1).Outdegree(); got != 6 {
		t.Errorf("outdegree after full delivery = %d, want 6 (unchanged)", got)
	}
	if c := p.Counters(); c.Deletions != 1 {
		t.Errorf("Deletions = %d, want 1", c.Deletions)
	}
}

// runLossless drives actions manually, delivering every message.
func runLossless(t *testing.T, p *Protocol, actions int, seed int64) {
	t.Helper()
	r := rng.New(seed)
	n := p.N()
	for k := 0; k < actions; k++ {
		u := peer.ID(r.Intn(n))
		if !p.Active(u) {
			continue
		}
		to, msg, ok := p.Initiate(u, r)
		if !ok {
			continue
		}
		if p.Active(to) {
			p.Deliver(to, msg, r)
		}
	}
}

func TestInvariantOutdegreeBoundsLossless(t *testing.T) {
	p := mustNew(t, Config{N: 50, S: 12, DL: 4, InitDegree: 6})
	runLossless(t, p, 20000, 6)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSumDegreeInvariantNoLossNoDupNoDel(t *testing.T) {
	// Lemma 6.2: with no loss, dL = 0, and sum degrees <= s initially, sum
	// degrees are invariant. InitDegree d gives ds = 3d <= s.
	p := mustNew(t, Config{N: 30, S: 12, DL: 0, InitDegree: 4})
	runLossless(t, p, 20000, 7)
	g := graph.FromViews(p.Views())
	for u := 0; u < 30; u++ {
		if got := g.SumDegree(peer.ID(u)); got != 12 {
			t.Errorf("node %d sum degree = %d, want invariant 12", u, got)
		}
	}
	c := p.Counters()
	if c.Deletions != 0 {
		t.Errorf("deletions happened under the Lemma 6.2 conditions: %d", c.Deletions)
	}
	if c.Duplications != 0 {
		t.Errorf("duplications happened with dL=0 and positive degrees: %d", c.Duplications)
	}
}

func TestEdgeCountPreservedWithoutLoss(t *testing.T) {
	p := mustNew(t, Config{N: 40, S: 12, DL: 4, InitDegree: 4})
	before := graph.FromViews(p.Views()).NumEdges()
	runLossless(t, p, 30000, 8)
	after := graph.FromViews(p.Views()).NumEdges()
	// Without loss, edges change only via duplication (+2 per event) and
	// deletion (-2 per event); verify exact bookkeeping.
	c := p.Counters()
	want := before + 2*c.Duplications - 2*c.Deletions
	if after != want {
		t.Errorf("edges = %d, want %d (before %d, dup %d, del %d)", after, want, before, c.Duplications, c.Deletions)
	}
}

func TestWeakConnectivityMaintainedLossless(t *testing.T) {
	p := mustNew(t, Config{N: 60, S: 16, DL: 6, InitDegree: 8})
	runLossless(t, p, 50000, 9)
	g := graph.FromViews(p.Views())
	if !g.WeaklyConnected() {
		t.Errorf("graph disconnected after lossless run: %d components", g.ComponentCount())
	}
}

func TestJoinLeave(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 2, InitDegree: 4})
	p.Leave(5)
	if p.Active(5) {
		t.Fatal("node 5 active after Leave")
	}
	if p.View(5) != nil {
		t.Fatal("view visible after Leave")
	}
	if err := p.Join(5, []peer.ID{0, 1, 2, 3}); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if !p.Active(5) {
		t.Fatal("node 5 inactive after Join")
	}
	if got := p.View(5).Outdegree(); got != 4 {
		t.Errorf("joiner outdegree = %d, want 4", got)
	}
	if err := p.Join(5, []peer.ID{0, 1}); err == nil {
		t.Error("Join of active node accepted")
	}
}

func TestJoinValidatesSeeds(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 2, InitDegree: 4})
	p.Leave(7)
	if err := p.Join(7, nil); err == nil {
		t.Error("Join with no seeds accepted")
	}
	p2 := mustNew(t, Config{N: 10, S: 10, DL: 4, InitDegree: 4})
	p2.Leave(7)
	if err := p2.Join(7, []peer.ID{0, 1}); err == nil {
		t.Error("Join with fewer than dL seeds accepted")
	}
	// Odd seed count is truncated to even.
	p.Leave(8)
	if err := p.Join(8, []peer.ID{0, 1, 2}); err != nil {
		t.Fatalf("Join with 3 seeds: %v", err)
	}
	if got := p.View(8).Outdegree(); got != 2 {
		t.Errorf("joiner outdegree after odd seeds = %d, want 2", got)
	}
	// Seed overflow is truncated to s.
	p.Leave(9)
	seeds := make([]peer.ID, 11)
	for i := range seeds {
		seeds[i] = peer.ID(i % 7)
	}
	if err := p.Join(9, seeds); err != nil {
		t.Fatalf("Join with overflow seeds: %v", err)
	}
	if got := p.View(9).Outdegree(); got != 8 {
		t.Errorf("joiner outdegree after overflow seeds = %d, want 8", got)
	}
}

func TestDepartedNodeIgnored(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 2, InitDegree: 4})
	p.Leave(3)
	r := rng.New(10)
	if _, _, ok := p.Initiate(3, r); ok {
		t.Error("departed node initiated an action")
	}
	// Delivering to a departed node must not panic and must not revive it.
	p.Deliver(3, protocol.Message{From: 0, IDs: []peer.ID{0, 1}}, r)
	if p.Active(3) {
		t.Error("delivery revived departed node")
	}
}

func TestDependenceTrackingLossless(t *testing.T) {
	p := mustNew(t, Config{N: 50, S: 12, DL: 0, InitDegree: 4, TrackDependence: true})
	runLossless(t, p, 30000, 11)
	st := p.DependenceStats()
	if st.Entries == 0 {
		t.Fatal("no entries measured")
	}
	if st.Tagged != 0 {
		t.Errorf("lossless dL=0 run tagged %d entries dependent", st.Tagged)
	}
	// Self-edges and duplicates can still occur by the protocol's own
	// mixing; alpha should nevertheless be high.
	if a := st.Alpha(); a < 0.9 {
		t.Errorf("lossless alpha = %v, want >= 0.9 (stats %+v)", a, st)
	}
}

func TestDependenceStatsWithoutTracking(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 2, InitDegree: 4})
	st := p.DependenceStats()
	if st != (DependenceStats{}) {
		t.Errorf("DependenceStats without tracking = %+v, want zero", st)
	}
	if st.Alpha() != 1 {
		t.Errorf("zero-value Alpha = %v, want 1", st.Alpha())
	}
	if p.dependentSlots(0) != nil {
		t.Error("dependentSlots non-nil without tracking")
	}
}

func TestDuplicationMarksDependence(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 12, DL: 4, InitDegree: 4, TrackDependence: true})
	r := rng.New(12)
	to, msg := initiateUntilSend(t, p, 0, r)
	if !msg.Dup {
		t.Fatal("expected duplicating send")
	}
	p.Deliver(to, msg, r)
	st := p.DependenceStats()
	// Two kept entries at the sender + two created at the receiver.
	if st.Tagged < 4 {
		t.Errorf("Tagged = %d, want >= 4 after one duplication", st.Tagged)
	}
}

func TestName(t *testing.T) {
	p := mustNew(t, Config{N: 10, S: 8, DL: 2})
	if p.Name() != "send&forget" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.N() != 10 {
		t.Errorf("N = %d", p.N())
	}
	if p.Config().S != 8 {
		t.Errorf("Config().S = %d", p.Config().S)
	}
}

func TestQuickInvariantsUnderRandomDriving(t *testing.T) {
	// Property: under arbitrary loss patterns and scheduling, outdegrees
	// stay even and within [dL, s].
	f := func(seed int64, lossPct uint8) bool {
		p, err := New(Config{N: 20, S: 10, DL: 2, InitDegree: 4})
		if err != nil {
			return false
		}
		r := rng.New(seed)
		pLoss := float64(lossPct%100) / 100
		for k := 0; k < 2000; k++ {
			u := peer.ID(r.Intn(20))
			to, msg, ok := p.Initiate(u, r)
			if !ok {
				continue
			}
			if !r.Bernoulli(pLoss) {
				p.Deliver(to, msg, r)
			}
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
