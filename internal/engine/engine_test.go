package engine

import (
	"math"
	"runtime"
	"testing"

	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/protocol/pushpull"
	"sendforget/internal/protocol/sendforget"
	"sendforget/internal/protocol/shuffle"
	"sendforget/internal/rng"
	"sendforget/internal/view"
)

func newSF(t *testing.T, n int) *sendforget.Protocol {
	t.Helper()
	p, err := sendforget.New(sendforget.Config{N: n, S: 12, DL: 4, InitDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	p := newSF(t, 10)
	r := rng.New(1)
	if _, err := New(nil, loss.None{}, r); err == nil {
		t.Error("accepted nil protocol")
	}
	if _, err := New(p, nil, r); err == nil {
		t.Error("accepted nil loss model")
	}
	if _, err := New(p, loss.None{}, nil); err == nil {
		t.Error("accepted nil rng")
	}
	e, err := New(p, loss.None{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 10 {
		t.Errorf("ActiveCount = %d, want 10", e.ActiveCount())
	}
	if e.Protocol() != p {
		t.Error("Protocol() does not return the driven protocol")
	}
}

func TestNewExcludesDepartedNodes(t *testing.T) {
	p := newSF(t, 10)
	p.Leave(3)
	e, err := New(p, loss.None{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 9 {
		t.Errorf("ActiveCount = %d, want 9", e.ActiveCount())
	}
}

func TestNewRejectsEmptyPool(t *testing.T) {
	p := newSF(t, 8)
	for u := 0; u < 8; u++ {
		p.Leave(peer.ID(u))
	}
	if _, err := New(p, loss.None{}, rng.New(1)); err == nil {
		t.Error("accepted protocol with no active nodes")
	}
}

func TestRoundStepAccounting(t *testing.T) {
	p := newSF(t, 25)
	e, err := New(p, loss.None{}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4)
	c := e.Counters()
	if c.Steps != 100 {
		t.Errorf("Steps after 4 rounds of 25 = %d, want 100", c.Steps)
	}
	if c.Sends != c.Deliveries+c.Losses+c.DeadLetters {
		t.Errorf("send accounting broken: %+v", c)
	}
	if c.Losses != 0 {
		t.Errorf("lossless run recorded %d losses", c.Losses)
	}
}

func TestOnStepHook(t *testing.T) {
	p := newSF(t, 10)
	e, err := New(p, loss.None{}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	e.OnStep = func(step int) { got = append(got, step) }
	e.Run(1)
	if len(got) != 10 {
		t.Fatalf("hook fired %d times, want 10", len(got))
	}
	for i, s := range got {
		if s != i+1 {
			t.Fatalf("hook sequence %v", got)
		}
	}
}

func TestEmpiricalLossRate(t *testing.T) {
	p := newSF(t, 50)
	e, err := New(p, loss.MustUniform(0.1), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(400)
	c := e.Counters()
	if c.Sends < 1000 {
		t.Fatalf("too few sends (%d) for a rate estimate", c.Sends)
	}
	if math.Abs(c.LossRate()-0.1) > 0.02 {
		t.Errorf("empirical loss rate %v, want ~0.1", c.LossRate())
	}
}

func TestLossRateEmptyCounters(t *testing.T) {
	var c Counters
	if c.LossRate() != 0 {
		t.Errorf("LossRate on zero counters = %v", c.LossRate())
	}
}

func TestInvariantsAfterLossyRun(t *testing.T) {
	p := newSF(t, 60)
	e, err := New(p, loss.MustUniform(0.05), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(300)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	g := e.Snapshot()
	if !g.WeaklyConnected() {
		t.Errorf("graph disconnected after moderate-loss run: %d components", g.ComponentCount())
	}
}

func TestChurnThroughEngine(t *testing.T) {
	p := newSF(t, 20)
	e, err := New(p, loss.None{}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(7); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 19 {
		t.Errorf("ActiveCount after leave = %d, want 19", e.ActiveCount())
	}
	e.Run(50)
	// The departed id must decay out of all views (Lemma 6.10 dynamics;
	// 50 rounds at these parameters is ample for n=20).
	g := e.Snapshot()
	if inst := g.IDInstances(7); inst > 2 {
		t.Errorf("departed id still has %d instances after 50 rounds", inst)
	}
	if err := e.Join(7, []peer.ID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 20 {
		t.Errorf("ActiveCount after join = %d, want 20", e.ActiveCount())
	}
	e.Run(20)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Double leave is harmless.
	if err := e.Leave(7); err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(7); err != nil {
		t.Fatal(err)
	}
	if e.ActiveCount() != 19 {
		t.Errorf("ActiveCount after double leave = %d, want 19", e.ActiveCount())
	}
}

func TestDeadLetters(t *testing.T) {
	p := newSF(t, 10)
	e, err := New(p, loss.None{}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(0); err != nil {
		t.Fatal(err)
	}
	e.Run(200)
	if e.Counters().DeadLetters == 0 {
		t.Error("no dead letters recorded despite messages to the departed node")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleReplyChainsThroughLoss(t *testing.T) {
	p, err := shuffle.New(shuffle.Config{N: 30, S: 10, InitDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, loss.MustUniform(0.2), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot().NumEdges()
	e.Run(300)
	after := e.Snapshot().NumEdges()
	if after >= before {
		t.Errorf("shuffle under 20%% loss did not lose ids: %d -> %d", before, after)
	}
	c := e.Counters()
	if c.Deliveries == 0 || c.Losses == 0 {
		t.Errorf("expected both deliveries and losses: %+v", c)
	}
	// Replies mean more sends than steps that emitted a request.
	if c.Sends <= c.Steps-p.Counters().SelfLoops {
		t.Errorf("no replies counted: sends=%d steps=%d", c.Sends, c.Steps)
	}
}

func TestPushPullStableUnderLoss(t *testing.T) {
	p, err := pushpull.New(pushpull.Config{N: 30, S: 10})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, loss.MustUniform(0.2), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot().NumEdges()
	e.Run(300)
	after := e.Snapshot().NumEdges()
	if after < before {
		t.Errorf("push-pull lost ids under loss: %d -> %d", before, after)
	}
}

func TestChurnUnsupportedProtocol(t *testing.T) {
	// A minimal protocol without Churner support.
	p := newSF(t, 10)
	e, err := New(nonChurner{p}, loss.None{}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(1); err == nil {
		t.Error("Leave accepted on non-churner protocol")
	}
	if err := e.Join(1, []peer.ID{0}); err == nil {
		t.Error("Join accepted on non-churner protocol")
	}
}

// nonChurner forwards only the core Protocol methods, hiding the Churner
// interface of the wrapped protocol.
type nonChurner struct{ p *sendforget.Protocol }

func (nc nonChurner) Name() string { return nc.p.Name() }
func (nc nonChurner) N() int       { return nc.p.N() }
func (nc nonChurner) View(u peer.ID) *view.View {
	return nc.p.View(u)
}
func (nc nonChurner) Initiate(u peer.ID, r *rng.RNG) (peer.ID, protocol.Message, bool) {
	return nc.p.Initiate(u, r)
}
func (nc nonChurner) Deliver(u peer.ID, msg protocol.Message, r *rng.RNG) (protocol.Message, peer.ID, bool) {
	return nc.p.Deliver(u, msg, r)
}

func TestOnActionEvents(t *testing.T) {
	p := newSF(t, 20)
	e, err := New(p, loss.MustUniform(0.3), rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	var events []ActionEvent
	e.OnAction = func(ev ActionEvent) { events = append(events, ev) }
	e.Run(30)
	if len(events) != 600 {
		t.Fatalf("events = %d, want 600", len(events))
	}
	sent, lost, selfLoops, delivered := 0, 0, 0, 0
	for i, ev := range events {
		if ev.Step != i+1 {
			t.Fatalf("event %d has step %d", i, ev.Step)
		}
		if !ev.Sent {
			selfLoops++
			if ev.Lost || ev.Delivered > 0 {
				t.Fatalf("self-loop event with transport outcomes: %+v", ev)
			}
			continue
		}
		sent++
		if ev.Lost {
			lost++
		}
		delivered += ev.Delivered
	}
	c := e.Counters()
	if sent != c.Sends {
		t.Errorf("event sends %d != counter %d", sent, c.Sends)
	}
	if lost != c.Losses {
		t.Errorf("event losses %d != counter %d", lost, c.Losses)
	}
	if delivered != c.Deliveries {
		t.Errorf("event deliveries %d != counter %d", delivered, c.Deliveries)
	}
	if selfLoops == 0 || lost == 0 || delivered == 0 {
		t.Errorf("expected a mix of outcomes: self=%d lost=%d delivered=%d", selfLoops, lost, delivered)
	}
}

// TestStepAllocationsPerStep counts heap allocations over many S&F steps
// exactly. BenchmarkEngineStep cannot guard this: -benchmem rounds
// allocs/op down, so a fractional rate per step reads as zero there. The
// remaining allocations are the scalar initiate's message buffers, made
// only when a step sends.
func TestStepAllocationsPerStep(t *testing.T) {
	p, err := sendforget.New(sendforget.Config{N: 1000, S: 40, DL: 18})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p, loss.MustUniform(0.01), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	const steps = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		e.Step()
	}
	runtime.ReadMemStats(&after)
	if perStep := float64(after.Mallocs-before.Mallocs) / steps; perStep >= 1 {
		t.Errorf("engine step allocates %.3f times per step, want fewer than 1", perStep)
	}
}
