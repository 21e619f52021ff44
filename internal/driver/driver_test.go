package driver_test

import (
	"slices"
	"testing"

	"sendforget/internal/driver"
	"sendforget/internal/faults"
	"sendforget/internal/loss"
	"sendforget/internal/peer"
	"sendforget/internal/protocol"
	"sendforget/internal/rng"
)

// conditions builds a fault stack with uniform loss p and delay d.
func conditions(t testing.TB, p float64, d faults.Delay) *faults.Conditions {
	t.Helper()
	c, err := faults.New(loss.MustUniform(p))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDelay(d); err != nil {
		t.Fatal(err)
	}
	return c
}

// payload returns message tag's ids: one id for even tags, three (an arena
// payload) for odd ones, each derived from the tag so a drained message can
// be matched to its send.
func payload(tag int) []peer.ID {
	if tag%2 == 0 {
		return []peer.ID{peer.ID(tag)}
	}
	return []peer.ID{peer.ID(tag), peer.ID(tag + 1), peer.ID(tag + 2)}
}

// checkPayload fails unless ids is exactly payload(tag) for the tag in ids[0].
func checkPayload(t *testing.T, ids []peer.ID) int {
	t.Helper()
	if len(ids) == 0 {
		t.Fatal("drained message has no ids")
	}
	tag := int(ids[0])
	if want := payload(tag); !slices.Equal(ids, want) {
		t.Fatalf("drained ids %v, want %v", ids, want)
	}
	return tag
}

func allLive(peer.ID) bool { return true }

// drainDue hands every message due by the current clock to visit, bucket
// by bucket.
func drainDue(rt *driver.Router, visit func(b *protocol.Outbox, m *protocol.FlatMsg)) {
	for {
		b, ok := rt.Due()
		if !ok {
			return
		}
		for i := range b.Msgs {
			visit(&b, &b.Msgs[i])
		}
	}
}

// drainAll ticks and drains until the queue is empty, failing (instead of
// spinning) if messages stay pending far beyond any delay the tests use.
func drainAll(t *testing.T, rt *driver.Router, visit func(b *protocol.Outbox, m *protocol.FlatMsg)) {
	t.Helper()
	for ticks := 0; rt.Pending() > 0; ticks++ {
		if ticks > 1000 {
			t.Fatalf("%d messages still pending after %d ticks", rt.Pending(), ticks)
		}
		rt.Tick()
		drainDue(rt, visit)
	}
}

// resolve is the drain-time liveness check, as a drain visitor.
func resolve(rt *driver.Router) func(*protocol.Outbox, *protocol.FlatMsg) {
	return func(_ *protocol.Outbox, m *protocol.FlatMsg) { rt.Deliverable(m.To) }
}

// TestDrainOrderMatchesReference holds the calendar ring to the (due,
// enqueue) order of a reference sort. A twin fault stack fed the same
// stream in lockstep predicts every verdict, so the test knows each parked
// message's due tick. The run raises the delay mid-run (the ring must grow
// with messages in flight) and ticks several times without draining.
func TestDrainOrderMatchesReference(t *testing.T) {
	d := faults.Delay{Fixed: 1, Jitter: 3}
	cond := conditions(t, 0.1, d)
	rt := driver.NewRouter(cond, rng.New(7), allLive)
	twin, twinRNG := conditions(t, 0.1, d), rng.New(7)

	type ref struct{ due, seq, tag int }
	var want []ref // parked, not yet drained
	clock, seq, tag := 0, 0, 0
	drain := func() {
		slices.SortFunc(want, func(a, b ref) int {
			if a.due != b.due {
				return a.due - b.due
			}
			return a.seq - b.seq
		})
		n := 0
		for n < len(want) && want[n].due <= clock {
			n++
		}
		var got []int
		drainDue(rt, func(b *protocol.Outbox, m *protocol.FlatMsg) {
			got = append(got, checkPayload(t, b.MsgIDs(m)))
		})
		if len(got) != n {
			t.Fatalf("clock %d: drained %d messages, want %d", clock, len(got), n)
		}
		for i, g := range got {
			if g != want[i].tag {
				t.Fatalf("clock %d: drain position %d holds tag %d, want %d (due %d, seq %d)",
					clock, i, g, want[i].tag, want[i].due, want[i].seq)
			}
		}
		want = want[n:]
	}
	for round := 1; round <= 120; round++ {
		if round == 40 {
			d = faults.Delay{Fixed: 9, Jitter: 5}
			for _, c := range []*faults.Conditions{cond, twin} {
				if err := c.SetDelay(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round == 80 {
			d = faults.Delay{Fixed: 30, Jitter: 2}
			for _, c := range []*faults.Conditions{cond, twin} {
				if err := c.SetDelay(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		rt.Tick()
		clock++
		// Drain on most rounds; skip runs of three to leave several due
		// buckets for one drain.
		if round%7 > 2 {
			drain()
		}
		for k := 0; k < 50; k++ {
			tag++
			from, to := peer.ID(tag%13), peer.ID(tag%17)
			v := twin.Decide(from, to, twinRNG)
			out := rt.Route(to, protocol.Message{From: from, IDs: payload(tag)})
			switch {
			case v.Drop != faults.DropNone:
				if out != driver.Dropped {
					t.Fatalf("tag %d: outcome %v, twin verdict %+v", tag, out, v)
				}
			case v.Delay > 0:
				if out != driver.Parked {
					t.Fatalf("tag %d: outcome %v, twin verdict %+v", tag, out, v)
				}
				seq++
				want = append(want, ref{due: clock + v.Delay, seq: seq, tag: tag})
			default:
				if out != driver.Delivered {
					t.Fatalf("tag %d: outcome %v, twin verdict %+v", tag, out, v)
				}
			}
		}
		if rt.Pending() != len(want) {
			t.Fatalf("round %d: Pending %d, want %d", round, rt.Pending(), len(want))
		}
	}
	for ticks := 0; rt.Pending() > 0; ticks++ {
		if ticks > 1000 {
			t.Fatalf("%d messages still pending after %d ticks", rt.Pending(), ticks)
		}
		rt.Tick()
		clock++
		drain()
	}
	if len(want) != 0 {
		t.Fatalf("%d messages never drained", len(want))
	}
}

// TestLedgerConservedAfterDrain checks the traffic identity Sends = Losses
// + Deliveries + DeadLetters once the queue is drained, with loss, delay
// and departed destinations (which dead-letter at route or drain time).
func TestLedgerConservedAfterDrain(t *testing.T) {
	departed := func(id peer.ID) bool { return id%7 == 0 }
	live := func(id peer.ID) bool { return !departed(id) }
	rt := driver.NewRouter(conditions(t, 0.05, faults.Delay{Fixed: 1, Jitter: 4}), rng.New(3), live)
	parked := 0
	for round := 0; round < 30; round++ {
		rt.Tick()
		drainDue(rt, resolve(rt))
		for k := 0; k < 200; k++ {
			if rt.Route(peer.ID(k%50), protocol.Message{From: 1, IDs: payload(k)}) == driver.Parked {
				parked++
			}
		}
	}
	drainAll(t, rt, resolve(rt))
	l := rt.Ledger()
	if l.Sends != l.Losses+l.Deliveries+l.DeadLetters {
		t.Fatalf("ledger %+v: Sends != Losses + Deliveries + DeadLetters", l)
	}
	if !rt.Traffic().Conserved() {
		t.Fatalf("traffic %+v not conserved", rt.Traffic())
	}
	if l.Delayed != parked || parked == 0 {
		t.Fatalf("Delayed = %d, want %d parked messages (nonzero)", l.Delayed, parked)
	}
	if l.DeadLetters == 0 || l.Losses == 0 {
		t.Fatalf("ledger %+v: want some dead letters and losses", l)
	}
}

// TestParkingAllocatesNothing: once the ring's buckets reach their
// steady-state capacity, a round of parking and draining allocates nothing.
func TestParkingAllocatesNothing(t *testing.T) {
	rt := driver.NewRouter(conditions(t, 0.02, faults.Delay{Jitter: 2}), rng.New(5), allLive)
	long := []peer.ID{1, 2, 3} // arena payload
	round := func() {
		rt.Tick()
		// An inline drain: the visitor helper's closure would escape and
		// allocate on its own.
		for {
			b, ok := rt.Due()
			if !ok {
				break
			}
			for i := range b.Msgs {
				rt.Deliverable(b.Msgs[i].To)
			}
		}
		for k := 0; k < 1000; k++ {
			msg := protocol.Message{From: peer.ID(k), IDs: long}
			if k%2 == 0 {
				msg.IDs = long[:2]
			}
			rt.Route(peer.ID(k%64), msg)
		}
	}
	for i := 0; i < 50; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(20, round); avg != 0 {
		t.Fatalf("steady-state park+drain round allocates %.1f times, want 0", avg)
	}
}

// TestDrainedIDsSurviveParking: the bucket Due hands out stays intact
// while it is delivered, even when every delivery parks a reply meanwhile
// and those replies force the ring to grow.
func TestDrainedIDsSurviveParking(t *testing.T) {
	cond := conditions(t, 0, faults.Delay{Fixed: 1})
	rt := driver.NewRouter(cond, rng.New(9), allLive)
	tag := 0
	for k := 0; k < 100; k++ {
		tag++
		if rt.Route(peer.ID(k), protocol.Message{From: 1, IDs: payload(tag)}) != driver.Parked {
			t.Fatal("message did not park under a fixed delay")
		}
	}
	rt.Tick()
	b, ok := rt.Due()
	if !ok || len(b.Msgs) != 100 {
		t.Fatalf("Due = %d messages, %v; want the 100 parked", len(b.Msgs), ok)
	}
	for i := range b.Msgs {
		if i == 50 {
			// Replies from here on park far ahead: the ring grows while
			// the handed-out bucket is being delivered.
			if err := cond.SetDelay(faults.Delay{Fixed: 40}); err != nil {
				t.Fatal(err)
			}
		}
		checkPayload(t, b.MsgIDs(&b.Msgs[i]))
		tag++
		if rt.Route(b.Msgs[i].From, protocol.Message{From: b.Msgs[i].To, IDs: payload(tag)}) != driver.Parked {
			t.Fatal("reply did not park")
		}
		// Every message of the bucket, delivered or not, still holds its
		// original ids.
		for j := range b.Msgs {
			if got := checkPayload(t, b.MsgIDs(&b.Msgs[j])); got != j+1 {
				t.Fatalf("after reply %d, message %d holds tag %d, want %d", i, j, got, j+1)
			}
		}
	}
	drained := 0
	drainAll(t, rt, func(b *protocol.Outbox, m *protocol.FlatMsg) {
		checkPayload(t, b.MsgIDs(m))
		drained++
	})
	if drained != 100 {
		t.Fatalf("drained %d replies, want 100", drained)
	}
}
