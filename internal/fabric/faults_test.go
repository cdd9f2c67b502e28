package fabric

import (
	"testing"

	"skv/internal/model"
	"skv/internal/sim"
)

func faultsRig() (*sim.Engine, *Network, *Machine, *Machine) {
	eng := sim.New(99)
	p := model.Default()
	net := New(eng, &p)
	a := net.NewMachine("a", true)
	b := net.NewMachine("b", false)
	return eng, net, a, b
}

func TestPartitionParksAndHealDelivers(t *testing.T) {
	eng, net, a, b := faultsRig()
	var got []string
	b.Host.Handle(func(m Message) { got = append(got, m.Payload.(string)) })

	f := net.Faults()
	f.Partition(a.Host, b.Host)
	net.Send(a.Host, b.Host, 64, "one", 0)
	net.Send(a.Host, b.Host, 64, "two", 0)
	eng.RunFor(10 * sim.Millisecond)
	if len(got) != 0 {
		t.Fatalf("partitioned link delivered %v", got)
	}
	if net.Parked.Value() != 2 {
		t.Fatalf("Parked=%d want 2", net.Parked.Value())
	}
	f.Heal(a.Host, b.Host)
	eng.RunFor(10 * sim.Millisecond)
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("after heal got %v, want [one two] in order", got)
	}
}

func TestPartitionIsAsymmetric(t *testing.T) {
	eng, net, a, b := faultsRig()
	var fromA, fromB int
	a.Host.Handle(func(Message) { fromB++ })
	b.Host.Handle(func(Message) { fromA++ })

	net.Faults().Partition(a.Host, b.Host)
	net.Send(a.Host, b.Host, 64, "blocked", 0)
	net.Send(b.Host, a.Host, 64, "open", 0)
	eng.RunFor(10 * sim.Millisecond)
	if fromA != 0 || fromB != 1 {
		t.Fatalf("asymmetric partition: a→b delivered %d (want 0), b→a delivered %d (want 1)", fromA, fromB)
	}
}

func TestAsymmetricPartitionStarvesReverseAcks(t *testing.T) {
	eng, net, a, b := faultsRig()
	b.Host.Handle(func(Message) {})
	var acks []bool
	b.Host.OnSendOutcome(func(_ Message, acked bool) { acks = append(acks, acked) })
	a.Host.Handle(func(Message) {})

	// Block a→b only; b's sends are delivered but their acks (b←a... the
	// a→b direction) cannot return.
	net.Faults().Partition(a.Host, b.Host)
	net.Send(b.Host, a.Host, 64, "data", 0)
	eng.RunFor(10 * sim.Millisecond)
	if len(acks) != 1 || acks[0] {
		t.Fatalf("reverse-partitioned delivery acks=%v, want [false]", acks)
	}
}

func TestLossAddsDeterministicRetransmitDelay(t *testing.T) {
	run := func() []sim.Time {
		eng, net, a, b := faultsRig()
		var arrivals []sim.Time
		b.Host.Handle(func(Message) { arrivals = append(arrivals, eng.Now()) })
		net.Faults().SetLoss(a.Host, b.Host, 0.5, 1*sim.Millisecond)
		for i := 0; i < 20; i++ {
			net.Send(a.Host, b.Host, 64, i, 0)
		}
		eng.RunFor(200 * sim.Millisecond)
		if net.Retransmits.Value() == 0 {
			t.Fatal("no retransmits at 50% loss over 20 messages")
		}
		if len(arrivals) != 20 {
			t.Fatalf("reliable transport lost messages: %d/20 arrived", len(arrivals))
		}
		return arrivals
	}
	a1, a2 := run(), run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("seeded loss not deterministic: arrival %d differs (%v vs %v)", i, a1[i], a2[i])
		}
	}
}

func TestDelaySpikes(t *testing.T) {
	eng, net, a, b := faultsRig()
	var arrivals []sim.Time
	b.Host.Handle(func(Message) { arrivals = append(arrivals, eng.Now()) })
	net.Faults().SetDelay(a.Host, b.Host, 100*sim.Microsecond, 1.0, 5*sim.Millisecond)
	net.Send(a.Host, b.Host, 64, "x", 0)
	eng.RunFor(50 * sim.Millisecond)
	if len(arrivals) != 1 {
		t.Fatal("message lost")
	}
	if arrivals[0] < sim.Time(5*sim.Millisecond) {
		t.Fatalf("spike (p=1.0) not applied: arrival at %v", arrivals[0])
	}
	if net.Spikes.Value() != 1 {
		t.Fatalf("Spikes=%d want 1", net.Spikes.Value())
	}
}

func TestFlapEndpointParksWhileDownAndFlushesOnUp(t *testing.T) {
	eng, net, a, b := faultsRig()
	var got int
	b.Host.Handle(func(Message) { got++ })
	f := net.Faults()
	// Down 5ms, up 5ms, twice.
	f.FlapEndpoint(b.Host, 5*sim.Millisecond, 5*sim.Millisecond, 2)
	// Send one message during each down window and each up window.
	for _, at := range []sim.Duration{2, 7, 12, 17} {
		payload := at
		eng.After(at*sim.Millisecond, func() {
			net.Send(a.Host, b.Host, 64, payload, 0)
		})
	}
	eng.RunFor(100 * sim.Millisecond)
	if got != 4 {
		t.Fatalf("flapped endpoint delivered %d/4 (parked traffic must flush on up)", got)
	}
	if b.Host.Down() {
		t.Fatal("endpoint still down after flap cycles")
	}
}

func TestOutcomeNotifiedFalseForParkedSends(t *testing.T) {
	eng, net, a, b := faultsRig()
	b.Host.Handle(func(Message) {})
	var nacks int
	a.Host.OnSendOutcome(func(_ Message, acked bool) {
		if !acked {
			nacks++
		}
	})
	net.Faults().Partition(a.Host, b.Host)
	net.Send(a.Host, b.Host, 64, "x", 0)
	eng.RunFor(10 * sim.Millisecond)
	if nacks != 1 {
		t.Fatalf("parked send produced %d nack notifications, want 1", nacks)
	}
}

func TestClearRemovesFaults(t *testing.T) {
	eng, net, a, b := faultsRig()
	var got int
	b.Host.Handle(func(Message) { got++ })
	f := net.Faults()
	f.Partition(a.Host, b.Host)
	net.Send(a.Host, b.Host, 64, "x", 0)
	f.Clear(a.Host, b.Host)
	net.Send(a.Host, b.Host, 64, "y", 0)
	eng.RunFor(10 * sim.Millisecond)
	if got != 2 {
		t.Fatalf("after Clear got %d/2 messages", got)
	}
	if f.Partitioned(a.Host, b.Host) {
		t.Fatal("link still partitioned after Clear")
	}
}
