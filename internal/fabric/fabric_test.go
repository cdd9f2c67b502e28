package fabric

import (
	"testing"

	"skv/internal/model"
	"skv/internal/sim"
)

func testNet() (*sim.Engine, *Network, *model.Params) {
	eng := sim.New(1)
	p := model.Default()
	return eng, New(eng, &p), &p
}

func TestFig3LatencyOrdering(t *testing.T) {
	// The paper's Fig 3 ordering: host→local SmartNIC is only a little
	// lower than host↔host, and remote host→SmartNIC is a little higher.
	eng, n, _ := testNet()
	_ = eng
	a := n.NewMachine("a", true)
	b := n.NewMachine("b", false)

	hostHost := n.PathLatency(b.Host, a.Host)
	hostLocalNIC := n.PathLatency(a.Host, a.NIC)
	remoteToNIC := n.PathLatency(b.Host, a.NIC)

	if !(hostLocalNIC < hostHost) {
		t.Errorf("host→local NIC (%v) should be below host↔host (%v)", hostLocalNIC, hostHost)
	}
	if !(hostHost < remoteToNIC) {
		t.Errorf("host↔host (%v) should be below remote→NIC (%v)", hostHost, remoteToNIC)
	}
	// "Only a little lower": within 50% of each other.
	if float64(hostLocalNIC) < 0.5*float64(hostHost) {
		t.Errorf("host→local NIC (%v) too far below host↔host (%v); NIC should look like a separate endpoint", hostLocalNIC, hostHost)
	}
}

func TestPathLatencySymmetry(t *testing.T) {
	_, n, _ := testNet()
	a := n.NewMachine("a", true)
	b := n.NewMachine("b", true)
	pairs := [][2]*Endpoint{
		{a.Host, b.Host}, {a.Host, a.NIC}, {a.NIC, b.Host}, {a.NIC, b.NIC},
	}
	for _, pr := range pairs {
		if n.PathLatency(pr[0], pr[1]) != n.PathLatency(pr[1], pr[0]) {
			t.Errorf("asymmetric latency between %s and %s", pr[0].Name(), pr[1].Name())
		}
	}
}

func TestSendDelivers(t *testing.T) {
	eng, n, p := testNet()
	a := n.NewMachine("a", false)
	b := n.NewMachine("b", false)
	var got Message
	var at sim.Time
	b.Host.Handle(func(m Message) { got = m; at = eng.Now() })
	eng.At(0, func() { n.Send(a.Host, b.Host, 1000, "hello", 0) })
	eng.Run(0)
	if got.Payload != "hello" || got.Size != 1000 {
		t.Fatalf("bad delivery: %+v", got)
	}
	want := n.PathLatency(a.Host, b.Host) + p.TransferTime(1000)
	if at != sim.Time(want) {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSendToDownEndpointDropped(t *testing.T) {
	eng, n, _ := testNet()
	a := n.NewMachine("a", false)
	b := n.NewMachine("b", false)
	delivered := false
	b.Host.Handle(func(Message) { delivered = true })
	b.Host.SetDown(true)
	eng.At(0, func() { n.Send(a.Host, b.Host, 10, nil, 0) })
	eng.Run(0)
	if delivered {
		t.Fatal("message delivered to down endpoint")
	}
	if n.Dropped.Value() != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped.Value())
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	p := model.Default()
	small := p.TransferTime(64)
	big := p.TransferTime(64 * 1024)
	if big <= small {
		t.Fatalf("transfer time not increasing: %v vs %v", small, big)
	}
	// 64KB at 100Gb/s ≈ 5.24µs.
	if big < 5*sim.Microsecond || big > 6*sim.Microsecond {
		t.Fatalf("64KB transfer = %v, want ≈5.2µs", big)
	}
}

func TestDuplicateMachinePanics(t *testing.T) {
	_, n, _ := testNet()
	n.NewMachine("a", false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate machine did not panic")
		}
	}()
	n.NewMachine("a", false)
}

func TestMachineLookupAndKinds(t *testing.T) {
	_, n, _ := testNet()
	a := n.NewMachine("a", true)
	if n.Machine("a") != a {
		t.Fatal("Machine lookup failed")
	}
	if n.Machine("zz") != nil {
		t.Fatal("missing machine should be nil")
	}
	if a.Host.Kind() != KindHost || a.NIC.Kind() != KindNIC {
		t.Fatal("endpoint kinds wrong")
	}
	if a.Host.Machine() != a || a.NIC.Machine() != a {
		t.Fatal("endpoint machine backref wrong")
	}
	if a.Host.Name() != "a/host" || a.NIC.Name() != "a/nic" {
		t.Fatalf("endpoint names wrong: %s %s", a.Host.Name(), a.NIC.Name())
	}
	if KindHost.String() != "host" || KindNIC.String() != "nic" {
		t.Fatal("Kind.String wrong")
	}
}

func TestNoSmartNICMeansNilNIC(t *testing.T) {
	_, n, _ := testNet()
	if m := n.NewMachine("plain", false); m.NIC != nil {
		t.Fatal("machine without SmartNIC has a NIC endpoint")
	}
}

// TestSteadyStateSendDoesNotAllocate: once the network has as many delivery
// records as messages are ever in flight at once, sending and delivering
// allocates nothing — no closure, no record, no event.
func TestSteadyStateSendDoesNotAllocate(t *testing.T) {
	eng, n, _ := testNet()
	a := n.NewMachine("a", false)
	b := n.NewMachine("b", true)
	delivered, acked := 0, 0
	b.Host.Handle(func(Message) { delivered++ })
	b.NIC.Handle(func(Message) { delivered++ })
	a.Host.OnSendOutcome(func(_ Message, ok bool) {
		if ok {
			acked++
		}
	})
	payload := &struct{ x int }{7} // a pointer payload boxes without allocating, as the transports' do
	const burst = 64
	round := func() {
		for i := 0; i < burst; i++ {
			n.Send(a.Host, b.Host, 64+i, payload, 0)
			n.Send(a.Host, b.NIC, 64+i, payload, 0)
		}
		eng.Run(0)
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("send+deliver allocates %.2f times per %d messages, want 0", allocs, 2*burst)
	}
	if delivered != acked || delivered != 22*2*burst {
		t.Fatalf("delivered %d, acked %d, want %d each", delivered, acked, 22*2*burst)
	}
}

// TestParkedMessagesAreMarked: a message held on a blocked link reports its
// outcome more than once, so it must say so — transports recycle payload
// records on every report that is not marked.
func TestParkedMessagesAreMarked(t *testing.T) {
	eng, n, _ := testNet()
	a := n.NewMachine("a", false)
	b := n.NewMachine("b", false)
	f := n.Faults()
	var reports, deliveries []Message
	a.Host.OnSendOutcome(func(m Message, _ bool) { reports = append(reports, m) })
	b.Host.Handle(func(m Message) { deliveries = append(deliveries, m) })
	n.Send(a.Host, b.Host, 10, "free", 0)
	f.Partition(a.Host, b.Host)
	n.Send(a.Host, b.Host, 10, "held", 0)
	eng.After(sim.Millisecond, func() { f.Heal(a.Host, b.Host) })
	eng.Run(0)
	if len(deliveries) != 2 || deliveries[1].Payload != "held" || !deliveries[1].Parked || deliveries[0].Parked {
		t.Fatalf("deliveries = %+v", deliveries)
	}
	held := 0
	for _, m := range reports {
		if m.Parked != (m.Payload == "held") {
			t.Fatalf("outcome report %+v: Parked does not match the message's history", m)
		}
		if m.Parked {
			held++
		}
	}
	if held != 2 || len(reports) != 3 {
		t.Fatalf("%d reports, %d of them for the held message; want 3 and 2 (parked, then delivered)", len(reports), held)
	}
}
