package rconn

import (
	"bytes"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/sim"
	"skv/internal/transport"
)

type world struct {
	eng *sim.Engine
	net *fabric.Network
	p   *model.Params
}

func newWorld() *world {
	eng := sim.New(11)
	p := model.Default()
	return &world{eng: eng, net: fabric.New(eng, &p), p: &p}
}

func (w *world) stack(name string, smartNIC bool) *Stack {
	m := w.net.NewMachine(name, smartNIC)
	core := sim.NewCore(w.eng, name+"0", 1.0)
	proc := sim.NewProc(w.eng, core, w.p.CompChannelWake)
	return New(w.net, m.Host, proc)
}

func dialPair(t *testing.T, w *world, tune func(*Stack)) (transport.Conn, transport.Conn) {
	t.Helper()
	sa := w.stack("a", false)
	sb := w.stack("b", false)
	if tune != nil {
		tune(sa)
		tune(sb)
	}
	var cli, srv transport.Conn
	sb.Listen(7000, func(c transport.Conn) { srv = c })
	w.eng.At(0, func() {
		sa.Dial(sb.Endpoint(), 7000, func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			cli = c
		})
	})
	w.eng.Run(0)
	if cli == nil || srv == nil {
		t.Fatal("MR exchange did not complete")
	}
	return cli, srv
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	payload := make([]byte, 3*MaxChunk+123) // forces 4 chunks
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	srv.SetHandler(func(b []byte) { got = append([]byte(nil), b...) })
	w.eng.After(0, func() { cli.Send(payload) })
	w.eng.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembly mismatch: got %d bytes", len(got))
	}
}

func TestRingFullTriggersReRegistration(t *testing.T) {
	w := newWorld()
	// Tiny ring so a handful of messages exhausts it.
	cli, srv := dialPair(t, w, func(s *Stack) { s.RingSize = 1024 })
	n := 0
	srv.SetHandler(func(b []byte) { n++ })
	w.eng.After(0, func() {
		for i := 0; i < 100; i++ {
			cli.Send(make([]byte, 100))
		}
	})
	w.eng.Run(0)
	if n != 100 {
		t.Fatalf("delivered %d/100 across ring resets", n)
	}
	if rc := srv.(*conn).RingResets; rc < 5 {
		t.Fatalf("ring resets = %d, want several with a 1KB ring", rc)
	}
}

func TestVeryLargePayloadThroughTinyRing(t *testing.T) {
	// An RDB-sized payload must flow even when it dwarfs the ring.
	w := newWorld()
	cli, srv := dialPair(t, w, func(s *Stack) { s.RingSize = 64 << 10 })
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	srv.SetHandler(func(b []byte) { got = append([]byte(nil), b...) })
	w.eng.After(0, func() { cli.Send(payload) })
	w.eng.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("1MB payload mangled (got %d bytes)", len(got))
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	fromCli, fromSrv := 0, 0
	srv.SetHandler(func(b []byte) { fromCli++ })
	cli.SetHandler(func(b []byte) { fromSrv++ })
	w.eng.After(0, func() {
		for i := 0; i < 50; i++ {
			cli.Send([]byte("c"))
			srv.Send([]byte("s"))
		}
	})
	w.eng.Run(0)
	if fromCli != 50 || fromSrv != 50 {
		t.Fatalf("bidirectional counts %d/%d, want 50/50", fromCli, fromSrv)
	}
}

func TestRDMAPerMessageCPUWellBelowTCP(t *testing.T) {
	// The motivating measurement: receiving a message via the completion
	// channel costs far less CPU than the kernel TCP path.
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	proc := srv.(*conn).stack.proc
	n := 0
	srv.SetHandler(func(b []byte) { n++ })
	before := proc.Core.BusyTime()
	w.eng.After(0, func() {
		for i := 0; i < 200; i++ {
			cli.Send(make([]byte, 64))
		}
	})
	w.eng.Run(0)
	if n != 200 {
		t.Fatalf("delivered %d/200", n)
	}
	perMsg := (proc.Core.BusyTime() - before) / 200
	if perMsg >= w.p.TCPRxCPU/2 {
		t.Fatalf("RDMA per-message RX CPU %v not well below TCP %v", perMsg, w.p.TCPRxCPU)
	}
}

// echoExchange sends msgs from the client one at a time through an echoing
// server, reusing one send buffer and scribbling over it right after every
// Send; the server scribbles over the slice its handler was lent once it has
// echoed it. It returns what the client got back.
func echoExchange(w *world, cli, srv transport.Conn, msgs [][]byte) [][]byte {
	srv.SetHandler(func(b []byte) {
		srv.Send(b) // from inside the handler, the lent slice itself
		for i := range b {
			b[i] = 0xEE
		}
	})
	var got [][]byte
	var buf []byte
	send := func(i int) {
		buf = append(buf[:0], msgs[i]...)
		cli.Send(buf)
		for j := range buf {
			buf[j] = 0xDD
		}
	}
	cli.SetHandler(func(b []byte) {
		got = append(got, append([]byte(nil), b...)) // a retainer copies
		if len(got) < len(msgs) {
			send(len(got))
		}
	})
	w.eng.After(0, func() { send(0) })
	w.eng.Run(0)
	return got
}

// TestSendCopiesHandlerBorrows is the ownership rule of transport.Conn on the
// RDMA transport: Send copies, so the caller's buffer is its own again at
// once; a handler's payload is lent for the call, so what the handler does to
// it afterwards reaches nobody. Messages include one larger than MaxChunk,
// and the ring is small enough that it is re-registered many times — once
// between the fragments of the large message.
func TestSendCopiesHandlerBorrows(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, func(s *Stack) { s.RingSize = 48 << 10 })
	var msgs [][]byte
	for i := 0; i < 300; i++ {
		n := 1 + (i*37)%700
		if i == 150 {
			n = 2*MaxChunk + 5000 // three fragments; the second does not fit behind the first
		}
		m := make([]byte, n)
		for j := range m {
			m[j] = byte(i + j*7)
		}
		msgs = append(msgs, m)
	}
	got := echoExchange(w, cli, srv, msgs)
	if len(got) != len(msgs) {
		t.Fatalf("%d of %d echoes came back", len(got), len(msgs))
	}
	for i := range msgs {
		if !bytes.Equal(got[i], msgs[i]) {
			t.Fatalf("echo %d (%d bytes) differs from what was sent", i, len(msgs[i]))
		}
	}
	if c, s := cli.(*conn).RingResets, srv.(*conn).RingResets; c == 0 || s == 0 {
		t.Fatalf("ring resets: client %d, server %d; the test must cross re-registrations", c, s)
	}
}

// TestEchoAllocations: a request/reply exchange of small messages costs at
// most 3 allocations per message once the connection's frame buffers and the
// layers below have reached their working size (it is 0 but for the credit
// and re-registration control messages).
func TestEchoAllocations(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w, nil)
	srv.SetHandler(func(b []byte) { srv.Send(b) })
	msg := []byte("*3\r\n$3\r\nSET\r\n$14\r\nkey:0000000042\r\n$8\r\nabcdefgh\r\n")
	remaining := 0
	cli.SetHandler(func([]byte) {
		if remaining--; remaining > 0 {
			cli.Send(msg)
		}
	})
	const echoes = 500
	first := func() { cli.Send(msg) }
	run := func() {
		remaining = echoes
		w.eng.After(0, first)
		w.eng.Run(0)
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	if per := allocs / (2 * echoes); per > 3 {
		t.Fatalf("echo allocates %.2f times per message, want <= 3", per)
	}
	t.Logf("%.3f allocations per message", allocs/(2*echoes))
}
