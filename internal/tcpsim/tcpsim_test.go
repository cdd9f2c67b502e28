package tcpsim

import (
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
	eng := sim.New(3)
	p := model.Default()
	return &world{eng: eng, net: fabric.New(eng, &p), p: &p}
}

func (w *world) stack(name string) *Stack {
	m := w.net.NewMachine(name, false)
	core := sim.NewCore(w.eng, name+"0", 1.0)
	return New(w.net, m.Host, sim.NewProc(w.eng, core, w.p.TCPWakeup))
}

func dialPair(t *testing.T, w *world) (transport.Conn, transport.Conn) {
	t.Helper()
	sa := w.stack("a")
	sb := w.stack("b")
	var cliConn, srvConn transport.Conn
	sb.Listen(6379, func(c transport.Conn) { srvConn = c })
	w.eng.At(0, func() {
		sa.Dial(sb.Endpoint(), 6379, func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			cliConn = c
		})
	})
	w.eng.Run(0)
	if cliConn == nil || srvConn == nil {
		t.Fatal("handshake incomplete")
	}
	return cliConn, srvConn
}

func TestMessagesChargeServerCPU(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w)
	proc := srv.(*conn).stack.proc
	before := proc.Core.BusyTime()
	count := 0
	srv.SetHandler(func(b []byte) { count++ })
	w.eng.After(0, func() {
		for i := 0; i < 100; i++ {
			cli.Send(make([]byte, 64))
		}
	})
	w.eng.Run(0)
	if count != 100 {
		t.Fatalf("delivered %d, want 100", count)
	}
	perMsg := (proc.Core.BusyTime() - before) / 100
	// Kernel RX path should cost on the order of TCPRxCPU (plus copies).
	if perMsg < w.p.TCPRxCPU || perMsg > w.p.TCPRxCPU*2 {
		t.Fatalf("per-message RX CPU = %v, want ≈%v", perMsg, w.p.TCPRxCPU)
	}
}

func TestUnloadedRTTIsTensOfMicroseconds(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w)
	srv.SetHandler(func(b []byte) { srv.Send(b) })
	var rtt sim.Duration
	var sent sim.Time
	cli.SetHandler(func([]byte) { rtt = w.eng.Now().Sub(sent) })
	w.eng.After(0, func() {
		sent = w.eng.Now()
		cli.Send([]byte("hello"))
	})
	w.eng.Run(0)
	if rtt < 10*sim.Microsecond || rtt > 200*sim.Microsecond {
		t.Fatalf("unloaded TCP RTT = %v, want tens of µs", rtt)
	}
}

// TestSendCopiesHandlerBorrows is the ownership rule of transport.Conn on the
// TCP model: the client reuses one send buffer and scribbles over it right
// after every Send; the server echoes the slice it was lent from inside its
// handler and then scribbles over it. Messages are pipelined several deep, so
// segment and receive records are recycled while others are still in flight,
// and one message is far larger than what the records keep pooled.
func TestSendCopiesHandlerBorrows(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w)
	var msgs [][]byte
	for i := 0; i < 300; i++ {
		n := 1 + (i*37)%700
		if i == 150 {
			n = 100 << 10
		}
		m := make([]byte, n)
		for j := range m {
			m[j] = byte(i + j*7)
		}
		msgs = append(msgs, m)
	}
	srv.SetHandler(func(b []byte) {
		srv.Send(b)
		for i := range b {
			b[i] = 0xEE
		}
	})
	var got [][]byte
	var buf []byte
	sent := 0
	send := func() {
		buf = append(buf[:0], msgs[sent]...)
		sent++
		cli.Send(buf)
		for j := range buf {
			buf[j] = 0xDD
		}
	}
	cli.SetHandler(func(b []byte) {
		got = append(got, append([]byte(nil), b...)) // a retainer copies
		if sent < len(msgs) {
			send()
		}
	})
	w.eng.After(0, func() {
		for i := 0; i < 8; i++ {
			send()
		}
	})
	w.eng.Run(0)
	if len(got) != len(msgs) {
		t.Fatalf("%d of %d echoes came back", len(got), len(msgs))
	}
	for i := range msgs {
		if string(got[i]) != string(msgs[i]) {
			t.Fatalf("echo %d (%d bytes) differs from what was sent", i, len(msgs[i]))
		}
	}
}

// TestEchoAllocations: a pipelined request/reply exchange allocates nothing
// per message once the stacks' segment and receive records have reached
// their working number.
func TestEchoAllocations(t *testing.T) {
	w := newWorld()
	cli, srv := dialPair(t, w)
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
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("echo allocates %.2f times per %d messages, want 0", allocs, 2*echoes)
	}
}
