package transport_test

import (
	"strings"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/sim"
	"skv/internal/tcpsim"
	"skv/internal/transport"
)

// stacks are the two transport.Stack implementations the contract runs on.
var stacks = []struct {
	name string // what Conn.Transport and Stack.Transport report
	new  func(net *fabric.Network, ep *fabric.Endpoint, proc *sim.Proc) transport.Stack
	wake func(p *model.Params) sim.Duration
}{
	{"tcp", func(n *fabric.Network, ep *fabric.Endpoint, p *sim.Proc) transport.Stack { return tcpsim.New(n, ep, p) },
		func(p *model.Params) sim.Duration { return p.TCPWakeup }},
	{"rdma", func(n *fabric.Network, ep *fabric.Endpoint, p *sim.Proc) transport.Stack { return rconn.New(n, ep, p) },
		func(p *model.Params) sim.Duration { return p.CompChannelWake }},
}

// world is two machines, "a" and "b", each with one stack of the transport
// under test on its host.
type world struct {
	name string // the transport under test
	eng  *sim.Engine
	a, b transport.Stack
}

const port = 7000

// dial connects a to a listener on b and returns both ends.
func (w *world) dial(t *testing.T) (cli, srv transport.Conn) {
	t.Helper()
	w.b.Listen(port, func(c transport.Conn) { srv = c })
	w.eng.At(0, func() {
		w.a.Dial(w.b.Endpoint(), port, func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			cli = c
		})
	})
	w.eng.Run(0)
	if cli == nil || srv == nil {
		t.Fatal("connection setup did not complete")
	}
	return cli, srv
}

// contract is what every transport.Conn promises, whatever carries it.
var contract = []struct {
	name string
	run  func(t *testing.T, w *world)
}{
	{"echo", func(t *testing.T, w *world) {
		cli, srv := w.dial(t)
		srv.SetHandler(func(b []byte) { srv.Send(append([]byte("echo:"), b...)) })
		var got string
		cli.SetHandler(func(b []byte) { got = string(b) })
		w.eng.After(0, func() { cli.Send([]byte("ping")) })
		w.eng.Run(0)
		if got != "echo:ping" {
			t.Fatalf("got %q", got)
		}
	}},
	{"dial-refused", func(t *testing.T, w *world) {
		called := false
		var gotErr error
		w.eng.At(0, func() {
			w.a.Dial(w.b.Endpoint(), 4242, func(c transport.Conn, err error) { called, gotErr = true, err })
		})
		w.eng.Run(0)
		if !called || gotErr == nil {
			t.Fatalf("want a refusal, called=%v err=%v", called, gotErr)
		}
	}},
	{"in-order", func(t *testing.T, w *world) {
		// A large message first must not be overtaken by the small ones
		// behind it; each message carries its index in its first two bytes.
		cli, srv := w.dial(t)
		const n = 1000
		var got []int
		srv.SetHandler(func(b []byte) { got = append(got, int(b[0])<<8|int(b[1])) })
		w.eng.After(0, func() {
			cli.Send(make([]byte, 60000))
			for i := 1; i < n; i++ {
				cli.Send([]byte{byte(i >> 8), byte(i), 0, 0, 0, 0, 0, 0})
			}
		})
		w.eng.Run(0)
		if len(got) != n {
			t.Fatalf("delivered %d of %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("message %d out of order (got %d)", i, v)
			}
		}
	}},
	{"close-notifies-peer", func(t *testing.T, w *world) {
		cli, srv := w.dial(t)
		closed := false
		srv.SetCloseHandler(func() { closed = true })
		w.eng.After(0, func() { cli.Close() })
		w.eng.Run(0)
		if !closed {
			t.Fatal("peer not notified of close")
		}
		if !cli.Closed() || !srv.Closed() {
			t.Fatalf("Closed() after close: closer %v, peer %v", cli.Closed(), srv.Closed())
		}
	}},
	{"send-after-close-dropped", func(t *testing.T, w *world) {
		cli, srv := w.dial(t)
		toSrv, toCli := 0, 0
		srv.SetHandler(func([]byte) { toSrv++ })
		cli.SetHandler(func([]byte) { toCli++ })
		w.eng.After(0, func() { cli.Close() })
		w.eng.Run(0)
		w.eng.After(0, func() {
			cli.Send([]byte("from the closer"))
			srv.Send([]byte("to the closer"))
		})
		w.eng.Run(0)
		if toSrv != 0 || toCli != 0 {
			t.Fatalf("sends after close delivered: %d to the peer, %d to the closer", toSrv, toCli)
		}
	}},
	{"addressing", func(t *testing.T, w *world) {
		cli, srv := w.dial(t)
		for _, tr := range []string{w.a.Transport(), cli.Transport(), srv.Transport()} {
			if tr != w.name {
				t.Fatalf("transport name %q, want %q", tr, w.name)
			}
		}
		// An address names its fabric endpoint; what follows (a port, a QP)
		// is the transport's own.
		for _, c := range []struct {
			conn          transport.Conn
			local, remote string
		}{{cli, "a/host", "b/host"}, {srv, "b/host", "a/host"}} {
			if !strings.HasPrefix(c.conn.LocalAddr(), c.local) || !strings.HasPrefix(c.conn.RemoteAddr(), c.remote) {
				t.Fatalf("addrs %q -> %q, want %s… -> %s…", c.conn.LocalAddr(), c.conn.RemoteAddr(), c.local, c.remote)
			}
		}
	}},
}

// TestConnContract runs every contract row on both transports, each on a
// fresh network.
func TestConnContract(t *testing.T) {
	for _, st := range stacks {
		for _, row := range contract {
			t.Run(st.name+"/"+row.name, func(t *testing.T) {
				eng := sim.New(3)
				p := model.Default()
				net := fabric.New(eng, &p)
				stack := func(name string) transport.Stack {
					m := net.NewMachine(name, false)
					return st.new(net, m.Host, sim.NewProc(eng, sim.NewCore(eng, name+"0", 1.0), st.wake(&p)))
				}
				row.run(t, &world{name: st.name, eng: eng, a: stack("a"), b: stack("b")})
			})
		}
	}
}
