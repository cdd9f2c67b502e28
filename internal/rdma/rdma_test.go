package rdma

import (
	"bytes"
	"testing"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/sim"
)

type world struct {
	eng *sim.Engine
	net *fabric.Network
	p   *model.Params
}

func newWorld() *world {
	eng := sim.New(7)
	p := model.Default()
	return &world{eng: eng, net: fabric.New(eng, &p), p: &p}
}

// connectPair builds two machines with devices and returns a connected QP
// pair (client side, server side).
func connectPair(t *testing.T, w *world) (*QP, *QP, *Device, *Device) {
	t.Helper()
	ma := w.net.NewMachine("a", false)
	mb := w.net.NewMachine("b", false)
	ca := sim.NewCore(w.eng, "a0", 1.0)
	cb := sim.NewCore(w.eng, "b0", 1.0)
	da := NewDevice(w.net, ma.Host, ca)
	db := NewDevice(w.net, mb.Host, cb)

	var clientQP, serverQP *QP
	db.Listen(9000, func(qp *QP) { serverQP = qp })
	w.eng.At(0, func() {
		da.Connect(mb.Host, 9000, nil, nil, func(qp *QP, err error) {
			if err != nil {
				t.Errorf("connect failed: %v", err)
				return
			}
			clientQP = qp
		})
	})
	w.eng.Run(0)
	if clientQP == nil || serverQP == nil {
		t.Fatal("CM handshake did not complete")
	}
	return clientQP, serverQP, da, db
}

func TestCMConnect(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	if cq.RemoteEndpoint().Name() != "b/host" || sq.RemoteEndpoint().Name() != "a/host" {
		t.Fatal("QP peers wired wrong")
	}
}

func TestCMConnectRefused(t *testing.T) {
	w := newWorld()
	ma := w.net.NewMachine("a", false)
	mb := w.net.NewMachine("b", false)
	da := NewDevice(w.net, ma.Host, sim.NewCore(w.eng, "a0", 1.0))
	NewDevice(w.net, mb.Host, sim.NewCore(w.eng, "b0", 1.0))
	var gotErr error
	called := false
	w.eng.At(0, func() {
		da.Connect(mb.Host, 1234, nil, nil, func(qp *QP, err error) {
			called = true
			gotErr = err
		})
	})
	w.eng.Run(0)
	if !called || gotErr == nil {
		t.Fatalf("expected refusal, called=%v err=%v", called, gotErr)
	}
}

func TestSendRecv(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	var got []byte
	sq.RecvCQ.OnNotify(func() {
		for _, wc := range sq.RecvCQ.Poll(0) {
			if wc.Op == OpRecv && wc.Status == StatusSuccess {
				got = wc.Data
			}
		}
	})
	sq.RecvCQ.RequestNotify()
	w.eng.After(100, func() {
		sq.PostRecv(RecvWR{WRID: 1})
		if err := cq.PostSend(SendWR{WRID: 2, Op: OpSend, Data: []byte("hello"), Signaled: true}); err != nil {
			t.Errorf("PostSend: %v", err)
		}
	})
	w.eng.Run(0)
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("recv data = %q", got)
	}
}

func TestWriteIntoRemoteMR(t *testing.T) {
	w := newWorld()
	cq, sq, _, db := connectPair(t, w)
	pd := db.AllocPD()
	mr := pd.RegisterMR(1024)

	var senderWC *WC
	cq.SendCQ.OnNotify(func() {
		for _, wc := range cq.SendCQ.Poll(0) {
			wc := wc
			senderWC = &wc
		}
	})
	cq.SendCQ.RequestNotify()

	w.eng.After(0, func() {
		err := cq.PostSend(SendWR{
			WRID: 7, Op: OpWrite, Data: []byte("payload"),
			RemoteKey: mr.RKey(), RemoteOff: 100, Signaled: true,
		})
		if err != nil {
			t.Errorf("PostSend: %v", err)
		}
	})
	w.eng.Run(0)

	if !bytes.Equal(mr.Bytes()[100:107], []byte("payload")) {
		t.Fatal("WRITE did not land in remote MR")
	}
	if senderWC == nil || senderWC.WRID != 7 || senderWC.Status != StatusSuccess {
		t.Fatalf("sender completion missing/wrong: %+v", senderWC)
	}
	// One-sided: the passive side must not get a recv completion.
	if sq.RecvCQ.Pending() != 0 {
		t.Fatal("plain WRITE generated a remote completion")
	}
}

func TestWriteWithImmNotifiesReceiver(t *testing.T) {
	w := newWorld()
	cq, sq, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(1024)

	var imm uint32
	var byteLen int
	sq.RecvCQ.OnNotify(func() {
		for _, wc := range sq.RecvCQ.Poll(0) {
			if wc.ImmValid {
				imm = wc.Imm
				byteLen = wc.ByteLen
			}
		}
	})
	sq.RecvCQ.RequestNotify()

	w.eng.After(0, func() {
		sq.PostRecv(RecvWR{WRID: 1})
		err := cq.PostSend(SendWR{
			WRID: 9, Op: OpWriteImm, Data: []byte("abcdef"),
			RemoteKey: mr.RKey(), RemoteOff: 0, Imm: 6, Signaled: false,
		})
		if err != nil {
			t.Errorf("PostSend: %v", err)
		}
	})
	w.eng.Run(0)
	if imm != 6 || byteLen != 6 {
		t.Fatalf("imm=%d byteLen=%d, want 6/6", imm, byteLen)
	}
	if !bytes.Equal(mr.Bytes()[:6], []byte("abcdef")) {
		t.Fatal("WRITE_WITH_IMM payload missing from MR")
	}
}

func TestWriteImmWithoutRecvIsStashedUntilPostRecv(t *testing.T) {
	w := newWorld()
	cq, sq, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(64)

	got := 0
	sq.RecvCQ.OnNotify(func() {
		got += len(sq.RecvCQ.Poll(0))
		sq.RecvCQ.RequestNotify()
	})
	sq.RecvCQ.RequestNotify()

	w.eng.After(0, func() {
		_ = cq.PostSend(SendWR{Op: OpWriteImm, Data: []byte("x"), RemoteKey: mr.RKey(), Imm: 1})
	})
	w.eng.After(1_000_000, func() {
		if got != 0 {
			t.Error("completion delivered without a posted recv")
		}
		sq.PostRecv(RecvWR{WRID: 5})
	})
	w.eng.Run(0)
	if got != 1 {
		t.Fatalf("got %d completions after PostRecv, want 1 (RNR retry)", got)
	}
}

func TestWriteOutOfBoundsFailsRemoteAccess(t *testing.T) {
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(16)

	var st Status = -1
	cq.SendCQ.OnNotify(func() {
		for _, wc := range cq.SendCQ.Poll(0) {
			st = wc.Status
		}
	})
	cq.SendCQ.RequestNotify()
	w.eng.After(0, func() {
		_ = cq.PostSend(SendWR{Op: OpWrite, Data: make([]byte, 32), RemoteKey: mr.RKey(), RemoteOff: 0, Signaled: true})
	})
	w.eng.Run(0)
	if st != StatusRemoteAccessErr {
		t.Fatalf("status = %v, want RemoteAccessErr", st)
	}
}

func TestWriteToDeregisteredMRFails(t *testing.T) {
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(64)
	mr.Deregister()

	var st Status = -1
	cq.SendCQ.OnNotify(func() {
		for _, wc := range cq.SendCQ.Poll(0) {
			st = wc.Status
		}
	})
	cq.SendCQ.RequestNotify()
	w.eng.After(0, func() {
		_ = cq.PostSend(SendWR{Op: OpWrite, Data: []byte("x"), RemoteKey: mr.RKey(), Signaled: true})
	})
	w.eng.Run(0)
	if st != StatusRemoteAccessErr {
		t.Fatalf("status = %v, want RemoteAccessErr after Deregister", st)
	}
}

func TestRDMARead(t *testing.T) {
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(64)
	copy(mr.Bytes()[8:], []byte("remote-data"))

	var data []byte
	cq.SendCQ.OnNotify(func() {
		for _, wc := range cq.SendCQ.Poll(0) {
			if wc.Op == OpRead && wc.Status == StatusSuccess {
				data = wc.Data
			}
		}
	})
	cq.SendCQ.RequestNotify()
	w.eng.After(0, func() {
		_ = cq.PostSend(SendWR{WRID: 3, Op: OpRead, RemoteKey: mr.RKey(), RemoteOff: 8, Len: 11})
	})
	w.eng.Run(0)
	if string(data) != "remote-data" {
		t.Fatalf("READ returned %q", data)
	}
}

func TestPostSendChargesCPU(t *testing.T) {
	w := newWorld()
	cq, _, da, _ := connectPair(t, w)
	before := da.Core().BusyTime()
	w.eng.After(0, func() {
		for i := 0; i < 10; i++ {
			_ = cq.PostSend(SendWR{Op: OpSend, Data: []byte("x")})
		}
	})
	// No recv posted on the peer; we only care about sender CPU accounting.
	w.eng.Run(0)
	got := da.Core().BusyTime() - before
	want := 10 * w.p.CPUPostWR
	if got != want {
		t.Fatalf("10 posts consumed %v CPU, want %v", got, want)
	}
}

func TestOneSidedWriteConsumesNoRemoteCPU(t *testing.T) {
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(1 << 20)
	before := db.Core().BusyTime()
	w.eng.After(0, func() {
		for i := 0; i < 100; i++ {
			_ = cq.PostSend(SendWR{Op: OpWrite, Data: make([]byte, 4096), RemoteKey: mr.RKey(), RemoteOff: i * 4096})
		}
	})
	w.eng.Run(0)
	if got := db.Core().BusyTime() - before; got != 0 {
		t.Fatalf("passive side consumed %v CPU on one-sided writes", got)
	}
}

func TestCQNotifyEdgeTriggered(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	notifies := 0
	sq.RecvCQ.OnNotify(func() { notifies++ }) // never re-arms
	sq.RecvCQ.RequestNotify()
	w.eng.After(0, func() {
		sq.PostRecvN(1, 8)
		for i := 0; i < 5; i++ {
			_ = cq.PostSend(SendWR{Op: OpSend, Data: []byte("m")})
		}
	})
	w.eng.Run(0)
	if notifies != 1 {
		t.Fatalf("notify fired %d times without re-arm, want 1", notifies)
	}
	if sq.RecvCQ.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", sq.RecvCQ.Pending())
	}
}

func TestCQRequestNotifyFiresImmediatelyWhenPending(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	fired := false
	w.eng.After(0, func() {
		sq.PostRecv(RecvWR{})
		_ = cq.PostSend(SendWR{Op: OpSend, Data: []byte("m")})
	})
	w.eng.Run(0)
	sq.RecvCQ.OnNotify(func() { fired = true })
	sq.RecvCQ.RequestNotify()
	if !fired {
		t.Fatal("RequestNotify with pending completions did not fire")
	}
}

func TestClosedQPRejectsPost(t *testing.T) {
	w := newWorld()
	cq, _, _, _ := connectPair(t, w)
	cq.Close()
	if err := cq.PostSend(SendWR{Op: OpSend}); err == nil {
		t.Fatal("PostSend on closed QP succeeded")
	}
	if !cq.Closed() {
		t.Fatal("Closed() = false")
	}
}

func TestWriteLatencyMatchesFig3Scale(t *testing.T) {
	// Small WRITE host→host should land in the low single-digit µs,
	// consistent with the paper's Fig 3.
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(64)
	var landed sim.Time
	var start sim.Time
	w.eng.After(1_000_000, func() {
		start = w.eng.Now()
		_ = cq.PostSend(SendWR{Op: OpWrite, Data: make([]byte, 8), RemoteKey: mr.RKey(), Signaled: true})
	})
	cq.SendCQ.OnNotify(func() {
		cq.SendCQ.Poll(0)
		landed = w.eng.Now()
	})
	cq.SendCQ.RequestNotify()
	w.eng.Run(0)
	rt := landed.Sub(start)
	if rt < 1*sim.Microsecond || rt > 8*sim.Microsecond {
		t.Fatalf("8B WRITE completion after %v, want a few µs", rt)
	}
}

func TestPollMaxLimitsBatch(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	w.eng.After(0, func() {
		sq.PostRecvN(0, 10)
		for i := 0; i < 10; i++ {
			_ = cq.PostSend(SendWR{Op: OpSend, Data: []byte("m")})
		}
	})
	w.eng.Run(0)
	if got := len(sq.RecvCQ.Poll(4)); got != 4 {
		t.Fatalf("Poll(4) returned %d", got)
	}
	if got := len(sq.RecvCQ.Poll(0)); got != 6 {
		t.Fatalf("Poll(0) after partial drain returned %d", got)
	}
}

// TestWriteImmPingPongAllocations: the ib_write_lat shape — post a receive,
// arm the completion channel, WRITE_WITH_IMM, harvest — runs without
// allocating once the devices' packet records, the CQ buffers and the
// receive queue have reached their working size.
func TestWriteImmPingPongAllocations(t *testing.T) {
	w := newWorld()
	cq, sq, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(256)
	data := make([]byte, 64)
	remaining, harvested := 0, 0
	var post func()
	sq.RecvCQ.OnNotify(func() {
		harvested += len(sq.RecvCQ.Poll(0))
		if remaining--; remaining > 0 {
			post()
		}
	})
	post = func() {
		sq.PostRecv(RecvWR{})
		sq.RecvCQ.RequestNotify()
		if err := cq.PostSend(SendWR{Op: OpWriteImm, Data: data, RemoteKey: mr.RKey(), Imm: 64}); err != nil {
			t.Fatal(err)
		}
	}
	const writes = 200
	run := func() {
		remaining = writes
		w.eng.After(0, post)
		w.eng.Run(0)
	}
	run()
	allocs := testing.AllocsPerRun(10, run)
	if per := allocs / writes; per > 1 {
		t.Fatalf("WRITE_WITH_IMM ping-pong allocates %.2f times per write, want <= 1", per)
	}
	if harvested != 12*writes {
		t.Fatalf("harvested %d completions, want %d", harvested, 12*writes)
	}
}

// TestSendCopiesAndReceiverOwnsItsData: PostSend takes a copy (the caller
// may reuse its buffer at once), and the Data of a RECV completion is the
// receiver's own — the packet record it arrived in is recycled for the next
// message while the completion is still held.
func TestSendCopiesAndReceiverOwnsItsData(t *testing.T) {
	w := newWorld()
	cq, sq, _, _ := connectPair(t, w)
	var got [][]byte
	sq.RecvCQ.OnNotify(func() {
		for _, wc := range sq.RecvCQ.Poll(0) {
			got = append(got, wc.Data) // kept past the next Poll: Data is owned, the WC slice is not
		}
		sq.RecvCQ.RequestNotify()
	})
	sq.RecvCQ.RequestNotify()
	var buf []byte
	w.eng.After(0, func() {
		sq.PostRecvN(0, 3)
		for _, msg := range []string{"first message", "second, longer message", "third"} {
			buf = append(buf[:0], msg...)
			if err := cq.PostSend(SendWR{Op: OpSend, Data: buf}); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 'X' // scribble over the caller's buffer right after the post
			}
		}
	})
	w.eng.Run(0)
	w.eng.After(0, func() { // a later message reuses the first one's packet record
		sq.PostRecv(RecvWR{})
		_ = cq.PostSend(SendWR{Op: OpSend, Data: []byte("fourth message!!!")})
	})
	w.eng.Run(0)
	want := []string{"first message", "second, longer message", "third", "fourth message!!!"}
	if len(got) != len(want) {
		t.Fatalf("received %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Errorf("message %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReregisterKeepsBytesRetiresKey: a re-registered region answers to its
// new key only; the bytes are the same.
func TestReregisterKeepsBytesRetiresKey(t *testing.T) {
	w := newWorld()
	cq, _, _, db := connectPair(t, w)
	mr := db.AllocPD().RegisterMR(64)
	oldKey := mr.RKey()
	mem := &mr.Bytes()[0]
	mr.Reregister()
	if mr.RKey() == oldKey || &mr.Bytes()[0] != mem {
		t.Fatalf("Reregister: key %d -> %d, same bytes %v", oldKey, mr.RKey(), &mr.Bytes()[0] == mem)
	}
	var statuses []Status
	cq.SendCQ.OnNotify(func() {
		for _, wc := range cq.SendCQ.Poll(0) {
			statuses = append(statuses, wc.Status)
		}
		cq.SendCQ.RequestNotify()
	})
	cq.SendCQ.RequestNotify()
	w.eng.After(0, func() {
		_ = cq.PostSend(SendWR{Op: OpWrite, Data: []byte("stale"), RemoteKey: oldKey, Signaled: true})
		_ = cq.PostSend(SendWR{Op: OpWrite, Data: []byte("fresh"), RemoteKey: mr.RKey(), Signaled: true})
	})
	w.eng.Run(0)
	if len(statuses) != 2 || statuses[0] != StatusRemoteAccessErr || statuses[1] != StatusSuccess {
		t.Fatalf("statuses = %v, want [RemoteAccessErr Success]", statuses)
	}
	if string(mr.Bytes()[:5]) != "fresh" {
		t.Fatalf("region holds %q", mr.Bytes()[:5])
	}
}
