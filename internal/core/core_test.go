package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/rconn"
	"skv/internal/replstream"
	"skv/internal/server"
	"skv/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	frame := []byte{msgInitSync}
	frame = appendStr(frame, "slave0/host")
	frame = appendStr(frame, "replid-abc")
	frame = appendU64(frame, 123456789)

	r := &frameReader{b: frame, pos: 1}
	if got := r.str(); got != "slave0/host" {
		t.Fatalf("id=%q", got)
	}
	if got := r.str(); got != "replid-abc" {
		t.Fatalf("replid=%q", got)
	}
	if got := r.i64(); got != 123456789 {
		t.Fatalf("offset=%d", got)
	}
	if r.bad {
		t.Fatal("reader flagged bad on valid frame")
	}
}

func TestFrameReaderRest(t *testing.T) {
	frame := []byte{msgCmdStream}
	frame = appendU64(frame, 42)
	frame = append(frame, []byte("command-bytes")...)
	r := &frameReader{b: frame, pos: 1}
	if off := r.i64(); off != 42 {
		t.Fatalf("off=%d", off)
	}
	if got := string(r.rest()); got != "command-bytes" {
		t.Fatalf("rest=%q", got)
	}
}

func TestFrameReaderTruncationSetsBad(t *testing.T) {
	cases := [][]byte{
		{msgInitSync},                    // nothing after tag
		{msgInitSync, 0x00},              // half a length prefix
		{msgInitSync, 0x00, 0x05, 'a'},   // promised 5, delivered 1
		append([]byte{msgOffload}, 1, 2), // partial u64
		{msgTrackKey, 0, 0},              // half a key length prefix
		{msgTrackKey, 0, 0, 0, 9, 'x'},   // key promised 9, delivered 1
	}
	for i, frame := range cases {
		r := &frameReader{b: frame, pos: 1}
		switch frame[0] {
		case msgInitSync:
			r.str()
		case msgOffload:
			r.u64()
		case msgTrackKey:
			r.key()
		}
		if !r.bad {
			t.Errorf("case %d: truncated frame not flagged", i)
		}
		if r.rest() != nil {
			t.Errorf("case %d: rest() on bad frame not nil", i)
		}
	}
}

// TestOffloadFrameRoundTrip: the one replication-request frame decodes to
// what was encoded, at one command and at a batch of eight, ungated and under
// every kind of gate. An ungated request is, byte for byte, the frame the
// request was before gates rode in it: offset, then the command count as one
// 64-bit word. What building it costs is TestOffloadFrameAllocations'.
func TestOffloadFrameRoundTrip(t *testing.T) {
	one := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
	gates := []replstream.Gate{0, replstream.QuorumGate(1), replstream.QuorumGate(2), replstream.GateAll,
		replstream.GateAll.Join(replstream.QuorumGate(3))}
	var scratch []byte
	for _, cmds := range []int{8, 1} {
		data := []byte(strings.Repeat(one, cmds))
		for _, gate := range gates {
			frame := appendOffload(scratch[:0], 4242, gate, cmds, data)
			if frame[0] != msgOffload || len(frame) != 17+len(data) {
				t.Fatalf("cmds=%d gate=%#x: tag %q, len %d; want a %d-byte frame", cmds, gate, frame[0], len(frame), 17+len(data))
			}
			off, got, cnt, body, ok := (&frameReader{b: frame, pos: 1}).offload()
			if !ok || off != 4242 || got != gate || cnt != cmds || !bytes.Equal(body, data) {
				t.Fatalf("cmds=%d gate=%#x: decoded ok=%t off=%d gate=%#x cnt=%d data=%q", cmds, gate, ok, off, got, cnt, body)
			}
			scratch = frame
		}
		parent := "Q\x00\x00\x00\x00\x00\x00\x10\x92\x00\x00\x00\x00\x00\x00\x00" + string(rune(cmds)) + string(data)
		if got := appendOffload(nil, 4242, 0, cmds, data); string(got) != parent {
			t.Fatalf("cmds=%d: ungated frame %q, want the pre-gate encoding %q", cmds, got, parent)
		}
	}
	quorum2 := "Q\x00\x00\x00\x00\x00\x00\x10\x92\x00\x00\x00\x02\x00\x00\x00\x01" + one
	if got := appendOffload(nil, 4242, replstream.QuorumGate(2), 1, []byte(one)); string(got) != quorum2 {
		t.Fatalf("quorum-2 frame %q, want %q", got, quorum2)
	}
}

// TestOffloadFrameAllocations: building the replication-request frame in a
// frame the sender already holds allocates nothing, at one command and at a
// batch of eight, ungated and under every kind of gate.
func TestOffloadFrameAllocations(t *testing.T) {
	one := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"
	gates := []replstream.Gate{0, replstream.QuorumGate(1), replstream.QuorumGate(2), replstream.GateAll,
		replstream.GateAll.Join(replstream.QuorumGate(3))}
	var scratch []byte
	for _, cmds := range []int{8, 1} {
		data := []byte(strings.Repeat(one, cmds))
		for _, gate := range gates {
			scratch = appendOffload(scratch[:0], 4242, gate, cmds, data)
			if n := testing.AllocsPerRun(100, func() { scratch = appendOffload(scratch[:0], 4242, gate, cmds, data) }); n != 0 {
				t.Fatalf("cmds=%d gate=%#x: rebuilding the frame in place allocated %.1f times, want 0", cmds, gate, n)
			}
		}
	}
}

// u64s frames a tag followed by 64-bit words.
func u64s(tag byte, vs ...uint64) []byte {
	frame := []byte{tag}
	for _, v := range vs {
		frame = appendU64(frame, v)
	}
	return frame
}

// TestMalformedFramesRejected drives a live master and its Nic-KV with
// frames that lie about a count read off the wire. Each handler must refuse
// the frame — not panic sizing a slice with the claimed count, and not act
// on a half-decoded request.
func TestMalformedFramesRejected(t *testing.T) {
	p := model.Default()
	eng := sim.New(1)
	net := fabric.New(eng, &p)
	m := net.NewMachine("master", true)
	proc := sim.NewProc(eng, sim.NewCore(eng, "master-core", p.HostCoreSpeed), p.CompChannelWake)
	srv := server.New(server.Options{Name: "master", Params: &p, Seed: 1, Port: ClientPort, DisableCron: true},
		eng, rconn.New(net, m.Host, proc), proc)
	nic := NewNicKV(eng, net, m, &p, DefaultConfig())
	host := AttachMaster(srv, net, m.NIC, DefaultConfig())
	eng.RunFor(10 * sim.Millisecond)

	cases := []struct {
		name   string
		frame  []byte
		wantOK bool
	}{
		{"status: two slaves", u64s(msgStatus, 2, 10, 10, 20, 1), true},
		{"status: no slaves", u64s(msgStatus, 0, 0, 1), true},
		{"status: count far beyond the frame", u64s(msgStatus, 1<<62, 10, 10), false},
		{"status: count one past the offsets present", u64s(msgStatus, 3, 10, 10, 20), false},
		{"status: count that wraps int", u64s(msgStatus, 1<<63, 10), false},
		{"status: truncated header", u64s(msgStatus, 1)[:12], false},
		{"status: tag only", []byte{msgStatus}, false},
		{"status: no threads field", u64s(msgStatus, 1, 50, 50), false},
		{"status: zero threads", u64s(msgStatus, 1, 50, 50, 0), false},
		{"status: negative slowest offset", u64s(msgStatus, 1, 1<<64-1, 50, 1), false},
		{"status: a word left over", u64s(msgStatus, 1, 50, 50, 1, 7), false},
		{"status: a byte left over", append(u64s(msgStatus, 1, 50, 50, 1), 0), false},

		{"offload: one command", append(u64s(msgOffload, 7, 1), "PING"...), true},
		{"offload: zero commands", append(u64s(msgOffload, 7, 0), "PING"...), false},
		{"offload: count that wraps int", append(u64s(msgOffload, 7, 1<<63), "PING"...), false},
		{"offload: more commands than payload bytes", append(u64s(msgOffload, 7, 5), "PING"...), false},
		{"offload: no payload", u64s(msgOffload, 7, 1), false},
		{"offload: truncated count", u64s(msgOffload, 7, 1)[:13], false},
		{"offload: tag only", []byte{msgOffload}, false},
		{"offload: quorum-2 gate", append(u64s(msgOffload, 7, 2<<32|1), "PING"...), true},
		{"offload: all gate", append(u64s(msgOffload, 7, 1<<63|1), "PING"...), true},
		{"offload: gate with a reserved bit", append(u64s(msgOffload, 7, 1<<48|2<<32|1), "PING"...), false},
		{"offload: gate but zero commands", append(u64s(msgOffload, 7, 2<<32), "PING"...), false},
		{"offload: gated, starting below offset zero", append(u64s(msgOffload, 1<<64-1000, 1<<32|1), "PING"...), false},
		{"offload: gated, ending past the last offset", append(u64s(msgOffload, 1<<63-2, 1<<32|1), "PING"...), false},
	}
	for _, tc := range cases {
		var ok bool
		switch tc.frame[0] {
		case msgStatus:
			host.statusSeen = false
			host.onNicMessage(tc.frame)
			ok = host.statusSeen
		case msgOffload:
			before, gates := nic.ReplCmds.Value(), nic.gates.Len()
			nic.onMessage(nil, tc.frame)
			ok = nic.ReplCmds.Value() > before
			// An accepted request queues its gate, if it has one (the high
			// half of the second header word); a refused one queues nothing.
			want := 0
			if tc.wantOK && binary.BigEndian.Uint32(tc.frame[9:]) != 0 {
				want = 1
			}
			if queued := nic.gates.Len() - gates; queued != want {
				t.Errorf("%s: queued %d gates, want %d", tc.name, queued, want)
			}
		}
		if ok != tc.wantOK {
			t.Errorf("%s: accepted=%t, want %t", tc.name, ok, tc.wantOK)
		}
	}
}

// TestKeyFrameCarriesLongKeys: key lengths do not wrap at 64 KiB — a wrapped
// length would track (or invalidate) a different key than the one cached.
func TestKeyFrameCarriesLongKeys(t *testing.T) {
	for _, n := range []int{0, 1, 65535, 65536, 70000} {
		key := strings.Repeat("k", n)
		frame := appendKey(appendStr([]byte{msgTrackKey}, "client0"), key)
		r := &frameReader{b: frame, pos: 1}
		if name, got := r.str(), r.key(); name != "client0" || got != key || r.bad {
			t.Fatalf("len %d: name=%q key len %d bad=%t", n, name, len(got), r.bad)
		}
		var pushed string
		if !ParseSubscriberFrames(appendKey([]byte{msgInvalidate}, key), func() {}, func(k string) { pushed = k }) || pushed != key {
			t.Fatalf("len %d: invalidation push decoded a %d-byte key", n, len(pushed))
		}
	}
}

// Property: string + u64 sequences round-trip for arbitrary content.
func TestFrameEncodingProperty(t *testing.T) {
	f := func(a, b string, n uint64) bool {
		if len(a) > 60000 || len(b) > 60000 {
			return true
		}
		frame := []byte{0xAA}
		frame = appendStr(frame, a)
		frame = appendU64(frame, n)
		frame = appendStr(frame, b)
		r := &frameReader{b: frame, pos: 1}
		return r.str() == a && r.u64() == n && r.str() == b && !r.bad
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ThreadNum != 1 {
		t.Error("paper default is single-threaded NIC replication")
	}
	if cfg.MinSlaves != 0 || cfg.MaxLag != 0 {
		t.Error("gates should default off")
	}
	if cfg.ProgressInterval <= 0 {
		t.Error("progress reports must be periodic")
	}
	_ = sim.Second
}

func TestPortAssignments(t *testing.T) {
	// The three planes must not collide.
	if ClientPort == ReplPort || ClientPort == NicPort || ReplPort == NicPort {
		t.Fatal("port collision")
	}
}
