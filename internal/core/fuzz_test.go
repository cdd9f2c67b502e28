package core

import (
	"encoding/binary"
	"testing"

	"skv/internal/replstream"
	"skv/internal/resp"
	"skv/internal/sim"
)

// fuzzUnit is a synced master + Nic-KV + slave whose three frame handlers
// answer into sink connections, so arbitrary frames can be driven through
// them the way TestMalformedFramesRejected drives two.
type fuzzUnit struct {
	*unit
	master, slave *sinkConn // the NIC's view of its two peers
}

func newFuzzUnit(t testing.TB) *fuzzUnit {
	u := &fuzzUnit{unit: newUnit(1, DefaultConfig()), master: &sinkConn{}, slave: &sinkConn{}}
	u.eng.RunFor(50 * sim.Millisecond)
	if !u.agents[0].Synced() {
		t.Fatal("slave never synced")
	}
	u.host.nicConn = &sinkConn{}
	u.agents[0].nicConn = &sinkConn{}
	u.nic.masterConn = u.master
	u.nic.registerSlave("fuzz-slave", "", 0, u.slave)
	return u
}

// FuzzCoreFrames feeds arbitrary bytes to every frame handler of a live SKV
// unit: Nic-KV (as sent by the master and by a slave), Host-KV and the slave
// agent. None may panic on them; a replication request queues a gate only
// when it is well formed and carries one; the gate gauge tracks the queue;
// and Host-KV takes a status report only in statusFrame's layout.
func FuzzCoreFrames(f *testing.F) {
	set := resp.EncodeCommand("SET", "k", "v")
	for _, seed := range [][]byte{
		{msgMasterHello},
		appendU64(appendStr(appendStr([]byte{msgInitSync}, "slave9"), "replid"), 12),
		appendU64(appendStr(appendStr([]byte{msgNewSlave}, "slave9"), "replid"), 12),
		appendOffload(nil, 0, 0, 1, set),
		appendOffload(nil, 0, replstream.QuorumGate(2), 1, set),
		appendOffload(nil, 27, replstream.GateAll, 2, append(append([]byte(nil), set...), set...)),
		appendOffload(nil, 0, replstream.GateAll.Join(replstream.QuorumGate(3)), 1, set),
		append(u64s(msgOffload, 0, 1<<48|2<<32|1), set...), // reserved gate bit
		append(u64s(msgOffload, 0, 2<<32), set...),         // a gate on no command
		appendStream(nil, msgCmdStream, 0, set),
		appendStream(nil, msgCmdStreamAck, 0, set),
		{msgProbe},
		{msgProbeAck},
		append(appendU64(appendStr([]byte{msgPayloadRDB}, "replid"), 0), "REDIS"...),
		append(appendU64(appendStr([]byte{msgPayloadBacklog}, "replid"), 0), set...),
		u64s(msgProgress, 27),
		statusFrame([]int64{27, 54}, 1),
		statusFrame(nil, 2),
		u64s(msgStatus, 1<<62, 10, 10, 1),
		u64s(msgStatus, 1, 50, 50),         // no threads field
		u64s(msgStatus, 1, 1<<64-1, 50, 1), // negative slowest offset
		{msgPromote},
		{msgDemote},
		u64s(msgAckRelease, 27),
		EncodeTrackHello("client0"),
		appendKey(appendStr([]byte{msgTrackKey}, "client0"), "k"),
		appendStr([]byte{msgTrackDrop}, "client0"),
		appendKey([]byte{msgInvalidate}, "k"),
		{},
	} {
		f.Add(seed)
	}

	var u *fuzzUnit
	runs := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		// Handlers accumulate state (node list, buffered chunks, queued
		// gates); a fresh unit every so often bounds it.
		if runs%512 == 0 {
			u = newFuzzUnit(t)
		}
		runs++
		// Counted by the push counter, not the queue's length: a registration
		// or a report may pop gates an earlier input left pending.
		before := u.nic.mGatesQueued.Value()
		u.nic.onMessage(u.master, data)
		if queued := int(u.nic.mGatesQueued.Value() - before); queued != gatesCarried(data) {
			t.Fatalf("master frame %q queued %d gates, want %d", data, queued, gatesCarried(data))
		}
		u.nic.onMessage(u.slave, data)
		u.host.statusSeen = false
		u.host.onNicMessage(data)
		if u.host.statusSeen != statusWellFormed(data) {
			t.Fatalf("status frame %q: accepted=%t, want %t", data, u.host.statusSeen, statusWellFormed(data))
		}
		u.agents[0].onNicMessage(data)
		u.eng.RunFor(10 * sim.Microsecond)
		if g := u.nic.gGatesPending.Value(); g < 0 || g != int64(u.nic.gates.Len()) {
			t.Fatalf("after %q: gate.pending = %d with %d gates queued", data, g, u.nic.gates.Len())
		}
	})
}

// gatesCarried is the reference reading of a replication request's header:
// 1 when frame is a msgOffload with room for a command, bytes that start and
// end at non-negative stream offsets, a non-zero command count that fits its
// payload, and a gate word that is non-zero and has no reserved bit set — the
// only frame that may queue a gate.
func gatesCarried(frame []byte) int {
	if len(frame) < 17 || frame[0] != msgOffload {
		return 0
	}
	gate, cmds := binary.BigEndian.Uint32(frame[9:]), binary.BigEndian.Uint32(frame[13:])
	if start := int64(binary.BigEndian.Uint64(frame[1:])); start < 0 || start+int64(len(frame)-17) < 0 {
		return 0
	}
	if cmds == 0 || int64(cmds) > int64(len(frame)-17) || gate == 0 || gate&0x7fff0000 != 0 {
		return 0
	}
	return 1
}

// statusWellFormed is the reference reading of statusFrame's one layout:
// whole words only, a slave count that matches the offsets present, a
// non-negative slowest offset and a trailing thread count of at least one.
func statusWellFormed(frame []byte) bool {
	if len(frame) < 1+3*8 || frame[0] != msgStatus || (len(frame)-1)%8 != 0 {
		return false
	}
	word := func(i int) int64 { return int64(binary.BigEndian.Uint64(frame[1+8*i:])) }
	words := (len(frame) - 1) / 8
	return uint64(word(0)) == uint64(words-3) && word(1) >= 0 && word(words-1) >= 1
}
