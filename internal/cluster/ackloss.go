// Ack-loss probe: the experiment behind the consistency plane's headline
// claim. A closed-loop ledger writer hammers a single-master SKV deployment
// whose replication stream is batched (so acknowledged bytes can sit
// unflushed on the master), the master crashes mid-load, the NIC fails over,
// and the probe then audits every write the cluster ACKNOWLEDGED against the
// promoted survivor's store. Under async consistency the batching window is
// a durability hole — acked writes die with the master. Under quorum/all the
// reply only fires after enough slaves hold the write and failover promotes
// the max-offset survivor, so the audit must come back clean.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/consistency"
	"skv/internal/core"
	"skv/internal/resp"
	"skv/internal/server"
	"skv/internal/sim"
)

// ackLossSpec pins the probe's shape (the determinism tests re-run it
// verbatim and diff the traces).
const (
	aklSlaves       = 3
	aklLedgerKeys   = 8
	aklLedgerWindow = 4
	aklBatchCmds    = 64
	aklBatchDelay   = 2 * sim.Millisecond
	aklPartitionAt  = 100 * sim.Millisecond
	aklCrashAt      = 307 * sim.Millisecond
	aklRunFor       = 1300 * sim.Millisecond
	aklSettle       = 700 * sim.Millisecond
)

// ackLedger is the probe's oracle: a closed-loop writer that SETs a fixed
// key ring with a strictly increasing sequence per write and records, per
// key, the highest sequence the cluster acknowledged. Unlike the reshard
// ledger it never re-routes — the probe targets one master and issues
// nothing more once that master is crashed. A reply already on the wire at
// the crash still reaches the client, so it still counts: acknowledged is
// what the client saw, not what the master lived to see delivered.
type ackLedger struct {
	pool *respPool
	addr string
	keys []string

	running bool
	seq     int
	acked   map[string]int // key -> highest acked seq

	WritesAcked uint64
	Errs        uint64
}

func newAckLedger(c *Cluster, addr string, n int) *ackLedger {
	l := &ackLedger{pool: newRespPool(c, "ackledger"), addr: addr, acked: map[string]int{}}
	for i := 0; i < n; i++ {
		l.keys = append(l.keys, fmt.Sprintf("akl:%d", i))
	}
	return l
}

func (l *ackLedger) start() {
	l.running = true
	for i := 0; i < aklLedgerWindow; i++ {
		l.next()
	}
}

func (l *ackLedger) stop() { l.running = false }

func (l *ackLedger) next() {
	if !l.running {
		return
	}
	l.pool.proc.Core.Charge(l.pool.c.Params.ClientThinkCPU)
	seq := l.seq
	l.seq++
	k := l.keys[seq%len(l.keys)]
	l.pool.send(l.addr, resp.EncodeCommand("SET", k, ackValue(k, seq)), func(rv resp.Value) {
		if rv.IsError() {
			l.Errs++
		} else if prev, seen := l.acked[k]; !seen || seq > prev {
			l.acked[k] = seq
			l.WritesAcked++
		} else {
			l.WritesAcked++
		}
		l.next()
	})
}

// ackValue is the unique per-write payload; the audit parses the sequence
// back out of the survivor's store.
func ackValue(k string, seq int) string { return fmt.Sprintf("%s#%d", k, seq) }

func ackSeq(val string) (int, bool) {
	i := strings.LastIndexByte(val, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(val[i+1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// CrashInstant names what the replication pipeline has just done when the
// probe kills the master.
type CrashInstant int

const (
	// CrashOnTime kills the master aklCrashAt into the load, whatever it is
	// doing.
	CrashOnTime CrashInstant = iota
	// CrashMidBatch waits until executed writes sit unflushed in the stream
	// writer (at batch 1 there is no such moment: same as CrashOnTime).
	CrashMidBatch
	// CrashAfterFlush waits until the next replication request has left for
	// the NIC.
	CrashAfterFlush
	// CrashAfterRelease waits until the master has next fired parked replies:
	// they are on the wire, and the writes behind them are all it got out.
	CrashAfterRelease
)

func (i CrashInstant) String() string {
	return [...]string{"on time", "mid-batch", "after a flush", "after a release"}[i]
}

// AckLossSpec is one cell of the probe.
type AckLossSpec struct {
	Level consistency.Level
	W     int
	Seed  int64
	// Batch is ReplBatchMaxCmds; 0 is the probe's 64.
	Batch int
	// Crash picks the instant, at or after aklCrashAt, the master dies at.
	Crash CrashInstant
	// Partition cuts slave 0 — the head of the node list, which a
	// first-valid failover would promote — from the NIC before the crash.
	Partition bool
}

// AckLossResult is everything RunAckLossProbe measured.
type AckLossResult struct {
	C *Cluster
	H *Chaos

	// WritesAcked counts replies the ledger recorded; Lost lists each
	// acknowledged write the promoted survivor does not hold (empty = the
	// consistency level held its durability promise).
	WritesAcked uint64
	Lost        []string
	// Promoted names the slave the NIC promoted.
	Promoted string
}

// RunAckLossProbe builds a 1-master/3-slave SKV deployment at the spec's
// write consistency level, batches the replication stream (64 cmds / 2ms by
// default — the window that makes async acks volatile), crashes the master
// mid-load at the spec's instant, and audits the ledger against the promoted
// survivor. The returned error covers harness failures (replication or
// failover never happened); lost writes are data, reported in
// AckLossResult.Lost.
func RunAckLossProbe(spec AckLossSpec) (*AckLossResult, error) {
	p := ChaosParams(0)
	p.ReplBatchMaxCmds = aklBatchCmds
	if spec.Batch > 0 {
		p.ReplBatchMaxCmds = spec.Batch
	}
	p.ReplBatchMaxDelay = aklBatchDelay
	c := Build(Config{
		Kind:        KindSKV,
		Slaves:      aklSlaves,
		Clients:     1,
		Seed:        spec.Seed,
		Params:      p,
		SKV:         core.Config{ProgressInterval: 50 * sim.Millisecond},
		Consistency: ConsistencyOpts{Level: spec.Level, Quorum: spec.W},
	})
	if !c.AwaitReplication(2 * sim.Second) {
		return nil, fmt.Errorf("ackloss: initial replication did not complete")
	}
	h := NewChaos(c)
	h.Note("replication ready")

	ledger := newAckLedger(c, c.MasterMachine.Host.Name(), aklLedgerKeys)
	ledger.start()
	if spec.Partition {
		h.PartitionNicSlave(aklPartitionAt, 0)
	}
	// From aklCrashAt on, look every microsecond for the spec's instant and
	// kill the master in it; the ledger issues nothing more from then.
	released := c.Master.Metrics().Counter("consistency.writes_released")
	var flushes, releases uint64
	reached := func() bool {
		switch spec.Crash {
		case CrashMidBatch:
			return p.ReplBatchMaxCmds == 1 || c.Master.ReplStream().Pending() > 0
		case CrashAfterFlush:
			return c.HostKV.ReplReqsSent > flushes
		case CrashAfterRelease:
			return released.Value() > releases
		}
		return true
	}
	var watch func()
	watch = func() {
		if !reached() {
			c.Eng.After(sim.Microsecond, watch)
			return
		}
		h.Note("crash master")
		ledger.stop()
		c.Master.Crash()
	}
	c.Eng.After(aklCrashAt, func() {
		flushes, releases = c.HostKV.ReplReqsSent, released.Value()
		watch()
	})
	c.Eng.RunFor(aklRunFor)
	h.Note("load stopped")
	c.Eng.RunFor(aklSettle)
	h.Note("settled")

	res := &AckLossResult{C: c, H: h, WritesAcked: ledger.WritesAcked}
	if ledger.Errs > 0 {
		return res, fmt.Errorf("ackloss: ledger absorbed %d error replies", ledger.Errs)
	}
	if ledger.WritesAcked == 0 {
		return res, fmt.Errorf("ackloss: ledger recorded no acknowledged write")
	}
	if c.NicKV.Failovers == 0 || c.NicKV.PromotedID() == "" {
		return res, fmt.Errorf("ackloss: the NIC never failed over (promoted=%q)", c.NicKV.PromotedID())
	}
	res.Promoted = c.NicKV.PromotedID()

	// Audit: every acknowledged write must be visible on the promoted
	// survivor, either as the acked value itself or a later one (a write in
	// flight at the crash may have replicated without its reply landing).
	var surv *server.Server
	for _, s := range c.Slaves {
		if s.Alive() && s.Role() == server.RoleMaster {
			if surv != nil {
				return res, fmt.Errorf("ackloss: split brain — two promoted slaves")
			}
			surv = s
		}
	}
	if surv == nil {
		return res, fmt.Errorf("ackloss: no promoted slave is serving as master")
	}
	for _, k := range ledger.keys {
		ackedSeq, wasAcked := ledger.acked[k]
		if !wasAcked {
			continue
		}
		reply, _ := surv.Store().Exec(0, [][]byte{[]byte("get"), []byte(k)})
		var r resp.Reader
		r.Feed(reply)
		v, okV, _ := r.ReadValue()
		if !okV || v.Null {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor holds nothing", k, ackedSeq))
			continue
		}
		gotSeq, okSeq := ackSeq(string(v.Str))
		if !okSeq {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor holds garbage %q", k, ackedSeq, v.Str))
			continue
		}
		if gotSeq < ackedSeq {
			res.Lost = append(res.Lost, fmt.Sprintf("%s: acked seq %d, survivor stuck at seq %d", k, ackedSeq, gotSeq))
		}
	}
	return res, nil
}
