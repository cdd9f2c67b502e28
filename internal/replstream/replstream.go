// Package replstream is the single home of the replication data path shared
// by every producer and consumer of the write stream: the baseline master's
// per-slave fan-out, Host-KV's SmartNIC offload, Nic-KV's NIC-side fan-out,
// and the slave-side appliers.
//
// The Writer owns everything that used to be hand-rolled in three places
// (server/repl.go, core/hostkv.go, core/nickv.go): backlog append,
// SELECT-context injection, offset accounting, and per-tick batching. A
// batch is a run of consecutively encoded commands plus the global stream
// offset of its first byte; because RESP commands are self-framing, a batch
// travels as plain concatenated bytes and any offset-aware consumer can
// slice it on command boundaries.
//
// Batching is the doorbell/work-request amortization off-path SmartNIC
// studies show dominates replication cost: instead of one send (and one
// posted WR) per write, the Writer accumulates commands and flushes either
// when a byte/command budget is hit or when the producing core quiesces
// (the event-loop tick ends). With a command budget of 1 the Writer flushes
// synchronously inside Append and reproduces the unbatched behaviour
// bit-for-bit.
//
// The Applier is the consume-side mirror: it decodes a replication byte
// stream (batched or not) back into commands, tracks the SELECT context,
// and hands each data command to an apply callback.
package replstream

import (
	"strconv"

	"skv/internal/backlog"
	"skv/internal/metrics"
	"skv/internal/resp"
)

// Batch is one flushed run of the replication stream.
type Batch struct {
	// Start is the global replication offset of Data[0].
	Start int64
	// Data is the concatenation of the batch's RESP-encoded commands. It is
	// lent to the Flush callback until it returns — the Writer encodes the
	// next batch into the same buffer — so a consumer that keeps the bytes
	// copies them (a send does).
	Data []byte
	// Cmds is the number of commands in Data (SELECT injections included).
	Cmds int
	// Gate joins the gates of the batch's gated writes (zero when it holds
	// none): their replies wait until the replicas it names hold the stream
	// up to End.
	Gate Gate
}

// End reports the global offset one past the batch's last byte.
func (b Batch) End() int64 { return b.Start + int64(len(b.Data)) }

// Gate is the replica acknowledgment a gated write's reply waits for, in the
// form that rides the replication request: the low 16 bits are a quorum count
// (0 = none) and the top bit asks for every replica the enforcer currently
// considers valid. The zero Gate gates nothing; the bits between are reserved.
type Gate uint32

const (
	// GateAll waits for every valid replica.
	GateAll Gate = 1 << 31
	// gateQuorum masks the quorum count.
	gateQuorum Gate = 1<<16 - 1
)

// QuorumGate waits for w replicas (clamped to what the count field holds).
func QuorumGate(w int) Gate { return Gate(min(max(w, 1), int(gateQuorum))) }

// WellFormed reports whether no reserved bit of g is set.
func (g Gate) WellFormed() bool { return g&^(GateAll|gateQuorum) == 0 }

// Join is the gate that holds until both g and o would release: the larger
// quorum count, and every valid replica when either asks for that.
func (g Gate) Join(o Gate) Gate {
	return (g|o)&GateAll | max(g&gateQuorum, o&gateQuorum)
}

// Need is how many of the valid replicas must hold the gated bytes before g
// releases. "Every valid replica" never means none: with an empty replica
// set the strictest level holds instead of degrading to async.
func (g Gate) Need(valid int) int {
	need := int(g & gateQuorum)
	if g&GateAll != 0 {
		need = max(need, valid, 1)
	}
	return need
}

// WriterConfig wires a Writer to its embedder.
type WriterConfig struct {
	// Backlog receives every appended byte (before any flush).
	Backlog *backlog.Backlog
	// MaxCmds flushes a batch once it holds this many commands; 1 (or less)
	// flushes synchronously inside Append — the unbatched behaviour.
	MaxCmds int
	// Flush delivers one batch downstream (fan-out to slaves, or the
	// replication request to Nic-KV). The batch's Data is borrowed until it
	// returns.
	Flush func(Batch)
	// Schedule, when non-nil, defers a function to the producing core's
	// quiesce point (end of the current event-loop tick). It is used to
	// flush partial batches; with MaxCmds <= 1 it is never called.
	Schedule func(func())
	// Metrics, when non-nil, receives the stream's instruments: commands and
	// bytes streamed, and batches flushed by reason (repl.* names).
	Metrics *metrics.Registry
}

// maxBatchBytes flushes a batch once it holds this many bytes, whatever its
// command budget: a safety cap so huge values don't ride the quiesce flush.
const maxBatchBytes = 64 << 10

// Writer is the produce side of the replication stream: it appends writes
// to the backlog, injects SELECT context switches, accounts offsets, and
// batches commands for the downstream flush.
type Writer struct {
	cfg WriterConfig

	db           int // database the stream currently SELECTs
	pending      []byte
	pendingStart int64
	pendingCmds  int
	pendingGate  Gate
	scheduled    bool

	// Registry instruments (no-ops without cfg.Metrics). CmdsAppended counts
	// commands entered into the stream (SELECTs included); over
	// BatchesFlushed it is the WR-amortization factor the batching buys.
	CmdsAppended *metrics.Counter
	mBytes       *metrics.Counter
	mFlushCmd    *metrics.Counter
	mFlushBytes  *metrics.Counter
	mFlushQuiese *metrics.Counter
	mFlushForced *metrics.Counter
}

// flushReason says why a batch left the Writer: it hit the command budget,
// the byte budget, the producing core's quiesce point, or a forced Flush
// (PSYNC serving, tests).
type flushReason int

const (
	flushCmdBudget flushReason = iota
	flushByteBudget
	flushQuiesce
	flushForced
)

// NewWriter creates a Writer. The config's Backlog and Flush are required.
func NewWriter(cfg WriterConfig) *Writer {
	if cfg.Backlog == nil || cfg.Flush == nil {
		panic("replstream: NewWriter requires Backlog and Flush")
	}
	if cfg.MaxCmds < 1 {
		cfg.MaxCmds = 1
	}
	return &Writer{
		cfg:          cfg,
		CmdsAppended: cfg.Metrics.Counter("repl.stream.cmds"),
		mBytes:       cfg.Metrics.Counter("repl.stream.bytes"),
		mFlushCmd:    cfg.Metrics.Counter("repl.flush.cmd_budget"),
		mFlushBytes:  cfg.Metrics.Counter("repl.flush.byte_budget"),
		mFlushQuiese: cfg.Metrics.Counter("repl.flush.quiesce"),
		mFlushForced: cfg.Metrics.Counter("repl.flush.forced"),
	}
}

// BatchesFlushed reports the batches sent downstream, whatever flushed them
// (the sum of the repl.flush.* counters).
func (w *Writer) BatchesFlushed() uint64 {
	return w.mFlushCmd.Value() + w.mFlushBytes.Value() + w.mFlushQuiese.Value() + w.mFlushForced.Value()
}

// DB reports the database the stream's SELECT context currently points at.
func (w *Writer) DB() int { return w.db }

// Pending reports the bytes accumulated but not yet flushed.
func (w *Writer) Pending() int { return len(w.pending) }

// Append enters one write command issued against database db into the
// stream: a SELECT is injected when the stream context differs, both are
// appended to the backlog immediately (offsets advance now, flushing only
// defers the downstream send). It returns the backlog end offset after the
// write — the offset a replica must ack before this write counts as
// replicated. argv is encoded before Append returns and not kept.
func (w *Writer) Append(db int, argv [][]byte) int64 {
	return w.AppendGated(db, argv, 0)
}

// AppendGated is Append for a write whose reply waits on gate: the batch
// that carries the write's bytes downstream carries the gate too, joined
// with those of the other gated writes it holds.
func (w *Writer) AppendGated(db int, argv [][]byte, gate Gate) int64 {
	if db != w.db {
		w.db = db
		w.add([][]byte{[]byte("SELECT"), strconv.AppendInt(nil, int64(db), 10)})
	}
	w.pendingGate = w.pendingGate.Join(gate)
	w.add(argv)
	return w.cfg.Backlog.EndOffset()
}

// add encodes one command straight onto the pending batch; the backlog takes
// its copy from there.
func (w *Writer) add(argv [][]byte) {
	start := w.cfg.Backlog.EndOffset()
	at := len(w.pending)
	w.pending = resp.AppendCommand(w.pending, argv)
	cmd := w.pending[at:]
	w.cfg.Backlog.Write(cmd)
	if w.pendingCmds == 0 {
		w.pendingStart = start
	}
	w.pendingCmds++
	w.CmdsAppended.Inc()
	w.mBytes.Add(uint64(len(cmd)))
	switch {
	case w.pendingCmds >= w.cfg.MaxCmds:
		w.flush(flushCmdBudget)
	case len(w.pending) >= maxBatchBytes:
		w.flush(flushByteBudget)
	default:
		w.scheduleFlush()
	}
}

// Flush pushes the pending batch downstream now. No-op when nothing is
// pending. The master calls this before serving a PSYNC so a joining slave
// never sees backlog bytes again on the live stream.
func (w *Writer) Flush() { w.flush(flushForced) }

func (w *Writer) flush(reason flushReason) {
	if w.pendingCmds == 0 {
		return
	}
	b := Batch{Start: w.pendingStart, Data: w.pending, Cmds: w.pendingCmds, Gate: w.pendingGate}
	// The buffer is lent to the callback and taken back when it returns. A
	// write the callback itself appends starts a buffer of its own, so the
	// lent bytes never change under the consumer.
	w.pending = nil
	w.pendingCmds, w.pendingGate = 0, 0
	switch reason {
	case flushCmdBudget:
		w.mFlushCmd.Inc()
	case flushByteBudget:
		w.mFlushBytes.Inc()
	case flushQuiesce:
		w.mFlushQuiese.Inc()
	case flushForced:
		w.mFlushForced.Inc()
	}
	w.cfg.Flush(b)
	if w.pending == nil {
		w.pending = b.Data[:0]
	}
}

func (w *Writer) scheduleFlush() {
	if w.scheduled || w.cfg.Schedule == nil {
		return
	}
	w.scheduled = true
	w.cfg.Schedule(func() {
		w.scheduled = false
		w.flush(flushQuiesce)
	})
}

// ProtocolErrorsMetric is the counter a stream consumer bumps, in its node's
// registry, each time Applier.Feed refuses a chunk. It is created on the
// first error, so a healthy node's snapshot does not list it.
const ProtocolErrorsMetric = "repl.apply.protocol_errors"

// Applier is the consume side: feed it replication stream bytes in offset
// order and it decodes commands, maintains the SELECT context, and invokes
// apply for every data command. SELECTs are consumed internally.
type Applier struct {
	reader resp.Reader
	argv   [][]byte // the one argv header every decoded command reuses
	db     int
	apply  func(db int, argv [][]byte)
	err    error

	// Applied counts data commands handed to the apply callback.
	Applied uint64
}

// NewApplier creates an Applier invoking apply per decoded data command.
// The argv apply receives is borrowed: it aliases the Applier's buffer and
// is valid only until apply returns, so a sink that queues a command for
// later copies it first (a sink that executes it on the spot — store.Exec
// copies what it keeps — needs nothing).
func NewApplier(apply func(db int, argv [][]byte)) *Applier {
	return &Applier{apply: apply}
}

// DB reports the applier's current SELECT context.
func (a *Applier) DB() int { return a.db }

// Feed decodes every complete command in data (plus any bytes buffered from
// earlier partial feeds) and applies it. Incomplete trailing bytes stay
// buffered. A protocol error stops decoding for good: the stream has no
// resynchronization point, so this and every later Feed return the error
// having consumed nothing more, and the consumer must not count the bytes
// as replicated — it restarts synchronization and calls Reset (or builds a
// new Applier) to decode what the new synchronization delivers.
func (a *Applier) Feed(data []byte) error {
	if a.err != nil {
		return a.err
	}
	a.reader.Feed(data)
	for {
		var ok bool
		a.argv, ok, a.err = a.reader.BorrowCommand(a.argv)
		if a.err != nil || !ok {
			return a.err
		}
		argv := a.argv
		if len(argv) == 2 && resp.IsWord(argv[0], "select") {
			if n, convErr := strconv.Atoi(string(argv[1])); convErr == nil {
				a.db = n
			}
			continue
		}
		a.Applied++
		a.apply(a.db, argv)
	}
}

// Reset forgets the buffered bytes and the error a failed Feed left behind;
// the SELECT context stays, being the last one the stream was known to be in.
func (a *Applier) Reset() {
	a.reader = resp.Reader{}
	a.err = nil
}
