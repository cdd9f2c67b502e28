package replstream

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"skv/internal/backlog"
	"skv/internal/metrics"
	"skv/internal/resp"
)

func cmd(argv ...string) []byte { return resp.EncodeCommand(argv...) }

type harness struct {
	w       *Writer
	bl      *backlog.Backlog
	flushed []Batch
	queued  []func()
}

func newHarness(maxCmds int, scheduled bool) *harness {
	h := &harness{bl: backlog.New(1 << 20)}
	cfg := WriterConfig{
		Backlog: h.bl,
		MaxCmds: maxCmds,
		Metrics: metrics.NewRegistry("writer", nil),
		Flush: func(b Batch) {
			// Copy: real transports also take ownership of Data.
			h.flushed = append(h.flushed, Batch{Start: b.Start, Data: append([]byte(nil), b.Data...), Cmds: b.Cmds, Gate: b.Gate})
		},
	}
	if scheduled {
		cfg.Schedule = func(fn func()) { h.queued = append(h.queued, fn) }
	}
	h.w = NewWriter(cfg)
	return h
}

// quiesce runs every deferred flush, as the event loop would at tick end.
func (h *harness) quiesce() {
	for len(h.queued) > 0 {
		q := h.queued
		h.queued = nil
		for _, fn := range q {
			fn()
		}
	}
}

// TestBatchOneFlushesSynchronously pins the bit-for-bit compatibility
// contract: MaxCmds=1 flushes inside Append, one batch per command, and a
// SELECT context switch flushes as its own batch first (exactly the two
// sends the pre-refactor code issued).
func TestBatchOneFlushesSynchronously(t *testing.T) {
	h := newHarness(1, true)
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	if len(h.flushed) != 1 {
		t.Fatalf("flushes after first append: %d", len(h.flushed))
	}
	h.w.Append(2, [][]byte{[]byte("SET"), []byte("j"), []byte("w")})
	if len(h.flushed) != 3 {
		t.Fatalf("db switch must flush SELECT + command separately, got %d batches", len(h.flushed))
	}
	if len(h.queued) != 0 {
		t.Fatal("MaxCmds=1 must never schedule a deferred flush")
	}
	want := [][]byte{
		cmd("SET", "k", "v"),
		cmd("SELECT", "2"),
		cmd("SET", "j", "w"),
	}
	off := int64(0)
	for i, b := range h.flushed {
		if !bytes.Equal(b.Data, want[i]) || b.Cmds != 1 || b.Start != off {
			t.Fatalf("batch %d = {%d %q %d}, want {%d %q 1}", i, b.Start, b.Data, b.Cmds, off, want[i])
		}
		off += int64(len(b.Data))
	}
}

// TestBudgetFlush checks the command-count budget: the batch flushes inside
// Append as soon as MaxCmds commands accumulate.
func TestBudgetFlush(t *testing.T) {
	h := newHarness(3, true)
	var want []byte
	for i := 0; i < 3; i++ {
		c := [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")}
		h.w.Append(0, c)
		want = resp.AppendCommand(want, c)
	}
	if len(h.flushed) != 1 {
		t.Fatalf("flushes = %d, want 1", len(h.flushed))
	}
	b := h.flushed[0]
	if b.Start != 0 || b.Cmds != 3 || !bytes.Equal(b.Data, want) {
		t.Fatalf("bad batch {%d cmds=%d %q}", b.Start, b.Cmds, b.Data)
	}
	if b.End() != h.bl.EndOffset() {
		t.Fatalf("End()=%d, backlog end=%d", b.End(), h.bl.EndOffset())
	}
}

// TestByteBudgetFlush checks the byte cap: a batch that reaches 64 KiB
// flushes inside Append, before the command budget fills, and counts as a
// byte-budget flush.
func TestByteBudgetFlush(t *testing.T) {
	h := newHarness(1000, true)
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("k"), []byte("v")})
	if len(h.flushed) != 0 {
		t.Fatalf("a small command flushed (flushes=%d)", len(h.flushed))
	}
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("k"), bytes.Repeat([]byte("x"), maxBatchBytes)})
	if len(h.flushed) != 1 || h.flushed[0].Cmds != 2 {
		t.Fatalf("batch past 64 KiB not flushed whole: %d flushes", len(h.flushed))
	}
	if n := h.w.mFlushBytes.Value(); n != 1 {
		t.Fatalf("repl.flush.byte_budget = %d, want 1", n)
	}
}

// TestQuiesceFlush checks the deferred path: a partial batch rides the
// scheduled flush, and the schedule hook is armed only once per batch.
func TestQuiesceFlush(t *testing.T) {
	h := newHarness(64, true)
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("a"), []byte("1")})
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("b"), []byte("2")})
	if len(h.flushed) != 0 {
		t.Fatal("partial batch flushed before quiesce")
	}
	if len(h.queued) != 1 {
		t.Fatalf("schedule armed %d times, want 1", len(h.queued))
	}
	h.quiesce()
	if len(h.flushed) != 1 || h.flushed[0].Cmds != 2 {
		t.Fatalf("quiesce flush: %+v", h.flushed)
	}
	// A flush must disarm the schedule guard: the next append re-arms.
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("c"), []byte("3")})
	if len(h.queued) != 1 {
		t.Fatalf("schedule not re-armed after flush (queued=%d)", len(h.queued))
	}
	h.quiesce()
	if len(h.flushed) != 2 {
		t.Fatalf("second quiesce flush missing: %d", len(h.flushed))
	}
}

// TestManualFlushBarrier checks the PSYNC barrier: Flush() empties the
// pending batch so snapshotted offsets cover everything already delivered,
// and is a no-op when nothing is pending.
func TestManualFlushBarrier(t *testing.T) {
	h := newHarness(64, true)
	h.w.Flush() // empty: no-op
	if h.w.BatchesFlushed() != 0 {
		t.Fatal("empty Flush counted")
	}
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("a"), []byte("1")})
	h.w.Flush()
	if len(h.flushed) != 1 || h.w.Pending() != 0 || h.w.BatchesFlushed() != 1 {
		t.Fatalf("manual flush: flushed=%d pending=%d counted=%d", len(h.flushed), h.w.Pending(), h.w.BatchesFlushed())
	}
	// The quiesce callback left over from the append must now be a no-op.
	h.quiesce()
	if len(h.flushed) != 1 {
		t.Fatal("stale scheduled flush delivered an empty batch")
	}
}

// TestOffsetsContinuous checks that batch offsets tile the backlog exactly:
// every byte appended appears in exactly one batch at its backlog offset.
func TestOffsetsContinuous(t *testing.T) {
	h := newHarness(4, true)
	for i := 0; i < 10; i++ {
		h.w.Append(i%3, [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", i)), []byte("v")})
	}
	h.quiesce()
	var end int64
	for i, b := range h.flushed {
		if b.Start != end {
			t.Fatalf("batch %d starts at %d, previous ended at %d", i, b.Start, end)
		}
		end = b.End()
	}
	if end != h.bl.EndOffset() {
		t.Fatalf("batches end at %d, backlog at %d", end, h.bl.EndOffset())
	}
	if h.w.CmdsAppended.Value() <= 10 {
		t.Fatalf("CmdsAppended=%d, want >10 (SELECT injections)", h.w.CmdsAppended.Value())
	}
}

// TestNoScheduleDegradesToSynchronous: without a Schedule hook a partial
// batch cannot ride a quiesce, so nothing is lost only if callers Flush;
// budget flushes still fire on their own.
func TestNoScheduleDegradesToSynchronous(t *testing.T) {
	h := newHarness(2, false)
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("a"), []byte("1")})
	h.w.Append(0, [][]byte{[]byte("SET"), []byte("b"), []byte("2")})
	if len(h.flushed) != 1 {
		t.Fatalf("budget flush without Schedule: %d", len(h.flushed))
	}
}

// TestApplierDecodesBatches feeds a multi-command batch with SELECT context
// switches and checks the callback sees each data command against the right
// database, with SELECTs consumed internally.
// TestGateRidesTheBatchThatHoldsTheWrite: a gated write's gate leaves the
// Writer on the batch its bytes leave on and on no other — not on a SELECT
// flushed ahead of it, not on the next batch — and a batch holding several
// gated writes carries the one gate that holds until each of theirs would
// release; ungated writes add nothing.
func TestGateRidesTheBatchThatHoldsTheWrite(t *testing.T) {
	set := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}

	h := newHarness(1, true)
	h.w.AppendGated(3, set, QuorumGate(2)) // SELECT 3 flushes first, alone
	h.w.Append(3, set)
	var got []Gate
	for _, b := range h.flushed {
		got = append(got, b.Gate)
	}
	if want := []Gate{0, QuorumGate(2), 0}; !slices.Equal(got, want) {
		t.Fatalf("unbatched gates %v, want %v", got, want)
	}

	h = newHarness(4, true)
	h.w.Append(0, set)
	h.w.AppendGated(0, set, QuorumGate(1))
	h.w.AppendGated(0, set, GateAll)
	end := h.w.AppendGated(0, set, QuorumGate(3)) // fourth command: budget flush
	h.w.Append(0, set)
	h.quiesce()
	if len(h.flushed) != 2 {
		t.Fatalf("%d batches, want 2", len(h.flushed))
	}
	if b := h.flushed[0]; b.Gate != GateAll.Join(QuorumGate(3)) || b.End() != end || b.Cmds != 4 {
		t.Fatalf("mixed batch: gate %#x end %d cmds %d, want all+quorum 3 ending at %d", b.Gate, b.End(), b.Cmds, end)
	}
	if b := h.flushed[1]; b.Gate != 0 {
		t.Fatalf("the ungated batch behind it carries gate %#x", b.Gate)
	}
}

// TestGateJoinAndNeed: Join keeps both requirements, Need resolves them
// against the enforcer's valid-replica count, and "all" of an empty replica
// set still waits for one.
func TestGateJoinAndNeed(t *testing.T) {
	for _, tc := range []struct {
		gate  Gate
		valid int
		need  int
	}{
		{0, 3, 0},
		{QuorumGate(0), 3, 1}, // clamped: a gate never asks for nobody
		{QuorumGate(2), 3, 2},
		{QuorumGate(2), 1, 2}, // a quorum does not shrink with the replica set
		{GateAll, 3, 3},
		{GateAll, 0, 1},
		{GateAll.Join(QuorumGate(2)), 3, 3},
		{QuorumGate(3).Join(GateAll), 2, 3}, // all of two valid slaves is not a quorum of three
		{QuorumGate(1).Join(QuorumGate(2)), 3, 2},
		{Gate(0).Join(QuorumGate(1)), 3, 1},
	} {
		if got := tc.gate.Need(tc.valid); got != tc.need {
			t.Errorf("gate %#x with %d valid: need %d, want %d", tc.gate, tc.valid, got, tc.need)
		}
		if !tc.gate.WellFormed() {
			t.Errorf("gate %#x is not well formed", tc.gate)
		}
	}
	if QuorumGate(1<<20).Need(0) != 1<<16-1 {
		t.Errorf("an oversized quorum is not clamped to the count field: %#x", QuorumGate(1<<20))
	}
	for _, bad := range []Gate{1 << 16, 1 << 30, GateAll | 1<<20} {
		if bad.WellFormed() {
			t.Errorf("gate %#x has a reserved bit set but passes as well formed", bad)
		}
	}
}

func TestApplierDecodesBatches(t *testing.T) {
	type applied struct {
		db  int
		arg string
	}
	var got []applied
	a := NewApplier(func(db int, argv [][]byte) {
		got = append(got, applied{db, string(argv[1])})
	})
	var stream []byte
	stream = append(stream, cmd("SET", "a", "1")...)
	stream = append(stream, cmd("SELECT", "3")...)
	stream = append(stream, cmd("SET", "b", "2")...)
	stream = append(stream, cmd("SeLeCt", "0")...) // any case
	stream = append(stream, cmd("SET", "c", "3")...)
	a.Feed(stream)
	want := []applied{{0, "a"}, {3, "b"}, {0, "c"}}
	if len(got) != len(want) {
		t.Fatalf("applied %d commands, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("apply %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if a.Applied != 3 || a.DB() != 0 {
		t.Fatalf("Applied=%d DB=%d", a.Applied, a.DB())
	}
}

// TestApplierPartialFeeds splits the stream at every possible byte boundary
// and checks decoding is identical to one contiguous feed.
func TestApplierPartialFeeds(t *testing.T) {
	var stream []byte
	stream = append(stream, cmd("SELECT", "1")...)
	stream = append(stream, cmd("SET", "k", "v")...)
	stream = append(stream, cmd("DEL", "k")...)
	for split := 1; split < len(stream); split++ {
		var names []string
		a := NewApplier(func(db int, argv [][]byte) {
			names = append(names, fmt.Sprintf("%d:%s", db, argv[0]))
		})
		a.Feed(stream[:split])
		a.Feed(stream[split:])
		if len(names) != 2 || names[0] != "1:SET" || names[1] != "1:DEL" {
			t.Fatalf("split %d: %v", split, names)
		}
	}
}

// TestWriterApplierRoundTrip pipes a Writer's flushes straight into an
// Applier and checks every appended command comes out, in order, with its
// database — at several batch sizes.
func TestWriterApplierRoundTrip(t *testing.T) {
	for _, maxCmds := range []int{1, 4, 64} {
		var out []string
		a := NewApplier(func(db int, argv [][]byte) {
			out = append(out, fmt.Sprintf("%d:%s", db, argv[1]))
		})
		h := &harness{bl: backlog.New(1 << 20)}
		h.w = NewWriter(WriterConfig{
			Backlog: h.bl,
			MaxCmds: maxCmds,
			Flush:   func(b Batch) { a.Feed(b.Data) },
			Schedule: func(fn func()) {
				h.queued = append(h.queued, fn)
			},
		})
		var want []string
		for i := 0; i < 20; i++ {
			db := i % 2
			key := fmt.Sprintf("k%d", i)
			h.w.Append(db, [][]byte{[]byte("SET"), []byte(key), []byte("v")})
			want = append(want, fmt.Sprintf("%d:%s", db, key))
		}
		h.quiesce()
		if len(out) != len(want) {
			t.Fatalf("maxCmds=%d: applied %d, want %d", maxCmds, len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("maxCmds=%d: apply %d = %s, want %s", maxCmds, i, out[i], want[i])
			}
		}
	}
}

// TestApplierErrorIsSticky: an undecodable chunk stops the Applier for good —
// the same error again on every later Feed, nothing more buffered or applied —
// until Reset, after which a fresh synchronization decodes normally.
func TestApplierErrorIsSticky(t *testing.T) {
	applied := 0
	a := NewApplier(func(int, [][]byte) { applied++ })
	if err := a.Feed(cmd("SET", "a", "1")); err != nil || applied != 1 {
		t.Fatalf("healthy feed: err=%v applied=%d", err, applied)
	}
	err := a.Feed([]byte("*1\r\n$x\r\n"))
	if !errors.Is(err, resp.ErrProtocol) {
		t.Fatalf("bad bulk length: err=%v, want ErrProtocol", err)
	}
	for i := 0; i < 3; i++ {
		if again := a.Feed(cmd("SET", "b", "2")); again != err {
			t.Fatalf("feed %d after the error: %v, want the same error", i, again)
		}
	}
	if applied != 1 || a.Applied != 1 {
		t.Fatalf("applied %d commands past an undecodable chunk", applied-1)
	}
	if buffered := a.reader.Buffered(); buffered != len("*1\r\n$x\r\n") {
		t.Fatalf("a failed Applier kept buffering: %d bytes held", buffered)
	}
	a.Reset()
	if err := a.Feed(cmd("SET", "c", "3")); err != nil || applied != 2 {
		t.Fatalf("after Reset: err=%v applied=%d", err, applied)
	}
}

// TestStreamAllocations pins the steady-state cost of both ends: the Applier
// decodes a batch of SETs where it was fed, into the one argv it keeps, and
// allocates nothing; the Writer encodes straight into the batch it is
// building, lends it to the flush callback and takes it back, so appending
// and flushing allocate nothing either — by budget or by a forced Flush.
func TestStreamAllocations(t *testing.T) {
	set := [][]byte{[]byte("SET"), []byte("key:0000012345"), bytes.Repeat([]byte("v"), 64)}
	batch := bytes.Repeat(resp.AppendCommand(nil, set), 8)
	sink := 0
	a := NewApplier(func(_ int, argv [][]byte) { sink += len(argv[2]) })
	a.Feed(batch)
	if n := testing.AllocsPerRun(200, func() { a.Feed(batch) }); n != 0 {
		t.Errorf("Applier.Feed of an 8-SET batch allocated %.1f times, want 0", n)
	}
	for _, maxCmds := range []int{1, 8} {
		flushes := 0
		w := NewWriter(WriterConfig{Backlog: backlog.New(1 << 20), MaxCmds: maxCmds, Flush: func(Batch) { flushes++ }})
		for i := 0; i < maxCmds; i++ {
			w.Append(0, set)
		}
		flushes = 0
		n := testing.AllocsPerRun(200, func() {
			for i := 0; i < maxCmds; i++ {
				w.Append(0, set)
			}
		})
		if flushes != 201 || n != 0 {
			t.Errorf("MaxCmds=%d: %.1f allocations per flushed batch over %d flushes, want 0", maxCmds, n, flushes)
		}
	}
	w := NewWriter(WriterConfig{Backlog: backlog.New(1 << 20), MaxCmds: 8, Flush: func(Batch) {}})
	if n := testing.AllocsPerRun(200, func() { w.Append(0, set); w.Append(0, set); w.Flush() }); n != 0 {
		t.Errorf("Append twice and Flush allocated %.1f times, want 0", n)
	}
}

// TestFlushLendsData: a batch's bytes stay as they were for the whole flush
// callback, even when the callback itself enters a write into the stream,
// and the next batch reuses the buffer once it has returned.
func TestFlushLendsData(t *testing.T) {
	var w *Writer
	var seen []string
	var bufs []*byte
	reentered := false
	w = NewWriter(WriterConfig{Backlog: backlog.New(1 << 20), MaxCmds: 1, Flush: func(b Batch) {
		before := string(b.Data)
		if !reentered {
			reentered = true
			w.Append(0, [][]byte{[]byte("SET"), []byte("inner"), []byte("written-during-the-flush")})
		}
		if string(b.Data) != before {
			t.Errorf("batch bytes changed under the callback: %q, then %q", before, b.Data)
		}
		seen, bufs = append(seen, before), append(bufs, &b.Data[0])
	}})
	w.Append(0, [][]byte{[]byte("SET"), []byte("outer"), []byte("v")})
	w.Append(0, [][]byte{[]byte("SET"), []byte("next"), []byte("v")})
	// The inner write flushes first, inside the outer callback; the last
	// batch goes out in the buffer the inner one was lent.
	if len(seen) != 3 || !strings.Contains(seen[0], "inner") || !strings.Contains(seen[1], "outer") || !strings.Contains(seen[2], "next") {
		t.Fatalf("batches flushed: %q", seen)
	}
	if bufs[2] != bufs[0] {
		t.Error("the batch after the flush did not reuse the lent buffer")
	}
}

// FuzzApplierFeed: whatever bytes arrive in whatever chunks, Feed never
// panics, hands on exactly the data commands a plain decode of the same bytes
// finds before its first error, and once it has failed stays failed.
func FuzzApplierFeed(f *testing.F) {
	for _, in := range [][]byte{
		cmd("SET", "k", "v"),
		append(cmd("SELECT", "3"), cmd("SET", "k", "v")...),
		append(cmd("SET", "k", "v"), "*1\r\n$x\r\n"...),
		[]byte("PING\r\n\r\nSET key val\r\n"),
		[]byte("*2\r\n$6\r\nSELECT\r\n$1\r\nx\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("*1\r\n:5\r\n*1\r\n$4\r\nPING\r\n"),
		[]byte("*-1\r\n"), []byte("*0\r\n"), []byte("*1048577\r\n"), []byte("*1\r\n$9223372036854775807\r\n"),
		[]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nwor"),
	} {
		f.Add(in, []byte(nil))
		f.Add(in, []byte{1})
		f.Add(in, []byte{5, 2, 9})
	}
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		// The oracle: a copying decode of the whole input.
		var want uint64
		var r resp.Reader
		r.Feed(data)
		for {
			argv, ok, err := r.ReadCommand()
			if err != nil || !ok {
				break
			}
			if !(len(argv) == 2 && resp.IsWord(argv[0], "select")) {
				want++
			}
		}

		a := NewApplier(func(_ int, argv [][]byte) {
			if len(argv) == 0 {
				t.Fatal("applied an empty command")
			}
		})
		var failed error
		for i, rest := 0, data; len(rest) > 0; i++ {
			n := len(rest)
			if len(splits) > 0 {
				n = min(max(int(splits[i%len(splits)]), 1), n)
			}
			err := a.Feed(rest[:n])
			rest = rest[n:]
			if failed != nil && err != failed {
				t.Fatalf("Feed returned %v after failing with %v", err, failed)
			}
			if err != nil && !errors.Is(err, resp.ErrProtocol) {
				t.Fatalf("Feed failed with %v, want a protocol error", err)
			}
			failed = err
		}
		if a.Applied != want {
			t.Fatalf("Applied = %d, a plain decode finds %d data commands", a.Applied, want)
		}
	})
}
