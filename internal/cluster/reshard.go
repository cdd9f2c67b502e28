// Live slot migration harness: a SlotMigrator process that reshards a slot
// range between running replication groups through the servers' CLUSTER
// surface (SETSLOT IMPORTING/MIGRATING, GETKEYSINSLOT, DUMP / ASKING+RESTORE
// / MIGRATEDEL, final SETSLOT NODE flip), plus the chaos scenario that runs
// it under mixed slot-aware client load with a value-tracking ledger writer,
// so tests can assert the migration loses no acknowledged write and leaves
// no key served by two groups.
package cluster

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"skv/internal/core"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/transport"
)

// poolRedial spaces reconnect attempts of a respPool connection.
const poolRedial = 20 * sim.Millisecond

// respPool is a minimal deterministic RESP client for in-simulation control
// processes (the slot mover, the ledger writer): one pipelined connection
// per server address, replies matched to callbacks in FIFO order. A closed
// or unreachable connection is re-dialed and the unanswered window resent —
// every command the pool's users issue is idempotent (reads, CAS writes,
// SETSLOT state changes), so replays are safe.
type respPool struct {
	c     *Cluster
	proc  *sim.Proc
	stack transport.Stack
	conns map[string]*poolConn
}

type poolConn struct {
	addr     string
	conn     transport.Conn
	dialing  bool
	reader   resp.Reader
	inflight [][]byte           // unanswered commands, send order
	pending  []func(resp.Value) // their callbacks, same order
}

// newRespPool gives the control process its own machine and core, so its
// protocol traffic rides the same fabric as the workload without stealing
// client or server CPU.
func newRespPool(c *Cluster, name string) *respPool {
	m := c.Net.NewMachine(name, false)
	cr := sim.NewCore(c.Eng, name+"-core", c.Params.HostCoreSpeed)
	proc := sim.NewProc(c.Eng, cr, c.Params.ClientWakeup)
	return &respPool{c: c, proc: proc, stack: rconn.New(c.Net, m.Host, proc), conns: map[string]*poolConn{}}
}

// send issues cmd to the server at addr and calls cb with its reply.
func (p *respPool) send(addr string, cmd []byte, cb func(resp.Value)) {
	pc := p.conns[addr]
	if pc == nil {
		pc = &poolConn{addr: addr}
		p.conns[addr] = pc
	}
	pc.inflight = append(pc.inflight, cmd)
	pc.pending = append(pc.pending, cb)
	if pc.conn != nil {
		pc.conn.Send(cmd)
	} else if !pc.dialing {
		p.dial(pc)
	}
}

func (p *respPool) dial(pc *poolConn) {
	pc.dialing = true
	p.stack.Dial(p.c.resolveEP(pc.addr), core.ClientPort, func(conn transport.Conn, err error) {
		pc.dialing = false
		if err != nil {
			p.c.Eng.After(poolRedial, func() { p.redial(pc) })
			return
		}
		pc.conn = conn
		pc.reader = resp.Reader{}
		conn.SetHandler(func(data []byte) { p.onData(pc, conn, data) })
		conn.SetCloseHandler(func() {
			if pc.conn == conn {
				pc.conn = nil
				p.c.Eng.After(poolRedial, func() { p.redial(pc) })
			}
		})
		for _, cmd := range pc.inflight { // resend the unanswered window
			conn.Send(cmd)
		}
	})
}

func (p *respPool) redial(pc *poolConn) {
	if pc.conn == nil && !pc.dialing && len(pc.inflight) > 0 {
		p.dial(pc)
	}
}

func (p *respPool) onData(pc *poolConn, conn transport.Conn, data []byte) {
	if pc.conn != conn {
		return
	}
	pc.reader.Feed(data)
	for {
		v, ok, err := pc.reader.ReadValue()
		if err != nil {
			panic(fmt.Sprintf("cluster: respPool got protocol garbage from %s: %v", pc.addr, err))
		}
		if !ok {
			return
		}
		if len(pc.pending) == 0 {
			continue // reply to a command superseded by a resend
		}
		cb := pc.pending[0]
		pc.pending = pc.pending[1:]
		pc.inflight = pc.inflight[1:]
		cb(v)
	}
}

// poolAsking is the ASKING prefix control processes send before touching an
// importing slot on its target group.
var poolAsking = resp.EncodeCommand("ASKING")

// SlotMigrator reshards hash slots between running groups, key by key, over
// the same client protocol an external redis-cli --cluster reshard would
// use. It is sequential by design — one slot at a time, one key at a time —
// which keeps the schedule deterministic and bounds the migration's load on
// the donors to one in-flight command chain.
type SlotMigrator struct {
	c    *Cluster
	h    *Chaos // optional: trace notes for the determinism oracle
	pool *respPool

	// Batch is the GETKEYSINSLOT page size per drain round (default 32).
	Batch int

	// KeysMoved counts source keys committed at the target (MIGRATEDEL :1).
	// KeyRetries counts CAS misses (the key changed under the mover between
	// DUMP and MIGRATEDEL, forcing a re-dump). Compensations counts keys
	// that vanished at the source mid-move, where the mover deleted its own
	// stale transfer from the target. SlotsDone counts ownership flips.
	KeysMoved     uint64
	KeyRetries    uint64
	Compensations uint64
	SlotsDone     uint64
}

// NewSlotMigrator builds a mover for a multi-master cluster. h may be nil.
func NewSlotMigrator(c *Cluster, h *Chaos) *SlotMigrator {
	if c.SlotMap == nil {
		panic("cluster: SlotMigrator requires a multi-master deployment")
	}
	return &SlotMigrator{c: c, h: h, pool: newRespPool(c, "reshard"), Batch: 32}
}

func (m *SlotMigrator) note(label string) {
	if m.h != nil {
		m.h.Note(label)
	}
}

// Reshard migrates every slot in [start, end] to group target, then calls
// done. Slots the target already owns are skipped. The source of each slot
// is its owner at the moment the slot's migration starts, so a preceding
// failover simply redirects the mover to the promoted address.
func (m *SlotMigrator) Reshard(start, end, target int, done func()) {
	m.note(fmt.Sprintf("reshard [%d..%d] -> g%d begin", start, end, target))
	m.moveSlot(start, end, target, done)
}

func (m *SlotMigrator) moveSlot(slot, end, target int, done func()) {
	if slot > end {
		m.note(fmt.Sprintf("reshard done (%d keys, %d retries, %d compensations)",
			m.KeysMoved, m.KeyRetries, m.Compensations))
		if done != nil {
			done()
		}
		return
	}
	next := func() { m.moveSlot(slot+1, end, target, done) }
	src := m.c.SlotMap.Owner(slot)
	if src == target {
		next()
		return
	}
	srcAddr := m.c.SlotMap.Addr(src)
	tgtAddr := m.c.SlotMap.Addr(target)
	ss := strconv.Itoa(slot)
	// IMPORTING at the target strictly before MIGRATING at the source: from
	// the instant the source starts answering ASK, the target must already
	// admit ASKING requests for the slot.
	m.pool.send(tgtAddr, resp.EncodeCommand("CLUSTER", "SETSLOT", ss, "IMPORTING", strconv.Itoa(src)), func(v resp.Value) {
		m.expectOK(v, slot, "setslot importing")
		m.pool.send(srcAddr, resp.EncodeCommand("CLUSTER", "SETSLOT", ss, "MIGRATING", strconv.Itoa(target)), func(v resp.Value) {
			m.expectOK(v, slot, "setslot migrating")
			m.drainSlot(slot, srcAddr, tgtAddr, target, func() {
				m.SlotsDone++
				next()
			})
		})
	})
}

// drainSlot pages through the source's live keys in the slot and moves each;
// an empty page is the termination proof (during MIGRATING, a key absent at
// the source stays absent — writes to absent keys are ASK-redirected — so a
// quiesced empty GETKEYSINSLOT means the slot is fully drained) and triggers
// the atomic ownership flip.
func (m *SlotMigrator) drainSlot(slot int, srcAddr, tgtAddr string, target int, flipped func()) {
	ss := strconv.Itoa(slot)
	m.pool.send(srcAddr, resp.EncodeCommand("CLUSTER", "GETKEYSINSLOT", ss, strconv.Itoa(m.Batch)), func(v resp.Value) {
		if v.IsError() {
			panic(fmt.Sprintf("cluster: reshard slot %d: getkeysinslot: %s", slot, v.Str))
		}
		if len(v.Array) == 0 {
			m.pool.send(srcAddr, resp.EncodeCommand("CLUSTER", "SETSLOT", ss, "NODE", strconv.Itoa(target)), func(v resp.Value) {
				m.expectOK(v, slot, "setslot node")
				flipped()
			})
			return
		}
		keys := make([]string, len(v.Array))
		for i, e := range v.Array {
			keys[i] = string(e.Str)
		}
		m.moveKeys(keys, 0, srcAddr, tgtAddr, func() {
			m.drainSlot(slot, srcAddr, tgtAddr, target, flipped)
		})
	})
}

func (m *SlotMigrator) moveKeys(keys []string, i int, srcAddr, tgtAddr string, done func()) {
	if i >= len(keys) {
		done()
		return
	}
	m.moveKey(keys[i], nil, srcAddr, tgtAddr, func() {
		m.moveKeys(keys, i+1, srcAddr, tgtAddr, done)
	})
}

// moveKey transfers one key with the optimistic per-key protocol (DESIGN.md
// §13): DUMP at the source, ASKING+RESTORE IFEQ prev at the target, then
// MIGRATEDEL <payload> at the source — a compare-and-delete that commits the
// move only if the source value is still byte-identical to what the target
// now holds. A CAS miss re-dumps; prev carries the last payload the target
// applied, so concurrent ASKING client writes at the target are never
// clobbered (RESTORE IFEQ refuses them, and a :0 there means the target
// already holds a fresher authoritative value than the source copy).
func (m *SlotMigrator) moveKey(key string, prev []byte, srcAddr, tgtAddr string, done func()) {
	m.pool.proc.Core.Charge(m.c.Params.ClientThinkCPU)
	m.pool.send(srcAddr, resp.EncodeCommand("DUMP", key), func(v resp.Value) {
		if v.Null {
			// Gone at the source (a client deleted it, or it expired). If we
			// had already copied an attempt to the target, delete it there —
			// unless an ASKING client has since written a fresher value, in
			// which case the CAS leaves it alone.
			if prev != nil {
				m.Compensations++
				m.pool.send(tgtAddr, poolAsking, func(resp.Value) {})
				m.pool.send(tgtAddr, resp.EncodeCommandBytes([]byte("MIGRATEDEL"), []byte(key), prev), func(resp.Value) { done() })
				return
			}
			done()
			return
		}
		payload := append([]byte(nil), v.Str...)
		restore := [][]byte{[]byte("RESTORE"), []byte(key), payload, []byte("IFEQ"), prev}
		if prev == nil {
			restore[4] = []byte{}
		}
		m.pool.send(tgtAddr, poolAsking, func(resp.Value) {})
		m.pool.send(tgtAddr, resp.EncodeCommandBytes(restore...), func(v resp.Value) {
			if v.IsError() {
				panic(fmt.Sprintf("cluster: reshard restore %q: %s", key, v.Str))
			}
			if v.Int == 0 {
				// Target diverged from our last transfer: an ASKING client
				// wrote there, which can only happen once the key was gone
				// at the source. The target copy is authoritative; done.
				done()
				return
			}
			m.pool.send(srcAddr, resp.EncodeCommandBytes([]byte("MIGRATEDEL"), []byte(key), payload), func(v resp.Value) {
				if v.IsError() {
					panic(fmt.Sprintf("cluster: reshard migratedel %q: %s", key, v.Str))
				}
				if v.Int == 1 {
					m.KeysMoved++
					done()
					return
				}
				// The source value changed between DUMP and MIGRATEDEL:
				// re-dump, remembering what the target currently holds.
				m.KeyRetries++
				m.moveKey(key, payload, srcAddr, tgtAddr, done)
			})
		})
	})
}

func (m *SlotMigrator) expectOK(v resp.Value, slot int, step string) {
	if !v.IsOK() {
		panic(fmt.Sprintf("cluster: reshard slot %d: %s: %s", slot, step, v.String()))
	}
}

// reshardLedger is the scenario's correctness oracle: a closed-loop writer
// that SETs a fixed key set inside the migrated slot range with a unique
// value per write, follows MOVED and ASK redirects itself, and records the
// last value the cluster ACKNOWLEDGED per key. After the migration settles,
// every recorded value must sit in the final owner's store (no acknowledged
// write lost) and the source must hold none of the keys (no key left where
// two groups could serve it) — the two properties a doubly-served or lost
// migration would break.
type reshardLedger struct {
	c      *Cluster
	pool   *respPool
	keys   []string
	window int

	running bool
	seq     int
	acked   map[string]string

	WritesAcked uint64
	Asked       uint64
	Moved       uint64
	Errs        uint64
}

// newReshardLedger picks n deterministic keys hashing into [start, end].
func newReshardLedger(c *Cluster, start, end, n, window int) *reshardLedger {
	l := &reshardLedger{c: c, pool: newRespPool(c, "ledger"), window: window, acked: map[string]string{}}
	for i := 0; len(l.keys) < n; i++ {
		k := fmt.Sprintf("mig:%d", i)
		if s := slots.Slot([]byte(k)); s >= start && s <= end {
			l.keys = append(l.keys, k)
		}
	}
	return l
}

func (l *reshardLedger) start() {
	l.running = true
	for i := 0; i < l.window; i++ {
		l.next()
	}
}

func (l *reshardLedger) stop() { l.running = false }

func (l *reshardLedger) next() {
	if !l.running {
		return
	}
	l.pool.proc.Core.Charge(l.c.Params.ClientThinkCPU)
	k := l.keys[l.seq%len(l.keys)]
	v := fmt.Sprintf("%s#%d", k, l.seq)
	l.seq++
	l.route(k, v)
}

// route targets the key's current owner per the authoritative map (the
// ledger is an oracle, not a staleness test — the workload client covers
// stale maps).
func (l *reshardLedger) route(k, v string) {
	addr := l.c.SlotMap.Addr(l.c.SlotMap.Owner(slots.Slot([]byte(k))))
	l.sendSet(addr, k, v, false)
}

func (l *reshardLedger) sendSet(addr, k, v string, asked bool) {
	if asked {
		l.pool.send(addr, poolAsking, func(resp.Value) {})
	}
	l.pool.send(addr, resp.EncodeCommand("SET", k, v), func(rv resp.Value) {
		if rv.IsError() {
			kind, _, raddr, _ := slots.ParseRedirectKind(string(rv.Str))
			switch kind {
			case slots.RedirectMoved:
				l.Moved++
				l.route(k, v) // ownership flipped under us: re-route
				return
			case slots.RedirectAsk:
				l.Asked++
				l.sendSet(raddr, k, v, true)
				return
			}
			l.Errs++
			l.next()
			return
		}
		l.acked[k] = v
		l.WritesAcked++
		l.next()
	})
}

// reshardSpec pins the scenario's shape (the determinism tests re-run it
// verbatim and diff the traces).
const (
	rshMasters      = 2
	rshSlaves       = 1 // per master
	rshClients      = 2
	rshPipeline     = 4
	rshKeySpace     = 4000
	rshGetRatio     = 0.5
	rshSlotStart    = 0
	rshSlotEnd      = 255
	rshTarget       = 1
	rshLedgerKeys   = 16
	rshLedgerWindow = 2
	rshMoveAt       = 150 * sim.Millisecond
	rshRunFor       = 1200 * sim.Millisecond
	rshSettle       = 1 * sim.Second
	rshNoteEvery    = 64 // slots per trace note while resharding
)

// ReshardResult is everything RunReshardUnderLoad measured.
type ReshardResult struct {
	C      *Cluster
	H      *Chaos
	M      *SlotMigrator
	L      *reshardLedger
	Done   bool // the mover flipped the whole range before the horizon
	DoneAt sim.Time
}

// RunReshardUnderLoad builds a 2-group hash-slot deployment, then live-
// migrates slots [rshSlotStart, rshSlotEnd] from group 0 to group 1 while
// slot-aware clients run a mixed GET/SET load over the whole keyspace and
// the ledger writer hammers keys inside the moving range. Returns the
// result plus the first invariant violation. tracked arms CLIENT TRACKING
// on every slot client: the caches must stay invalidation-coherent while
// the slot range moves owners (MOVED/ASK redirects drop cached keys).
func RunReshardUnderLoad(seed int64, tracked bool) (*ReshardResult, error) {
	p := ChaosParams(0)
	c := Build(Config{
		Kind:     KindSKV,
		Cluster:  ClusterOpts{Masters: rshMasters, SlavesPerMaster: rshSlaves},
		Clients:  rshClients,
		Pipeline: rshPipeline,
		KeySpace: rshKeySpace,
		GetRatio: rshGetRatio,
		Seed:     seed,
		Params:   p,
		SKV:      core.Config{ProgressInterval: 50 * sim.Millisecond},
		Tracking: tracked,
	})
	if !c.AwaitReplication(2 * sim.Second) {
		return nil, fmt.Errorf("reshard: initial replication did not complete")
	}
	h := NewChaos(c)
	h.Note("replication ready")
	c.StartClients()
	ledger := newReshardLedger(c, rshSlotStart, rshSlotEnd, rshLedgerKeys, rshLedgerWindow)
	ledger.start()
	m := NewSlotMigrator(c, h)
	res := &ReshardResult{C: c, H: h, M: m, L: ledger}
	h.At(rshMoveAt, "reshard begins", func(c *Cluster) {
		moveChunk(m, rshSlotStart, res)
	})
	c.Eng.RunFor(rshRunFor)
	ledger.stop()
	for _, cl := range c.Clients {
		cl.Stop()
	}
	h.Note("load stopped")
	c.Eng.RunFor(rshSettle)
	h.Note("settled")
	return res, res.check()
}

// moveChunk reshards rshNoteEvery slots at a time so the chaos trace
// records the migration's progress (a determinism oracle: two identical
// runs must interleave mover progress and load identically).
func moveChunk(m *SlotMigrator, from int, res *ReshardResult) {
	to := from + rshNoteEvery - 1
	if to > rshSlotEnd {
		to = rshSlotEnd
	}
	m.Reshard(from, to, rshTarget, func() {
		if to >= rshSlotEnd {
			res.Done = true
			res.DoneAt = res.C.Eng.Now()
			res.H.Note("reshard complete")
			return
		}
		moveChunk(m, to+1, res)
	})
}

// check asserts the scenario's acceptance invariants; timeline-shaped
// assertions live in the tests so failures print the trace.
func (r *ReshardResult) check() error {
	var errs []string
	add := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	c := r.C

	if !r.Done {
		add("migration did not finish before the horizon (slots done: %d)", r.M.SlotsDone)
	}
	for s := rshSlotStart; s <= rshSlotEnd; s++ {
		if g := c.SlotMap.Owner(s); g != rshTarget {
			add("slot %d still owned by g%d after the reshard", s, g)
			break
		}
		if _, mig := c.SlotMap.Migrating(s); mig {
			add("slot %d still marked MIGRATING after the flip", s)
			break
		}
		if _, imp := c.SlotMap.Importing(s); imp {
			add("slot %d still marked IMPORTING after the flip", s)
			break
		}
	}
	inRange := func(key string) bool {
		s := slots.Slot([]byte(key))
		return s >= rshSlotStart && s <= rshSlotEnd
	}
	// No key may remain where the old owner could still serve it.
	if left := c.Groups[0].Master.Store().KeysWhere(0, 0, inRange); len(left) > 0 {
		add("source still holds %d keys in the moved range (first: %q)", len(left), left[0])
	}
	// Every acknowledged ledger write must be the value the final owner
	// serves: a lost key, a lost update, or a doubly-served write (acked by
	// the source after the key had moved) would all surface as a mismatch.
	tgt := c.Groups[rshTarget].Master.Store()
	for _, k := range r.L.keys {
		v, okV := r.L.acked[k]
		if !okV {
			add("ledger key %q was never acknowledged", k)
			continue
		}
		reply, _ := tgt.Exec(0, [][]byte{[]byte("get"), []byte(k)})
		if want := resp.AppendBulkString(nil, v); !bytes.Equal(reply, want) {
			add("ledger key %q: final owner serves %q, last acked write was %q", k, reply, v)
		}
	}
	if r.L.Errs > 0 {
		add("ledger absorbed %d unexpected error replies", r.L.Errs)
	}
	if r.L.WritesAcked == 0 {
		add("ledger acknowledged no writes")
	}
	if r.M.KeysMoved == 0 {
		add("mover moved no keys")
	}
	if err := c.CheckConvergence(); err != nil {
		add("%v", err)
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("reshard: %s", strings.Join(errs, "; "))
}
