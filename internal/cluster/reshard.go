// Live slot migration: a SlotMigrator process that reshards a slot range
// between running replication groups through the servers' CLUSTER surface
// (SETSLOT IMPORTING/MIGRATING, GETKEYSINSLOT, DUMP / ASKING+RESTORE /
// MIGRATEDEL, final SETSLOT NODE flip), plus the scenario that runs it under
// mixed slot-aware client load with the ledger writer, so tests can assert
// the migration loses no acknowledged write and leaves no key served by two
// groups.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/core"
	"skv/internal/rconn"
	"skv/internal/resp"
	"skv/internal/ring"
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
	addr    string
	conn    transport.Conn
	dialing bool
	reader  resp.Reader
	pending ring.Queue[poolReq] // unanswered commands, send order
}

type poolReq struct {
	cmd []byte
	cb  func(resp.Value)
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
	pc.pending.Push(poolReq{cmd, cb})
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
		for i := 0; i < pc.pending.Len(); i++ { // resend the unanswered window
			conn.Send(pc.pending.At(i).cmd)
		}
	})
}

func (p *respPool) redial(pc *poolConn) {
	if pc.conn == nil && !pc.dialing && pc.pending.Len() > 0 {
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
		if pc.pending.Len() == 0 {
			continue // reply to a command superseded by a resend
		}
		pc.pending.Pop().cb(v)
	}
}

// poolAsking is the ASKING prefix control processes send before touching an
// importing slot on its target group.
var poolAsking = resp.EncodeCommand("ASKING")

// migrateBatch is the GETKEYSINSLOT page size per drain round.
const migrateBatch = 32

// SlotMigrator reshards hash slots between running groups, key by key, over
// the same client protocol an external redis-cli --cluster reshard would
// use. It is sequential by design — one slot at a time, one key at a time —
// which keeps the schedule deterministic and bounds the migration's load on
// the donors to one in-flight command chain.
type SlotMigrator struct {
	c    *Cluster
	h    *Chaos // optional: trace notes for the determinism oracle
	pool *respPool

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
	return &SlotMigrator{c: c, h: h, pool: newRespPool(c, "reshard")}
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
	m.pool.send(srcAddr, resp.EncodeCommand("CLUSTER", "GETKEYSINSLOT", ss, strconv.Itoa(migrateBatch)), func(v resp.Value) {
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

// The slot range the scenario moves, where to, and how many slots go between
// trace notes while it does.
const (
	rshSlotStart = 0
	rshSlotEnd   = 255
	rshTarget    = 1
	rshNoteEvery = 64
)

// ReshardResult is the probe state of one reshard-under-load run.
type ReshardResult struct {
	M *SlotMigrator
	L *ledger
}

// ReshardScenario is a 2×1 hash-slot deployment that live-migrates slots
// [rshSlotStart, rshSlotEnd] from group 0 to group 1, starting 150ms into
// the load, while two pipelined slot-aware clients run a 50/50 GET/SET load
// over a 4000-key space and the ledger writer hammers 16 keys inside the
// moving range; the result fills in as the scenario runs. Its Check holds
// the two properties a doubly-served or lost migration would break: every
// acknowledged ledger write sits in the final owner's store, and the source
// holds none of the range. tracked arms CLIENT TRACKING on every slot
// client: the caches must stay invalidation-coherent while the slot range
// moves owners (MOVED/ASK redirects drop cached keys).
func ReshardScenario(seed int64, tracked bool) (Scenario, *ReshardResult) {
	res := &ReshardResult{}
	cfg := chaosConfig(seed, 0)
	cfg.Slaves, cfg.Cluster = 0, ClusterOpts{Masters: 2, SlavesPerMaster: 1}
	cfg.Clients, cfg.Pipeline = 2, 4
	cfg.KeySpace, cfg.GetRatio, cfg.Tracking = 4000, 0.5, tracked
	return Scenario{
		Name: "reshard-under-load", Config: cfg, RunFor: 1200 * sim.Millisecond, Settle: 1 * sim.Second,
		Script: func(h *Chaos) {
			var keys []string // deterministic keys hashing into the moving range
			for i := 0; len(keys) < 16; i++ {
				k := fmt.Sprintf("mig:%d", i)
				if inMovedRange(k) {
					keys = append(keys, k)
				}
			}
			*res = ReshardResult{L: newLedger(h.C, "ledger", keys, 2), M: NewSlotMigrator(h.C, h)}
			h.Load = append(h.Load, res.L)
			h.At(150*sim.Millisecond, "reshard begins", func(*Cluster) { moveChunk(h, res.M, rshSlotStart) })
		},
		Check: res.check,
	}, res
}

func inMovedRange(key string) bool {
	s := slots.Slot([]byte(key))
	return s >= rshSlotStart && s <= rshSlotEnd
}

// moveChunk reshards rshNoteEvery slots at a time so the chaos trace
// records the migration's progress (a determinism oracle: two identical
// runs must interleave mover progress and load identically).
func moveChunk(h *Chaos, m *SlotMigrator, from int) {
	to := min(from+rshNoteEvery-1, rshSlotEnd)
	m.Reshard(from, to, rshTarget, func() {
		if to >= rshSlotEnd {
			h.Note("reshard complete")
			return
		}
		moveChunk(h, m, to+1)
	})
}

// check asserts the scenario's acceptance invariants; timeline-shaped
// assertions live in the tests so failures print the trace.
func (r *ReshardResult) check(h *Chaos) error {
	c := h.C
	var errs []string
	add := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }

	if want := uint64(rshSlotEnd - rshSlotStart + 1); r.M.SlotsDone != want {
		add("migration flipped %d of %d slots before the horizon", r.M.SlotsDone, want)
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
	// No key may remain where the old owner could still serve it.
	if left := c.Groups[0].Master.Store().KeysWhere(0, 0, inMovedRange); len(left) > 0 {
		add("source still holds %d keys in the moved range (first: %q)", len(left), left[0])
	}
	// Every acknowledged ledger write must be the value the final owner
	// serves: a lost key, a lost update, or a doubly-served write (acked by
	// the source after the key had moved) would all surface as a mismatch.
	for _, bad := range r.L.audit(c.Groups[rshTarget].Master.Store(), true) {
		add("ledger key %s", bad)
	}
	if r.L.Errs > 0 {
		add("ledger absorbed %d unexpected error replies", r.L.Errs)
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
