package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/resp"
	"skv/internal/slots"
	"skv/internal/store"
)

// ledger is the scenarios' correctness oracle: a closed-loop writer that
// SETs a fixed key ring with a unique <key>#<seq> payload per write and
// records, per key, the highest sequence the deployment ACKNOWLEDGED (a
// reply already on the wire when a master crashes still counts: acknowledged
// is what the client saw); audit then holds a store to that record. With a
// slot table each write goes to the key's current owner per the
// authoritative map (an oracle, not a staleness test — the workload client
// covers stale maps) and MOVED/ASK are followed; with none the ledger writes
// to the one master, never re-routes, and does not parse redirects.
type ledger struct {
	c      *Cluster
	pool   *respPool
	keys   []string
	window int

	running bool
	seq     int
	acked   map[string]int // key -> highest acked seq

	WritesAcked uint64
	Asked       uint64
	Moved       uint64
	Errs        uint64
}

// newLedger gives the writer its own machine, named name, and window writes
// in flight over keys.
func newLedger(c *Cluster, name string, keys []string, window int) *ledger {
	return &ledger{c: c, pool: newRespPool(c, name), keys: keys, window: window, acked: map[string]int{}}
}

// Start fills the window.
func (l *ledger) Start() {
	l.running = true
	for i := 0; i < l.window; i++ {
		l.next()
	}
}

// Stop ends the loop: replies still in flight are recorded, nothing more is
// issued.
func (l *ledger) Stop() { l.running = false }

func (l *ledger) next() {
	if !l.running {
		return
	}
	l.pool.proc.Core.Charge(l.c.Params.ClientThinkCPU)
	seq := l.seq
	l.seq++
	l.route(l.keys[seq%len(l.keys)], seq)
}

func (l *ledger) route(k string, seq int) {
	addr := l.c.Groups[0].MasterMachine.Host.Name()
	if m := l.c.SlotMap; m != nil {
		addr = m.Addr(m.Owner(slots.Slot([]byte(k))))
	}
	l.sendSet(addr, k, seq, false)
}

func (l *ledger) sendSet(addr, k string, seq int, asked bool) {
	if asked {
		l.pool.send(addr, poolAsking, func(resp.Value) {})
	}
	l.pool.send(addr, resp.EncodeCommand("SET", k, ledgerValue(k, seq)), func(rv resp.Value) {
		if rv.IsError() {
			if l.c.SlotMap != nil {
				switch kind, _, raddr, _ := slots.ParseRedirectKind(string(rv.Str)); kind {
				case slots.RedirectMoved:
					l.Moved++
					l.route(k, seq) // ownership flipped under us: re-route
					return
				case slots.RedirectAsk:
					l.Asked++
					l.sendSet(raddr, k, seq, true)
					return
				}
			}
			l.Errs++
		} else {
			if prev, seen := l.acked[k]; !seen || seq > prev {
				l.acked[k] = seq
			}
			l.WritesAcked++
		}
		l.next()
	})
}

// ledgerValue is the unique per-write payload; audit parses the sequence
// back out of the store.
func ledgerValue(k string, seq int) string { return fmt.Sprintf("%s#%d", k, seq) }

// audit reads every ledger key from st and returns one line per key whose
// acknowledged write is gone: the store holds less than was acknowledged. A
// later write is fine while some may be in flight (one that replicated
// without its reply landing); exact is for a quiesced deployment, where the
// store must hold exactly the last acknowledged write of every key.
func (l *ledger) audit(st *store.Store, exact bool) []string {
	var bad []string
	for _, k := range l.keys {
		acked, wasAcked := l.acked[k]
		if !wasAcked {
			if exact {
				bad = append(bad, fmt.Sprintf("%s: never acknowledged", k))
			}
			continue
		}
		reply, _ := st.Exec(0, [][]byte{[]byte("get"), []byte(k)})
		var r resp.Reader
		r.Feed(reply)
		v, _, _ := r.ReadValue()
		val := string(v.Str)
		held, err := strconv.Atoi(val[strings.LastIndexByte(val, '#')+1:])
		switch {
		case v.Null:
			bad = append(bad, fmt.Sprintf("%s: acked seq %d, store holds nothing", k, acked))
		case err != nil || val != ledgerValue(k, held):
			bad = append(bad, fmt.Sprintf("%s: acked seq %d, store holds garbage %q", k, acked, val))
		case held < acked || exact && held != acked:
			bad = append(bad, fmt.Sprintf("%s: acked seq %d, store holds seq %d", k, acked, held))
		}
	}
	return bad
}
