package workload

import (
	"fmt"
	"strings"

	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/ring"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/transport"
)

// client is the benchmark client every deployment is measured with:
// slot-aware closed loops. It keeps a client-side copy of the hash-slot map,
// routes every command to the group that owns its key's slot over one
// connection per group, and repairs its map when a server answers MOVED
// (refreshing from the authoritative table, standing in for a CLUSTER SLOTS
// round trip). Without a table (Env.Table nil) the deployment is one group
// at the seed address that owns every key: nothing is hashed, no view is
// kept and no redirect ever arrives.
//
// The closed-loop window is PER GROUP, not global: each group gets its own
// Pipeline-deep window, refilled only by completions of requests targeting
// that group (as cluster benchmarks keep one pipeline per node connection).
// A shared window would let a single dead group absorb every in-flight slot
// and starve the healthy groups — exactly the blast radius the hash-slot
// design exists to prevent. Refills draw from the shared generator and
// discard keys owned by other groups (rejection sampling), so the key
// distribution is preserved while the loops stay independent. Connection
// loss, dial timeouts, and a stall watchdog re-route the affected in-flight
// requests after a short back-off.
//
// With tracking on, every connection negotiates CLIENT TRACKING right
// after its dial and tracked GETs are served from the local cache. In-band
// (Env.Invalidation nil), invalidations arrive as '>' pushes on the data
// connections, FIFO with the replies of the node that recorded the
// interest. In redirect mode the client first subscribes by name to the
// master's SmartNIC and asks the server to REDIRECT invalidations to that
// subscription. The cache is flushed whenever a connection is recovered,
// the subscription is lost or the slot map is refreshed (pushes may have
// been missed / interest may now live on a node we no longer talk to), and
// single keys are dropped on MOVED/ASK redirects and on the client's own
// writes.
type client struct {
	name   string
	eng    *sim.Engine
	params *model.Params
	proc   *sim.Proc
	stack  transport.Stack
	gen    *Generator

	pipeline int
	running  bool
	// stalls is the stall watchdog's ticker; non-nil once the loops began.
	stalls *sim.Ticker

	warmupUntil sim.Time
	hist        *stats.Histogram
	series      *stats.TimeSeries
	st          Stats

	// table is the deployment's authoritative slot map; refreshes copy from
	// it (the simulation's stand-in for asking any node CLUSTER SLOTS).
	table *slots.Map
	// resolve maps a slot-map address (an endpoint name) to its endpoint.
	resolve func(addr string) *fabric.Endpoint
	port    int

	// Client-side view of the slot map. Bootstrapped deliberately stale —
	// epoch 0, every slot owned by group 0, only the seed address known —
	// exactly like a real cluster client that learns the topology through
	// MOVED redirects from its seed node. owner is nil without a table.
	epoch uint64
	owner []uint16
	addrs []string

	conns []*slotConn // by group; nil until first routed to, and once retired

	tracking bool
	// cache holds tracked GET values, bounded and evicted by first
	// insertion. It is dumb storage: coherence comes from the drops and
	// flushes above.
	cache    *ring.BoundedMap[string, []byte]
	trackCmd []byte // the per-connection tracking handshake
	// Redirect mode: the out-of-band invalidation subscription.
	invalidation     *fabric.Endpoint
	invalidationPort int
	subConn          transport.Conn
	// cacheOn arms local serving: always on in-band (a connection that lost
	// pushes is recovered, which flushes), in redirect mode only while an
	// acknowledged subscription is up.
	cacheOn bool
}

const (
	// dialTimeout bounds a dial whose handshake was swallowed by a downed
	// endpoint; retryDelay spaces reconnect attempts after a failure.
	dialTimeout = 250 * sim.Millisecond
	retryDelay  = 20 * sim.Millisecond
	// requestTimeout is the stall watchdog: a connection with in-flight
	// requests and no traffic for this long is torn down and its requests
	// re-routed. This is what detects a wedged master — the process keeps
	// its endpoints up and just goes silent, so no close event ever comes.
	requestTimeout = 250 * sim.Millisecond
	// subRetryDelay spaces re-subscription attempts after a push-channel loss.
	subRetryDelay = 20 * sim.Millisecond
)

// askingCmd is the one-shot admission prefix sent before an ASK retry.
var askingCmd = resp.EncodeCommand("ASKING")

// slotConn is one connection to one replication group's current address.
type slotConn struct {
	group    int
	addr     string
	conn     transport.Conn
	reader   resp.Reader
	inflight ring.Queue[slotReq] // FIFO, matches reply order
	queue    []slotReq           // parked while the dial is outstanding
	// lastActivity is the last send or receive, for the stall watchdog.
	lastActivity sim.Time
}

// slotReq is one routed request; sentAt is the first-issue time so redirect
// and retry hops count toward the recorded latency. target is the group
// whose window the request occupies (its authoritative slot owner at
// generation time) — completion refills that window, wherever the reply
// actually came from. marker requests are protocol filler (the ASKING that
// precedes an ASK retry, the tracking handshake): their replies are
// consumed without accounting, and they are dropped — not re-dispatched —
// when a connection is recovered (the paired data request re-routes by
// slot and earns a fresh ASK if the migration is still open). poisoned
// GETs raced an invalidation push and must not populate the cache.
//
// A data request's cmd is a buffer of its own that travels with it through
// redirects and recoveries, and key is a sub-slice of it; once its reply
// completes it, the buffer carries the next generated request. A marker's cmd
// is the client's shared ASKING or handshake encoding and is never reused.
type slotReq struct {
	cmd      []byte
	key      []byte
	target   int
	sentAt   sim.Time
	get      bool
	marker   bool
	poisoned bool
}

// New builds a closed-loop client on its own core, seeded with opts.Addr.
func New(name string, env Env, opts Options) KV {
	proc := sim.NewProc(env.Eng, sim.NewCore(env.Eng, name+"-core", env.Params.HostCoreSpeed), env.Wakeup)
	groups, owner := 1, []uint16(nil)
	if env.Table != nil {
		groups, owner = env.Table.Groups(), make([]uint16, slots.NumSlots)
	}
	c := &client{
		name:     name,
		eng:      env.Eng,
		params:   env.Params,
		proc:     proc,
		stack:    env.MakeStack(env.EP, proc),
		gen:      env.Gen,
		pipeline: max(opts.Pipeline, 1),
		hist:     stats.NewHistogram(),
		st:       Stats{GroupDone: make([]uint64, groups), GroupErrs: make([]uint64, groups)},
		table:    env.Table,
		resolve:  env.Resolve,
		port:     env.Port,
		owner:    owner,
		addrs:    make([]string, groups),
		conns:    make([]*slotConn, groups),
		tracking: opts.Tracking,
	}
	c.addrs[0] = opts.Addr
	if opts.Tracking {
		c.cache = ring.NewBoundedMap[string, []byte](cacheEntries, nil)
		args := []string{"client", "tracking", "on"}
		if env.Invalidation != nil {
			c.invalidation, c.invalidationPort = env.Invalidation, env.InvalidationPort
			args = append(args, "redirect", name)
		}
		c.trackCmd = resp.EncodeCommand(args...)
	}
	return c
}

func (c *client) Name() string                  { return c.name }
func (c *client) SetWarmup(until sim.Time)      { c.warmupUntil = until }
func (c *client) SetSeries(s *stats.TimeSeries) { c.series = s }
func (c *client) Histogram() *stats.Histogram   { return c.hist }

func (c *client) Stats() Stats {
	st := c.st
	st.GroupDone = append([]uint64(nil), st.GroupDone...)
	st.GroupErrs = append([]uint64(nil), st.GroupErrs...)
	return st
}

// CacheEntries snapshots the tracked cache (nil when tracking is off).
func (c *client) CacheEntries() map[string]string {
	if c.cache == nil {
		return nil
	}
	out := make(map[string]string, c.cache.Len())
	c.cache.Each(func(k string, v []byte) { out[k] = string(v) })
	return out
}

// Start begins the closed loops. In redirect mode they wait for the
// subscription ack: the NIC must know the subscriber before any interest
// recorded for it is forwarded, or a push could be dropped while the client
// caches the value it covered.
func (c *client) Start() {
	c.running = true
	if c.invalidation != nil {
		c.subscribe()
		return
	}
	c.cacheOn = c.tracking
	c.begin()
}

// Stop ends the loops after in-flight requests complete, and the watchdog
// with them, so a drained client leaves nothing scheduled.
func (c *client) Stop() {
	c.running = false
	if c.stalls != nil {
		c.stalls.Stop()
	}
}

// begin arms the stall watchdog and fills every group's window (dialing
// lazily as routes are needed). It runs once: a re-subscription's ack, or
// one that arrives after Stop, starts nothing.
func (c *client) begin() {
	if !c.running || c.stalls != nil {
		return
	}
	c.stalls = c.eng.Every(requestTimeout, c.checkStalls)
	for g := range c.addrs {
		for i := 0; i < c.pipeline; i++ {
			c.sendNextFor(g, nil)
		}
	}
}

func (c *client) subscribe() {
	if !c.running {
		return
	}
	c.stack.Dial(c.invalidation, c.invalidationPort, func(conn transport.Conn, err error) {
		if err != nil {
			panic(fmt.Sprintf("workload: client %s invalidation dial failed: %v", c.name, err))
		}
		c.subConn = conn
		conn.SetHandler(func(data []byte) { c.onSubData(conn, data) })
		conn.SetCloseHandler(func() {
			if c.subConn != conn {
				return
			}
			// The push channel died: invalidations may have been lost, so
			// the cache cannot be trusted until a new subscription is acked.
			c.subConn = nil
			c.cacheOn = false
			c.flushCache()
			c.eng.After(subRetryDelay, c.subscribe)
		})
		conn.Send(core.EncodeTrackHello(c.name))
	})
}

func (c *client) onSubData(conn transport.Conn, data []byte) {
	if c.subConn != conn {
		return
	}
	ok := core.ParseSubscriberFrames(data, func() {
		c.cacheOn = true
		c.begin()
	}, c.applyInvalidation)
	if !ok {
		panic(fmt.Sprintf("workload: client %s got garbage on the invalidation channel", c.name))
	}
}

// checkStalls tears down connections whose in-flight requests have seen no
// traffic for requestTimeout. Groups are scanned in index order, so recovery
// ordering is deterministic across runs.
func (c *client) checkStalls() {
	now := c.eng.Now()
	for _, sc := range c.conns {
		if sc == nil || sc.conn == nil || sc.inflight.Len() == 0 {
			continue
		}
		if now.Sub(sc.lastActivity) >= requestTimeout {
			c.recoverReqs(sc)
		}
	}
}

// sendNextFor refills target group tg's window with the next generated
// command whose key tg owns (draws for other groups are discarded — their
// own loops will produce equivalent draws). Ownership is read from the
// authoritative table: generation is workload synthesis, not routing — the
// possibly-stale client view only decides where the request is SENT.
// Groups that own no slots get no window. The command is encoded into buf,
// the buffer of the request that just completed (nil: a fresh one).
func (c *client) sendNextFor(tg int, buf []byte) {
	if !c.running || (c.table != nil && c.table.Count(tg) == 0) {
		return
	}
	if buf == nil {
		buf = make([]byte, 0, c.gen.CmdCap())
	}
	for {
		cmd, op, key := c.gen.AppendNext(buf[:0])
		c.proc.Core.Charge(c.params.ClientThinkCPU)
		if c.table != nil && c.table.Owner(slots.Slot(key)) != tg {
			continue
		}
		if c.tracking {
			if op == OpGet && c.cacheOn {
				if _, ok := c.cache.Get(string(key)); ok {
					c.localHit(tg)
					return
				}
				c.st.Misses++
			}
			if op == OpSet {
				// Read-your-writes: drop our own copy now — the push
				// confirming this write would arrive only after the ack.
				c.cache.Delete(string(key))
				c.poison(string(key))
			}
		}
		c.st.Sent++
		c.dispatch(slotReq{cmd: cmd, key: key, target: tg, sentAt: c.eng.Now(), get: op == OpGet})
		return
	}
}

// record books one completion's latency if past warm-up.
func (c *client) record(sentAt sim.Time) {
	now := c.eng.Now()
	if now >= c.warmupUntil {
		c.hist.Record(now.Sub(sentAt))
		if c.series != nil {
			c.series.Record(now)
		}
	}
}

// localHit completes one tracked GET from the cache: the value is already
// in client memory, so the op costs one think-time beat on the client core
// and never touches the wire, then refills the window slot it occupied.
func (c *client) localHit(tg int) {
	c.st.Hits++
	sentAt := c.eng.Now()
	c.proc.Post(c.params.ClientThinkCPU, func() {
		c.st.Done++
		c.record(sentAt)
		c.sendNextFor(tg, nil)
	})
}

// flushCache empties the tracked cache (reconnects, subscription loss,
// topology changes — any event after which pushed invalidations may have
// been missed).
func (c *client) flushCache() {
	if c.cache == nil || c.cache.Len() == 0 {
		return
	}
	c.cache.Reset()
	c.st.Flushes++
}

// poison marks every in-flight or queued GET for key: its reply may carry
// the value an invalidation push just retired.
func (c *client) poison(key string) {
	for _, sc := range c.conns {
		if sc == nil {
			continue
		}
		for i := 0; i < sc.inflight.Len(); i++ {
			if r := sc.inflight.At(i); r.get && string(r.key) == key {
				r.poisoned = true
			}
		}
		for i := range sc.queue {
			if sc.queue[i].get && string(sc.queue[i].key) == key {
				sc.queue[i].poisoned = true
			}
		}
	}
}

func (c *client) applyInvalidation(key string) {
	c.st.Invalidations++
	c.cache.Delete(key)
	c.poison(key)
}

// dropKey drops one cache entry on a redirect: the key's interest now
// lives (or will be re-recorded) on another node, so the cached copy can
// no longer be trusted to see its invalidation.
func (c *client) dropKey(key []byte) {
	if c.tracking {
		c.cache.Delete(string(key))
	}
}

// dispatch routes one request by its key's slot under the current view.
func (c *client) dispatch(r slotReq) {
	g := 0
	if c.owner != nil {
		g = int(c.owner[slots.Slot(r.key)])
	}
	c.sendTo(g, r)
}

// sendTo queues one request on group g's connection, dialing if needed.
// dispatch computes g from the slot map; the ASK path forces it.
func (c *client) sendTo(g int, r slotReq) {
	sc := c.conns[g]
	if sc == nil {
		sc = &slotConn{group: g, addr: c.addrs[g]}
		c.conns[g] = sc
		sc.queue = append(sc.queue, r)
		c.dial(sc)
		return
	}
	if sc.conn == nil {
		sc.queue = append(sc.queue, r) // dial outstanding
		return
	}
	sc.inflight.Push(r)
	sc.lastActivity = c.eng.Now()
	sc.conn.Send(r.cmd)
}

func (c *client) dial(sc *slotConn) {
	c.eng.After(dialTimeout, func() {
		if c.conns[sc.group] == sc && sc.conn == nil {
			// Handshake swallowed by a dead endpoint: give up on this
			// attempt and re-route its requests.
			c.recoverReqs(sc)
		}
	})
	c.stack.Dial(c.resolve(sc.addr), c.port, func(conn transport.Conn, err error) {
		if c.conns[sc.group] != sc || sc.conn != nil {
			if err == nil {
				conn.Close() // superseded
			}
			return
		}
		if err != nil {
			c.recoverReqs(sc)
			return
		}
		sc.conn = conn
		conn.SetHandler(func(data []byte) { c.onReply(sc, conn, data) })
		conn.SetCloseHandler(func() {
			if c.conns[sc.group] == sc && sc.conn == conn {
				sc.conn = nil
				c.recoverReqs(sc)
			}
		})
		if c.tracking {
			// Handshake first: FIFO guarantees the node records the
			// tracking mode before admitting any queued GET's interest.
			sc.inflight.Push(slotReq{cmd: c.trackCmd, marker: true})
			conn.Send(c.trackCmd)
		}
		q := sc.queue
		sc.queue = nil
		sc.lastActivity = c.eng.Now()
		for _, r := range q {
			sc.inflight.Push(r)
			conn.Send(r.cmd)
		}
	})
}

// recoverReqs retires a broken connection and re-dispatches everything it
// carried after retryDelay — which re-dials — refreshing the slot map first
// (the group's address may have moved to a promoted slave in the meantime).
// With tracking on the cache is flushed: pushes may have died with the
// connection, and the interest recorded on the lost node is gone.
func (c *client) recoverReqs(sc *slotConn) {
	if c.conns[sc.group] != sc {
		return
	}
	c.conns[sc.group] = nil
	c.st.Redials++
	reqs := make([]slotReq, 0, sc.inflight.Len()+len(sc.queue))
	for sc.inflight.Len() > 0 {
		reqs = append(reqs, sc.inflight.Pop())
	}
	reqs = append(reqs, sc.queue...)
	sc.queue = nil
	if sc.conn != nil {
		conn := sc.conn
		sc.conn = nil
		conn.Close()
	}
	c.flushCache()
	c.eng.After(retryDelay, func() {
		c.refreshMap()
		for _, r := range reqs {
			if r.marker {
				continue // ASKING filler: its data request re-routes alone
			}
			c.dispatch(r)
		}
	})
}

// askRetry performs the one-shot ASK protocol: send ASKING then the same
// request to the redirect's address. Unlike MOVED this must NOT refresh the
// slot map — the source still owns the slot until the migration finishes,
// and adopting the target early would bounce every other key in the slot.
// The address is resolved to a group through the authoritative table (the
// simulation's stand-in for a real client keying connections by address).
func (c *client) askRetry(addr string, req slotReq) bool {
	g := -1
	for i := 0; i < c.table.Groups(); i++ {
		if c.table.Addr(i) == addr {
			g = i
			break
		}
	}
	if g < 0 {
		return false // address not in the deployment: caller falls back
	}
	if c.addrs[g] != addr {
		// Our view has a stale (or unlearned) address for this group; an
		// ASK names the live endpoint, so adopt it. Any connection to the
		// old address is retired and its requests re-route normally.
		if sc := c.conns[g]; sc != nil && sc.addr != addr {
			c.recoverReqs(sc)
		}
		c.addrs[g] = addr
	}
	c.sendTo(g, slotReq{cmd: askingCmd, marker: true})
	c.sendTo(g, req)
	return true
}

// refreshMap copies the authoritative table if it is newer than our view,
// then retires connections whose group address changed. With tracking on a
// topology change flushes the cache: entries may now be owned by nodes
// that hold no interest for us. Without a table there is nothing to learn.
func (c *client) refreshMap() {
	if c.table == nil || c.epoch == c.table.Epoch() {
		return
	}
	c.proc.Core.Charge(c.params.ClientThinkCPU)
	c.epoch = c.table.CopyInto(c.owner, c.addrs)
	c.st.MapRefreshes++
	c.flushCache()
	for g, sc := range c.conns { // index order: deterministic
		if sc != nil && sc.addr != c.addrs[g] {
			c.recoverReqs(sc)
		}
	}
}

func (c *client) onReply(sc *slotConn, conn transport.Conn, data []byte) {
	if c.conns[sc.group] != sc || sc.conn != conn {
		return
	}
	sc.lastActivity = c.eng.Now()
	sc.reader.Feed(data)
	for {
		// Borrowed: v is done with before the next read.
		v, ok, err := sc.reader.BorrowValue()
		if err != nil {
			panic(fmt.Sprintf("workload: client %s got protocol garbage: %v", c.name, err))
		}
		if !ok {
			return
		}
		if v.IsPush() {
			if key, isInv := pushedKey(v); isInv {
				c.applyInvalidation(key)
			}
			continue
		}
		if sc.inflight.Len() == 0 {
			continue // reply for a request already re-routed elsewhere
		}
		req := sc.inflight.Pop()
		if req.marker {
			// +OK for an ASKING/handshake prefix: no accounting, no refill.
			if v.IsError() {
				panic(fmt.Sprintf("workload: client %s: %q rejected: %s", c.name, req.cmd, v.Str))
			}
			continue
		}
		if v.IsError() {
			if c.table != nil && c.redirected(req, string(v.Str)) {
				continue
			}
			c.st.ErrReplies++
			c.st.GroupErrs[sc.group]++
		}
		c.st.Done++
		c.st.GroupDone[sc.group]++
		c.record(req.sentAt)
		if req.get && c.cacheOn && !req.poisoned && v.Type == resp.TypeBulk && !v.Null {
			c.cache.Put(string(req.key), append([]byte(nil), v.Str...))
		}
		c.sendNextFor(req.target, req.cmd)
	}
}

// redirected handles the slot plane's error replies — MOVED, ASK, TRYAGAIN —
// by re-issuing req (sentAt preserved: the extra hop is real latency), and
// reports whether msg was one of them.
func (c *client) redirected(req slotReq, msg string) bool {
	kind, _, addr, _ := slots.ParseRedirectKind(msg)
	switch {
	case kind == slots.RedirectMoved:
		// Stale view: repair the map and re-issue the same request.
		c.st.Moved++
		c.dropKey(req.key)
		c.refreshMap()
		c.dispatch(req)
	case kind == slots.RedirectAsk:
		c.st.Asked++
		c.dropKey(req.key)
		if !c.askRetry(addr, req) {
			// Unknown address (should not happen in a converged
			// deployment): fall back to a map refresh and re-route.
			c.refreshMap()
			c.dispatch(req)
		}
	case strings.HasPrefix(msg, "TRYAGAIN"):
		// Half-migrated multi-key window: back off and retry.
		c.st.TryAgain++
		c.eng.After(retryDelay, func() { c.dispatch(req) })
	default:
		return false
	}
	return true
}

// pushedKey extracts the invalidated key from a tracking push frame, or
// ok=false for pushes the client does not understand (ignored).
func pushedKey(v resp.Value) (string, bool) {
	if len(v.Array) != 2 || string(v.Array[0].Str) != "invalidate" {
		return "", false
	}
	return string(v.Array[1].Str), true
}
