package workload

import (
	"fmt"

	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/resp"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/transport"
)

// KV is the one benchmark-client surface. Both load generators — the plain
// closed-loop client and the slot-aware cluster client — implement it, so
// harnesses (benches, chaos scenarios, examples) drive either through the
// same interface and read the same Stats, regardless of topology.
type KV interface {
	// Name returns the client's name (stable across reconnects).
	Name() string
	// Start dials and begins the closed loop(s).
	Start()
	// Stop ends the loop after in-flight requests complete.
	Stop()
	// SetWarmup discards latency samples recorded before the given time.
	SetWarmup(until sim.Time)
	// SetSeries attaches a completion-over-time series (Fig 14).
	SetSeries(s *stats.TimeSeries)
	// Stats returns a copy of the client's counters.
	Stats() Stats
	// Histogram returns the client's latency histogram (after warm-up).
	Histogram() *stats.Histogram
	// CacheEntries returns a copy of the tracked client cache, nil when
	// tracking is off — the hook coherence oracles compare against stores.
	CacheEntries() map[string]string
}

// Options selects what kind of client New builds and how it behaves.
type Options struct {
	// Addrs seeds the server addresses (endpoint names, resolved through
	// Env.Resolve). A plain client dials Addrs[0]; a slot client learns the
	// rest of the topology through MOVED redirects from its seed.
	Addrs []string
	// Pipeline is the number of requests kept in flight (redis-benchmark
	// -P). 1 = classic closed loop. For slot clients the window is per
	// replication group.
	Pipeline int
	// Slots selects the slot-aware cluster client (requires Env.Table).
	Slots bool
	// Tracking negotiates CLIENT TRACKING after every (re)dial and serves
	// tracked GETs from a local invalidation-coherent cache.
	Tracking bool
	// CacheSize bounds the tracked cache in entries (0 = DefaultCacheSize).
	CacheSize int
}

// Env is the simulated world a client is built into — everything that is a
// property of the deployment rather than of the client's behavior.
type Env struct {
	Eng    *sim.Engine
	Params *model.Params
	// EP is the client machine's host endpoint.
	EP *fabric.Endpoint
	// MakeStack abstracts the transport choice (TCP vs RDMA).
	MakeStack func(*fabric.Endpoint, *sim.Proc) transport.Stack
	Gen       *Generator
	// Wakeup is the client proc's wakeup cost.
	Wakeup sim.Duration
	// Port is the server port every data connection dials.
	Port int
	// Resolve maps a server address (an endpoint name) to its endpoint.
	Resolve func(addr string) *fabric.Endpoint
	// Table is the deployment's authoritative slot map (Options.Slots).
	Table *slots.Map
	// Invalidation, when non-nil, is the out-of-band invalidation push
	// endpoint (the master's SmartNIC): a tracking client subscribes there
	// and asks the server to REDIRECT invalidations to that subscription.
	// Nil keeps invalidations in-band ('>' pushes on the data connection).
	Invalidation *fabric.Endpoint
	// InvalidationPort is the port the subscription dials (Invalidation).
	InvalidationPort int
}

// Stats is a copy of one client's counters. Slot-routing fields stay zero
// for plain clients; tracking fields stay zero with tracking off.
type Stats struct {
	// Sent and Done count requests put on the wire and replies consumed;
	// ErrReplies the error replies among them (redirects excluded).
	Sent       uint64
	Done       uint64
	ErrReplies uint64

	// Tracking: Hits are GETs served from the local cache (also counted in
	// Done), Misses tracked GETs that went to the network, Invalidations
	// the invalidation pushes applied, Flushes the whole-cache drops
	// (reconnects, topology changes, subscription loss).
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Flushes       uint64

	// Slot routing (see SlotClient's doc comment for the semantics).
	Moved        uint64
	Asked        uint64
	TryAgain     uint64
	MapRefreshes uint64
	Redials      uint64
	// GroupDone / GroupErrs break network completions and error replies
	// down by serving group (cache hits count toward neither — a hit is
	// served by nobody).
	GroupDone []uint64
	GroupErrs []uint64
}

// New builds a client. The concrete type is chosen by opts.Slots; callers
// only ever see the KV interface.
func New(name string, env Env, opts Options) KV {
	if opts.Slots {
		if env.Table == nil {
			panic(fmt.Sprintf("workload: client %s: Options.Slots requires Env.Table", name))
		}
		return newSlotClient(name, env, opts)
	}
	if len(opts.Addrs) != 1 {
		panic(fmt.Sprintf("workload: client %s: a plain client needs exactly one address, got %d", name, len(opts.Addrs)))
	}
	return newClient(name, env, opts)
}

// DefaultCacheSize bounds the tracked cache when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// kvbase is the state both client kinds share: the simulated machine (core,
// proc, transport stack), the generator, measurement plumbing, the common
// counters, and the tracked cache.
type kvbase struct {
	name   string
	eng    *sim.Engine
	params *model.Params
	proc   *sim.Proc
	stack  transport.Stack
	gen    *Generator

	pipeline int
	running  bool

	warmupUntil sim.Time
	hist        *stats.Histogram
	series      *stats.TimeSeries

	sent       uint64
	done       uint64
	errReplies uint64

	tracking      bool
	cache         *cache
	hits          uint64
	misses        uint64
	invalidations uint64
	flushes       uint64
}

func newKVBase(name string, env Env, opts Options) kvbase {
	coreRes := sim.NewCore(env.Eng, name+"-core", env.Params.HostCoreSpeed)
	proc := sim.NewProc(env.Eng, coreRes, env.Wakeup)
	b := kvbase{
		name:     name,
		eng:      env.Eng,
		params:   env.Params,
		proc:     proc,
		stack:    env.MakeStack(env.EP, proc),
		gen:      env.Gen,
		pipeline: opts.Pipeline,
		hist:     stats.NewHistogram(),
		tracking: opts.Tracking,
	}
	if opts.Tracking {
		size := opts.CacheSize
		if size <= 0 {
			size = DefaultCacheSize
		}
		b.cache = newCache(size)
	}
	return b
}

func (b *kvbase) Name() string                  { return b.name }
func (b *kvbase) Stop()                         { b.running = false }
func (b *kvbase) SetWarmup(until sim.Time)      { b.warmupUntil = until }
func (b *kvbase) SetSeries(s *stats.TimeSeries) { b.series = s }
func (b *kvbase) Histogram() *stats.Histogram   { return b.hist }

func (b *kvbase) baseStats() Stats {
	return Stats{
		Sent: b.sent, Done: b.done, ErrReplies: b.errReplies,
		Hits: b.hits, Misses: b.misses,
		Invalidations: b.invalidations, Flushes: b.flushes,
	}
}

// CacheEntries snapshots the tracked cache (nil when tracking is off).
func (b *kvbase) CacheEntries() map[string]string {
	if b.cache == nil {
		return nil
	}
	return b.cache.entries()
}

// record books one completion's latency if past warm-up.
func (b *kvbase) record(sentAt sim.Time) {
	now := b.eng.Now()
	if now >= b.warmupUntil {
		b.hist.Record(now.Sub(sentAt))
		if b.series != nil {
			b.series.Record(now)
		}
	}
}

// localHit completes one tracked GET from the cache: the value is already
// in client memory, so the op costs one think-time beat on the client core
// and never touches the wire. refill re-arms the closed-loop window slot
// the hit occupied.
func (b *kvbase) localHit(sentAt sim.Time, refill func()) {
	b.hits++
	b.proc.Post(b.params.ClientThinkCPU, func() {
		b.done++
		b.record(sentAt)
		refill()
	})
}

// flushCache empties the tracked cache (reconnects, subscription loss,
// topology changes — any event after which pushed invalidations may have
// been missed).
func (b *kvbase) flushCache() {
	if b.cache == nil || b.cache.len() == 0 {
		return
	}
	b.cache.flush()
	b.flushes++
}

// pushedKey extracts the invalidated key from a tracking push frame, or
// ok=false for pushes the client does not understand (ignored).
func pushedKey(v resp.Value) (string, bool) {
	if len(v.Array) != 2 || string(v.Array[0].Str) != "invalidate" {
		return "", false
	}
	return string(v.Array[1].Str), true
}
