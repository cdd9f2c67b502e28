package workload

import (
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/sim"
	"skv/internal/slots"
	"skv/internal/stats"
	"skv/internal/transport"
)

// KV is the benchmark-client surface: what harnesses (benches, chaos
// scenarios, examples) drive and read, whatever the topology.
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

// Options selects how the client New builds behaves.
type Options struct {
	// Addr is the seed address (an endpoint name, resolved through
	// Env.Resolve): group 0's. With a slot table the client learns the rest
	// of the topology through MOVED redirects from it.
	Addr string
	// Pipeline is the number of requests kept in flight (redis-benchmark
	// -P) per replication group. 1 = classic closed loop.
	Pipeline int
	// Tracking negotiates CLIENT TRACKING after every (re)dial and serves
	// tracked GETs from a local invalidation-coherent cache of
	// cacheEntries entries.
	Tracking bool
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
	// Table is the deployment's authoritative slot map. Nil means a single
	// replication group at the seed address that owns every key.
	Table *slots.Map
	// Invalidation, when non-nil, is the out-of-band invalidation push
	// endpoint (the one master's SmartNIC): a tracking client subscribes
	// there and asks the server to REDIRECT invalidations to that
	// subscription. Nil keeps invalidations in-band ('>' pushes on the data
	// connections).
	Invalidation *fabric.Endpoint
	// InvalidationPort is the port the subscription dials (Invalidation).
	InvalidationPort int
}

// Stats is a copy of one client's counters. Tracking fields stay zero with
// tracking off.
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

	// Slot routing: Moved counts MOVED redirects (each also triggers a map
	// refresh unless the view is already current), Asked the ASK redirects
	// (one-shot retries that deliberately do NOT refresh the map — the
	// migration window is transient and the source still owns the slot),
	// TryAgain the TRYAGAIN replies retried after a back-off, MapRefreshes
	// the copies taken from the authoritative table.
	Moved        uint64
	Asked        uint64
	TryAgain     uint64
	MapRefreshes uint64
	// Redials counts the connections retired by a dial failure, close,
	// stall or address change, each re-dialed by the next request routed to
	// its group. A fault-free run has none.
	Redials uint64
	// GroupDone / GroupErrs break network completions and error replies
	// down by serving group (cache hits count toward neither — a hit is
	// served by nobody).
	GroupDone []uint64
	GroupErrs []uint64
}

// cacheEntries bounds a tracking client's cache.
const cacheEntries = 4096
