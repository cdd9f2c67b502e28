package bench

import (
	"skv/internal/cluster"
	"skv/internal/core"
)

// ExtTracking measures the client-side caching extension end to end: a
// closed-loop Zipfian GET workload over a preloaded keyspace, comparing
// where reads are served from — the host (SKV's §IV-A choice), the
// SmartNIC's ARM cores (the rejected design), and each of those with
// CLIENT TRACKING on, where the hot keys are served from the client's own
// invalidation-coherent cache at think-time cost. The headline: a tracked
// cache beats even the NIC-served read path, because the hottest keys
// never touch the wire at all — and unlike the NIC replica it needs no
// extra store, only the invalidation pushes the NIC already piggybacks on
// its replication fan-out.
func ExtTracking() *Experiment {
	e := &Experiment{
		ID:    "ext-tracking",
		Title: "GET throughput with client-side caching (Zipfian, preloaded keyspace)",
		Cols: []Col{keyCol("clients", "%.0f"), keyCol("reads", ""), keyCol("tracking", ""),
			numCol("tput kops/s", "%.1f"), numCol("hit rate", "%.0f%%"), numCol("avg µs", "%.1f"), numCol("p99 µs", "%.1f")},
		Notes: []string{
			"reads=host is SKV's §IV-A design; reads=nic serves GETs from the ARM shadow replica (NicReads=clients)",
			"tracking=on arms CLIENT TRACKING: tracked GETs hit the client cache, kept coherent by NIC-pushed invalidations",
			"pure-GET load (the NIC read path rejects writes); the chaos and coherence tests exercise the invalidation path",
		},
	}
	variants := []struct {
		reads   string
		mode    cluster.NicReadMode
		tracked bool
	}{
		{"host", cluster.NicReadsOff, false},
		{"nic", cluster.NicReadsClients, false},
		{"host", cluster.NicReadsOff, true},
		{"nic", cluster.NicReadsClients, true},
	}
	for _, n := range []int{4, 8, 16} {
		for _, v := range variants {
			r, hitRate := runTrackingVariant(n, v.mode, v.tracked)
			onOff := "off"
			if v.tracked {
				onOff = "on"
			}
			e.add(n, v.reads, onOff, r.Throughput/1000, hitRate*100, r.Avg.Micros(), r.P99.Micros())
		}
	}
	return e
}

// runTrackingVariant builds one SKV deployment, preloads the keyspace into
// the host store (and, for NIC-served reads, the shadow replica), and
// measures the Zipfian GET closed loop.
func runTrackingVariant(clients int, mode cluster.NicReadMode, tracked bool) (cluster.Result, float64) {
	cfg := cluster.Config{
		Kind: cluster.KindSKV, Slaves: 0, Clients: clients, Seed: 71,
		GetRatio: 1.0, Zipf: true, Tracking: tracked,
		SKV: core.DefaultConfig(), NicReads: mode,
	}
	c, r := run(cfg, func(c *cluster.Cluster) { preload(c.Groups[0], 64, mode == cluster.NicReadsClients) })
	var hits, misses uint64
	for _, cl := range c.Clients {
		st := cl.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return r, hitRate
}
