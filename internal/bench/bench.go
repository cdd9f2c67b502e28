// Package bench regenerates every figure of the paper's evaluation
// (§II-A Fig 3, §III-C Fig 7, §V Figs 10–14) plus the ablations DESIGN.md
// calls out. Each experiment returns a table whose rows mirror the series
// the paper plots; EXPERIMENTS.md records the paper-vs-measured comparison.
package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"skv/internal/cluster"
	"skv/internal/core"
	"skv/internal/fabric"
	"skv/internal/model"
	"skv/internal/rdma"
	"skv/internal/sim"
	"skv/internal/stats"
)

// Experiment is one reproduced figure: a titled table whose cells hold the
// measured numbers themselves. String renders them for people; Value and the
// root BenchmarkExperiment read the same cells at full precision.
type Experiment struct {
	ID    string
	Title string
	Cols  []Col
	Rows  [][]Cell
	Notes []string
}

// Col is one table column. A column without Fmt holds text only.
type Col struct {
	Name string
	Fmt  string // renders a numeric cell, e.g. "%.1f" or "%+.1f%%"
	Key  bool   // the column identifies its row (clients, shards, path)
}

// Cell is one table entry: a number, rendered with its column's Fmt, or a
// text cell printed as is. Text cells are row labels, per-core lists and
// placeholders such as "-" in a numeric column.
type Cell struct {
	V    float64
	Text string
}

// Numeric reports whether cell, in column c, is a number rather than text.
func (c Col) Numeric(cell Cell) bool { return c.Fmt != "" && cell.Text == "" }

// keyCol and numCol declare a key column and a measured column; a text column
// is a bare Col{Name: ...}.
func keyCol(name, format string) Col { return Col{Name: name, Fmt: format, Key: true} }
func numCol(name, format string) Col { return Col{Name: name, Fmt: format} }

func (c Col) render(cell Cell) string {
	if !c.Numeric(cell) {
		return cell.Text
	}
	return fmt.Sprintf(c.Fmt, cell.V)
}

// add appends one row, a value per column: a string is a text cell, any
// integer or float64 a number.
func (e *Experiment) add(vals ...any) {
	if len(vals) != len(e.Cols) {
		panic(fmt.Sprintf("bench: %s row has %d cells for %d columns", e.ID, len(vals), len(e.Cols)))
	}
	row := make([]Cell, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case string:
			if v == "" && e.Cols[i].Fmt != "" {
				panic(fmt.Sprintf("bench: %s: empty text in numeric column %q", e.ID, e.Cols[i].Name))
			}
			row[i].Text = v
		case float64:
			row[i].V = v
		case int:
			row[i].V = float64(v)
		case int64:
			row[i].V = float64(v)
		case uint64:
			row[i].V = float64(v)
		default:
			panic(fmt.Sprintf("bench: %s: cell of type %T", e.ID, v))
		}
	}
	e.Rows = append(e.Rows, row)
}

// RowKey renders row i's key cells, in column order.
func (e *Experiment) RowKey(i int) []string {
	var key []string
	for j, c := range e.Cols {
		if c.Key {
			key = append(key, c.render(e.Rows[i][j]))
		}
	}
	return key
}

// Value returns the number in column col of the row whose key cells render
// as key. It panics when there is no such numeric cell.
func (e *Experiment) Value(col string, key ...string) float64 {
	if j := slices.IndexFunc(e.Cols, func(c Col) bool { return c.Name == col }); j >= 0 {
		for i, row := range e.Rows {
			if slices.Equal(e.RowKey(i), key) && e.Cols[j].Numeric(row[j]) {
				return row[j].V
			}
		}
	}
	panic(fmt.Sprintf("bench: %s has no number in column %q at key %q", e.ID, col, key))
}

// String renders the experiment as an aligned text table.
func (e *Experiment) String() string {
	text := [][]string{make([]string, len(e.Cols))}
	for i, c := range e.Cols {
		text[0][i] = c.Name
	}
	for _, row := range e.Rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = e.Cols[i].render(cell)
		}
		text = append(text, cells)
	}
	widths := make([]int, len(e.Cols))
	for _, cells := range text {
		for i, s := range cells {
			widths[i] = max(widths[i], len(s))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", e.ID, e.Title)
	for _, cells := range text {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	for _, n := range e.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Standard measurement windows (virtual time). Vars, not consts: smoke mode
// shrinks them so CI can exercise every experiment end-to-end in seconds.
var (
	warmup  = 50 * sim.Millisecond
	measure = 300 * sim.Millisecond
	smoke   bool
)

// SetSmoke switches the package into smoke mode: tiny measurement windows
// and shortened failure-scenario horizons (with a proportionally faster
// failure detector, so the timeline experiments still see their events).
// The numbers that come out are statistically meaningless — smoke mode
// exists to prove in CI that every experiment builds its cluster, runs, and
// renders, not to regenerate the figures.
func SetSmoke() {
	smoke = true
	warmup = 5 * sim.Millisecond
	measure = 25 * sim.Millisecond
}

// run is the one build → sync → measure sequence of every experiment. prep,
// when given, sees the synced cluster before the measurement starts the
// clients: it preloads a keyspace, snapshots a counter, schedules a migration.
func run(cfg cluster.Config, prep ...func(*cluster.Cluster)) (*cluster.Cluster, cluster.Result) {
	c := cluster.Build(cfg)
	if !c.AwaitReplication(5 * sim.Second) {
		panic(fmt.Sprintf("bench: replication never converged for %+v", cfg))
	}
	for _, f := range prep {
		f(c)
	}
	return c, c.Measure(warmup, measure)
}

// Fig3 measures RDMA WRITE latency for the three paths of the paper's
// Fig 3: between two hosts, from the remote host to the SmartNIC, and from
// the local host to the SmartNIC.
func Fig3() *Experiment {
	sizes := []int{8, 64, 256, 1024, 4096}
	e := &Experiment{
		ID:    "fig3",
		Title: "RDMA WRITE latency (µs) — the off-path SmartNIC looks like a separate endpoint",
		Cols:  []Col{keyCol("path", "")},
		Notes: []string{
			"paper: host→local SmartNIC is only a little lower than host↔host; remote→SmartNIC slightly higher",
		},
	}
	for _, size := range sizes {
		e.Cols = append(e.Cols, numCol(strconv.Itoa(size)+"B", "%.1f"))
	}

	paths := []struct {
		name string
		src  func(a, b *fabric.Machine) *fabric.Endpoint
		dst  func(a, b *fabric.Machine) *fabric.Endpoint
	}{
		{"host ↔ host", func(a, b *fabric.Machine) *fabric.Endpoint { return b.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.Host }},
		{"remote host → SmartNIC", func(a, b *fabric.Machine) *fabric.Endpoint { return b.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.NIC }},
		{"local host → SmartNIC", func(a, b *fabric.Machine) *fabric.Endpoint { return a.Host },
			func(a, b *fabric.Machine) *fabric.Endpoint { return a.NIC }},
	}

	for _, path := range paths {
		row := []any{path.name}
		for _, size := range sizes {
			row = append(row, writeLatency(path.src, path.dst, size).Micros())
		}
		e.add(row...)
	}
	return e
}

// writeLatency measures mean one-way WRITE_WITH_IMM latency (post → remote
// completion) over 100 operations, ib_write_lat style with CQ polling.
func writeLatency(srcSel, dstSel func(a, b *fabric.Machine) *fabric.Endpoint, size int) sim.Duration {
	p := model.Default()
	eng := sim.New(31)
	net := fabric.New(eng, &p)
	a := net.NewMachine("a", true)
	b := net.NewMachine("b", false)
	src, dst := srcSel(a, b), dstSel(a, b)

	speed := func(ep *fabric.Endpoint) float64 {
		if ep.Kind() == fabric.KindNIC {
			return p.NICCoreSpeed
		}
		return p.HostCoreSpeed
	}
	sdev := rdma.NewDevice(net, src, sim.NewCore(eng, "s", speed(src)))
	ddev := rdma.NewDevice(net, dst, sim.NewCore(eng, "d", speed(dst)))

	var qp *rdma.QP
	var peer *rdma.QP
	ddev.Listen(1, func(q *rdma.QP) { peer = q })
	sdev.Connect(dst, 1, nil, nil, func(q *rdma.QP, err error) {
		if err != nil {
			panic(err)
		}
		qp = q
	})
	eng.Run(0)
	mr := ddev.AllocPD().RegisterMR(size + 64)

	const iters = 100
	var total sim.Duration
	done := 0
	var postAt sim.Time
	var post func()
	peer.RecvCQ.OnNotify(func() {
		peer.RecvCQ.Poll(0)
		total += eng.Now().Sub(postAt)
		done++
		if done < iters {
			post()
		}
	})
	peer.RecvCQ.RequestNotify()
	post = func() {
		peer.PostRecv(rdma.RecvWR{})
		peer.RecvCQ.RequestNotify()
		postAt = eng.Now()
		_ = qp.PostSend(rdma.SendWR{
			Op: rdma.OpWriteImm, Data: make([]byte, size),
			RemoteKey: mr.RKey(), RemoteOff: 0, Imm: uint32(size),
		})
	}
	eng.After(0, post)
	eng.Run(0)
	return total / iters
}

// Fig7 reproduces the motivating measurement: RDMA-Redis SET performance
// with 0 vs 3 slaves (§III-C Fig 7: tail latency grows by more than 25%).
func Fig7() *Experiment {
	e := &Experiment{
		ID:    "fig7",
		Title: "RDMA-Redis SET degradation with 3 slaves (8 clients)",
		Cols:  []Col{keyCol("slaves", "%.0f"), numCol("tput kops/s", "%.1f"), numCol("avg µs", "%.1f"), numCol("p99 µs", "%.1f")},
		Notes: []string{"paper: with 3 slaves, p99 grows by more than 25%, throughput drops significantly"},
	}
	for _, slaves := range []int{0, 3} {
		_, r := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: slaves, Clients: 8, Seed: 41})
		e.add(slaves, r.Throughput/1000, r.Avg.Micros(), r.P99.Micros())
	}
	return e
}

var fig10Clients = []int{1, 2, 4, 8, 16, 32}

// Fig10a reproduces throughput vs concurrency for original Redis and
// RDMA-Redis (no slaves, SET).
func Fig10a() *Experiment {
	e := &Experiment{
		ID:    "fig10a",
		Title: "SET throughput vs concurrent clients (kops/s), no slaves",
		Cols:  []Col{keyCol("clients", "%.0f"), numCol("redis", "%.1f"), numCol("rdma-redis", "%.1f")},
		Notes: []string{
			"paper: Redis saturates ≈130 kops/s by ~2 clients; RDMA-Redis exceeds 330 kops/s",
		},
	}
	for _, n := range fig10Clients {
		_, rt := run(cluster.Config{Kind: cluster.KindTCP, Slaves: 0, Clients: n, Seed: 42})
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 0, Clients: n, Seed: 42})
		e.add(n, rt.Throughput/1000, rr.Throughput/1000)
	}
	return e
}

// Fig10b reproduces p99 latency vs concurrency for the same sweep.
func Fig10b() *Experiment {
	e := &Experiment{
		ID:    "fig10b",
		Title: "SET p99 latency vs concurrent clients (µs), no slaves",
		Cols:  []Col{keyCol("clients", "%.0f"), numCol("redis", "%.1f"), numCol("rdma-redis", "%.1f")},
		Notes: []string{
			"paper: similar at low concurrency; Redis ≈2× RDMA-Redis at high concurrency",
		},
	}
	for _, n := range fig10Clients {
		_, rt := run(cluster.Config{Kind: cluster.KindTCP, Slaves: 0, Clients: n, Seed: 43})
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 0, Clients: n, Seed: 43})
		e.add(n, rt.P99.Micros(), rr.P99.Micros())
	}
	return e
}

// Fig11 is the headline experiment: SKV vs RDMA-Redis executing SETs with
// 1 master + 3 slaves at 4/8/16 clients.
func Fig11() *Experiment {
	e := &Experiment{
		ID:    "fig11",
		Title: "SET with 3 slaves: SKV vs RDMA-Redis",
		Cols: []Col{keyCol("clients", "%.0f"),
			numCol("rdma tput", "%.1f"), numCol("skv tput", "%.1f"), numCol("tput gain", "%+.1f%%"),
			numCol("rdma avg µs", "%.1f"), numCol("skv avg µs", "%.1f"),
			numCol("rdma p99 µs", "%.1f"), numCol("skv p99 µs", "%.1f"), numCol("p99 cut", "%+.1f%%")},
		Notes: []string{
			"paper @8 clients: throughput +14%, average latency −14%, tail latency −21%",
		},
	}
	for _, n := range []int{4, 8, 16} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: n, Seed: 44})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: n, Seed: 44, SKV: core.DefaultConfig()})
		e.add(n,
			rr.Throughput/1000, rs.Throughput/1000, (rs.Throughput/rr.Throughput-1)*100,
			rr.Avg.Micros(), rs.Avg.Micros(),
			rr.P99.Micros(), rs.P99.Micros(), (rs.P99.Micros()/rr.P99.Micros()-1)*100)
	}
	return e
}

// Fig12 sweeps the value size (SET, 8 clients, 3 slaves).
func Fig12() *Experiment {
	e := &Experiment{
		ID:    "fig12",
		Title: "SET throughput vs value size (kops/s), 8 clients, 3 slaves",
		Cols:  []Col{keyCol("value", "%.0fB"), numCol("rdma-redis", "%.1f"), numCol("skv", "%.1f")},
		Notes: []string{"paper: SKV above RDMA-Redis at every value size"},
	}
	for _, size := range []int{64, 256, 1024, 4096, 16384} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: 8, Seed: 45, ValueSize: size})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 45, ValueSize: size, SKV: core.DefaultConfig()})
		e.add(size, rr.Throughput/1000, rs.Throughput/1000)
	}
	return e
}

// Fig13 runs the GET workload: the offload cannot help reads.
func Fig13() *Experiment {
	e := &Experiment{
		ID:    "fig13",
		Title: "GET with 3 slaves: SKV vs RDMA-Redis",
		Cols: []Col{keyCol("clients", "%.0f"), numCol("rdma tput", "%.1f"), numCol("skv tput", "%.1f"),
			numCol("rdma p99 µs", "%.1f"), numCol("skv p99 µs", "%.1f")},
		Notes: []string{
			"paper: no difference — GETs are never replicated, both ≈340 kops/s at 8/16 clients",
		},
	}
	for _, n := range []int{4, 8, 16} {
		_, rr := run(cluster.Config{Kind: cluster.KindRDMA, Slaves: 3, Clients: n, Seed: 46, GetRatio: 1.0})
		_, rs := run(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: n, Seed: 46, GetRatio: 1.0, SKV: core.DefaultConfig()})
		e.add(n, rr.Throughput/1000, rs.Throughput/1000, rr.P99.Micros(), rs.P99.Micros())
	}
	return e
}

// Fig14 reproduces the availability experiment: a slave's Host-KV crashes
// under SET load; Nic-KV detects it via probes, replication continues to
// the surviving slaves, the client never notices; the slave later recovers
// and is folded back in.
func Fig14() *Experiment {
	e := &Experiment{
		ID:    "fig14",
		Title: "Throughput during slave failure (SKV, 8 clients, 3 slaves)",
		Cols:  []Col{keyCol("t (s)", "%.1f"), numCol("tput kops/s", "%.1f"), numCol("valid slaves", "%.0f"), {Name: "event"}},
		Notes: []string{
			"paper: crash detected at ~4s, recovery at ~9s, throughput stays above 300 kops/s, client unaware",
		},
	}
	horizon := 12 * sim.Second
	crashAfter := 1500 * sim.Millisecond
	recoverAfter := 6500 * sim.Millisecond
	var p *model.Params
	if smoke {
		// Shrink the outage script and speed the detector up to match, so
		// the crash/detect/recover transitions still happen on the short
		// horizon.
		horizon, crashAfter, recoverAfter = 3*sim.Second, 500*sim.Millisecond, 1500*sim.Millisecond
		pp := model.Default()
		pp.ProbePeriod = 100 * sim.Millisecond
		pp.WaitingTime = 300 * sim.Millisecond
		p = &pp
	}
	c := cluster.Build(cluster.Config{Kind: cluster.KindSKV, Slaves: 3, Clients: 8, Seed: 47, Params: p, SKV: core.DefaultConfig()})
	if !c.AwaitReplication(5 * sim.Second) {
		panic("fig14: replication never converged")
	}
	series := stats.NewTimeSeries(500 * sim.Millisecond)
	for _, cl := range c.Clients {
		cl.SetSeries(series)
	}
	c.StartClients()
	base := c.Eng.Now()
	crashAt := base.Add(crashAfter)
	recoverAt := base.Add(recoverAfter)
	g := c.Groups[0]
	c.Eng.At(crashAt, func() { g.Slaves[1].Crash() })
	c.Eng.At(recoverAt, func() { g.Slaves[1].Recover() })

	// Sample the valid-slave count every 500ms.
	type sample struct {
		t     sim.Time
		valid int
	}
	var samples []sample
	for off := sim.Duration(0); off < horizon; off += 500 * sim.Millisecond {
		off := off
		c.Eng.At(base.Add(off), func() {
			samples = append(samples, sample{c.Eng.Now(), g.NicKV.ValidSlaves()})
		})
	}
	c.Eng.Run(base.Add(horizon))
	var errs uint64
	for _, cl := range c.Clients {
		errs += cl.Stats().ErrReplies
	}

	rates := series.Rates()
	for i, s := range samples {
		rate := 0.0
		bucket := int(sim.Duration(s.t) / series.Interval())
		if bucket < len(rates) {
			rate = rates[bucket]
		}
		event := ""
		switch {
		case s.t <= crashAt && crashAt < s.t.Add(500*sim.Millisecond):
			event = "slave1 Host-KV crashes"
		case i > 0 && samples[i-1].valid == 3 && s.valid == 2:
			event = "Nic-KV detects the failure (invalid flag set)"
		case s.t <= recoverAt && recoverAt < s.t.Add(500*sim.Millisecond):
			event = "slave1 recovers"
		case i > 0 && samples[i-1].valid == 2 && s.valid == 3:
			event = "Nic-KV removes the invalid flag"
		}
		e.add(sim.Duration(s.t-base).Seconds(), rate/1000, s.valid, event)
	}
	e.Notes = append(e.Notes, fmt.Sprintf("client error replies during the whole run: %d", errs))
	return e
}
