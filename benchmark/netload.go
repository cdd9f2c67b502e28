package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"skv/internal/netserver"
	"skv/internal/resp"
	"skv/internal/workload"
)

// net-loopback drives the real server over 127.0.0.1: one connection with
// 16 commands in flight, so the client goroutine and the server's handler
// goroutine are the box's two cores (a second connection oversubscribes it
// and p99 becomes the scheduler's).
const (
	netDepth   = 16
	netBatches = 2048 // distinct pre-encoded batches, cycled
)

// netValue is the payload stored under key i. It is a pure function of the
// key, so whatever order SETs and GETs arrive in, every GET has one right
// answer.
func netValue(i int) []byte {
	v := make([]byte, valueSize)
	for j := range v {
		v[j] = 'A' + byte((i+j)%26)
	}
	return v
}

// netBatch is one pipelined request and the exact bytes the server must
// answer with.
type netBatch struct {
	req, want []byte
	ops       int
}

// buildBatches pre-encodes the request stream (50% GET / 50% SET, uniform
// keys) so that inside the timed window the generator costs one write, one
// read and one compare per batch.
func buildBatches(seed int64, n, depth int) []netBatch {
	rnd := rand.New(rand.NewSource(seed))
	batches := make([]netBatch, n)
	for b := range batches {
		for c := 0; c < depth; c++ {
			i := rnd.Intn(keySpace)
			key, val := []byte(kvKey(i)), netValue(i)
			if rnd.Intn(2) == 0 {
				batches[b].req = append(batches[b].req, resp.EncodeCommandBytes([]byte("SET"), key, val)...)
				batches[b].want = resp.AppendSimple(batches[b].want, "OK")
			} else {
				batches[b].req = append(batches[b].req, resp.EncodeCommandBytes([]byte("GET"), key)...)
				batches[b].want = resp.AppendBulk(batches[b].want, val)
			}
		}
		batches[b].ops = depth
	}
	return batches
}

// netClient is the closed-loop load generator: send a batch, read exactly
// the bytes the right answer has, compare.
type netClient struct {
	conn    net.Conn
	batches []netBatch
	next    int
	buf     []byte
}

func newNetClient(conn net.Conn, batches []netBatch) *netClient {
	longest := 0
	for _, b := range batches {
		longest = max(longest, len(b.want))
	}
	return &netClient{conn: conn, batches: batches, buf: make([]byte, longest)}
}

// drive runs batches until maxBatches have completed (if > 0) or dur has
// passed, returning ops completed, ops whose reply was wrong, and each
// batch's round trip. An op's latency is its batch's round trip.
func (c *netClient) drive(dur time.Duration, maxBatches int) (ops, failed uint64, rtts []float64, err error) {
	rtts = make([]float64, 0, 1<<16)
	start := time.Now()
	if err := c.conn.SetDeadline(start.Add(dur + 30*time.Second)); err != nil {
		return 0, 0, nil, err
	}
	for n := 0; maxBatches == 0 || n < maxBatches; n++ {
		t := time.Now()
		if maxBatches == 0 && t.Sub(start) >= dur {
			break
		}
		b := &c.batches[c.next%len(c.batches)]
		c.next++
		if _, err := c.conn.Write(b.req); err != nil {
			return ops, failed + uint64(b.ops), rtts, fmt.Errorf("net client: write: %w", err)
		}
		got := c.buf[:len(b.want)]
		if _, err := io.ReadFull(c.conn, got); err != nil {
			return ops, failed + uint64(b.ops), rtts, fmt.Errorf("net client: read: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t).Nanoseconds())/1e3)
		ops += uint64(b.ops)
		if !bytes.Equal(got, b.want) {
			failed += uint64(b.ops)
		}
	}
	return ops, failed, rtts, nil
}

func netWindows(o options) (warmBatches int, window time.Duration) {
	if o.smoke {
		return 50, 50 * time.Millisecond
	}
	return 2000, time.Second
}

// startServer brings up a fresh netserver on a loopback port with every
// key preloaded, and returns the connection to it and a stop function that
// closes both and waits for the server's goroutines.
func startServer(o options, tr *tracer) (net.Conn, func() error, error) {
	sp := tr.begin("listen")
	srv, err := netserver.New(netserver.Options{Seed: 2*o.seed + 1}) // odd: 0 would mean "seed from the clock"
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	tr.end(sp, nil)

	// Preload before Serve starts the cron goroutine: the store is not yet
	// shared, so no lock is needed.
	sp = tr.begin("preload")
	for i := 0; i < keySpace; i++ {
		srv.Store().Exec(0, [][]byte{[]byte("SET"), []byte(kvKey(i)), netValue(i)})
	}
	tr.end(sp, nil)

	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	sp = tr.begin("dial")
	conn, err := net.Dial("tcp", ln.Addr().String())
	tr.end(sp, nil)
	if err != nil {
		_ = srv.Close()
		<-served
		return nil, nil, err
	}
	return conn, func() error {
		conn.Close()
		cerr := srv.Close()
		if serr := <-served; serr != nil {
			return serr
		}
		return cerr
	}, nil
}

// netRep is one repetition: a fresh server, preloaded, one connection.
func netRep(o options, tr *tracer) (r rep, err error) {
	warmBatches, window := netWindows(o)
	runtime.GC()
	t0 := time.Now()
	root := tr.begin("rep")
	conn, stop, err := startServer(o, tr)
	if err != nil {
		return rep{}, err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	sp := tr.begin("encode")
	cl := newNetClient(conn, buildBatches(o.seed, netBatches, netDepth))
	tr.end(sp, nil)

	sp = tr.begin("warmup")
	_, warmFailed, _, err := cl.drive(0, warmBatches)
	tr.end(sp, nil)
	if err != nil {
		return rep{}, err
	}
	setup := time.Since(t0)

	sp = tr.begin("measure")
	ref := refKernel()
	mark := windowStart()
	ops, failed, rtts, err := cl.drive(window, 0)
	host := mark.stop()
	ref = (ref + refKernel()) / 2
	heap := liveHeapMB()
	runtime.KeepAlive(cl) // the request stream is part of the live heap
	tr.end(sp, map[string]float64{"ops": float64(ops), "batches": float64(len(rtts))})
	if err != nil {
		return rep{}, err
	}
	if ops == 0 {
		return rep{}, fmt.Errorf("net-loopback: no operation completed in the window")
	}

	sp = tr.begin("drain+verify")
	r = rep{ops: ops, failed: failed + warmFailed, host: host, heapMB: heap, setupS: setup.Seconds(), ref: ref}
	r.kops = float64(ops) / host.wall.Seconds() / 1e3
	sort.Float64s(rtts)
	r.p50us, r.p99us, r.p999us = percentileSorted(rtts, 50), percentileSorted(rtts, 99), percentileSorted(rtts, 99.9)
	err = verifyNet(conn)
	tr.end(sp, nil)
	tr.end(root, nil)
	return r, err
}

// verifyNet checks through the wire that the keyspace still holds exactly
// the preloaded keys (every GET was already checked against its value).
func verifyNet(conn net.Conn) error {
	want := resp.AppendInt(nil, keySpace)
	if _, err := conn.Write(resp.EncodeCommand("DBSIZE")); err != nil {
		return fmt.Errorf("verify: DBSIZE: %w", err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		return fmt.Errorf("verify: DBSIZE: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("verify: DBSIZE answered %q, want %q", got, want)
	}
	return nil
}

// cannedServer answers each expected batch with its right answer without
// parsing or executing anything: the same client loop against it costs
// what the load generator and the socket round trip cost by themselves.
func cannedServer(ln net.Listener, batches []netBatch, done chan<- error) {
	conn, err := ln.Accept()
	if err != nil {
		done <- err
		return
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for i := 0; ; i++ {
		b := &batches[i%len(batches)]
		if _, err := io.ReadFull(conn, buf[:len(b.req)]); err != nil {
			done <- nil // the client hung up: the normal end
			return
		}
		if _, err := conn.Write(b.want); err != nil {
			done <- err
			return
		}
	}
}

// netLayers assembles the per-layer metrics of net-loopback; the simulator
// layers read 0 because none of them runs here.
func netLayers(o options, traced rep, tr *tracer) (map[string]float64, error) {
	_, window := netWindows(o)
	window /= 2
	m := map[string]float64{"workload.p999_us": traced.p999us, "workload.group_balance": 1}
	m["cluster.build_s"], m["cluster.preload_s"] = tr.seconds("listen"), tr.seconds("preload")
	root := tr.begin("replay")

	sp := tr.begin("replay.client_floor")
	floor, err := clientFloor(o, window)
	tr.end(sp, map[string]float64{"ns_per_op": floor})
	if err != nil {
		return nil, err
	}
	m["netserver.client_floor_ns_per_op"] = floor
	m["netserver.server_ns_per_op"] = nsPerOp(traced) - floor

	// Depth-1 round trip: what an unpipelined client sees.
	sp = tr.begin("replay.d1")
	rtt, err := netDepth1(o, window)
	tr.end(sp, map[string]float64{"rtt_us": rtt})
	if err != nil {
		return nil, err
	}
	m["netserver.d1_rtt_us"] = rtt

	st := newStream(workload.NewGenerator(o.seed+300, keySpace, valueSize, 0.5, false), replayCalls(o))
	parseC, encodeC := replayRespParse(st), replayRespEncode(st)
	setC, getC := replayStore(st, keySpace, st.sets), replayStore(st, keySpace, st.gets)
	tr.end(root, nil)
	m["resp.parse_ns_per_cmd"], m["resp.parse_allocs_per_cmd"] = parseC.ns, parseC.allocs
	m["resp.encode_ns_per_cmd"] = encodeC.ns
	m["store.set_ns"], m["store.allocs_per_set"] = setC.ns, setC.allocs
	m["store.get_ns"], m["store.allocs_per_get"] = getC.ns, getC.allocs
	m["trace.unattributed_ns_per_op"] = nsPerOp(traced) - floor - parseC.ns - (setC.ns+getC.ns)/2
	return m, nil
}

// clientFloor runs the measured client loop against cannedServer and
// reports process CPU per op: the load generator's own cost.
func clientFloor(o options, window time.Duration) (float64, error) {
	batches := buildBatches(o.seed, netBatches, netDepth)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go cannedServer(ln, batches, done)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return 0, err
	}
	mark := windowStart()
	ops, failed, _, err := newNetClient(conn, batches).drive(window, 0)
	host := mark.stop()
	conn.Close()
	ln.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	if err != nil || failed != 0 || ops == 0 {
		return 0, fmt.Errorf("client floor: ops=%d failed=%d err=%v", ops, failed, err)
	}
	return float64(host.cpu.Nanoseconds()) / float64(ops), nil
}

// netDepth1 measures the median round trip of single commands against a
// fresh preloaded server.
func netDepth1(o options, window time.Duration) (float64, error) {
	conn, stop, err := startServer(o, nil)
	if err != nil {
		return 0, err
	}
	_, failed, rtts, err := newNetClient(conn, buildBatches(o.seed, netBatches, 1)).drive(window, 0)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil || failed != 0 {
		return 0, fmt.Errorf("depth-1 probe: failed=%d err=%v", failed, err)
	}
	return median(rtts), nil
}
