package netserver

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"skv/internal/resp"
)

// testClient is a minimal synchronous RESP client for the tests.
type testClient struct {
	conn   net.Conn
	reader resp.Reader
	buf    []byte
	t      *testing.T
}

func startServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func dial(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{conn: conn, buf: make([]byte, 4096), t: t}
}

func (c *testClient) do(argv ...string) resp.Value {
	c.t.Helper()
	if _, err := c.conn.Write(resp.EncodeCommand(argv...)); err != nil {
		c.t.Fatal(err)
	}
	v, err := c.next()
	if err != nil {
		c.t.Fatal(err)
	}
	return v
}

// next reads one reply; unlike do it reports failure instead of ending the
// test, so goroutines other than the test's own can use it.
func (c *testClient) next() (resp.Value, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := c.reader.ReadValue()
		if err != nil {
			return v, fmt.Errorf("protocol error: %w", err)
		}
		if ok {
			return v, nil
		}
		c.conn.SetReadDeadline(deadline)
		n, err := c.conn.Read(c.buf)
		if err != nil {
			return v, fmt.Errorf("read: %w", err)
		}
		c.reader.Feed(c.buf[:n])
	}
}

func TestBasicCommandsOverTCP(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 1})
	c := dial(t, addr)
	if v := c.do("PING"); v.String() != "PONG" {
		t.Fatalf("PING = %s", v.String())
	}
	if v := c.do("SET", "greeting", "hello world"); !v.IsOK() {
		t.Fatalf("SET = %s", v.String())
	}
	if v := c.do("GET", "greeting"); v.String() != "hello world" {
		t.Fatalf("GET = %s", v.String())
	}
	if v := c.do("LPUSH", "l", "a", "b"); v.Int != 2 {
		t.Fatalf("LPUSH = %s", v.String())
	}
	if v := c.do("LRANGE", "l", "0", "-1"); v.String() != "[b a]" {
		t.Fatalf("LRANGE = %s", v.String())
	}
	if v := c.do("NOSUCH"); !v.IsError() {
		t.Fatal("unknown command accepted")
	}
}

// TestInfoCountsConnectionsAndCommands: INFO's Stats section reports accepted
// connections and executed commands as two numbers under their own names.
// The commands figure used to be printed as total_connections_received.
func TestInfoCountsConnectionsAndCommands(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 1})
	dial(t, addr).do("PING")
	c := dial(t, addr)
	const n = 25
	for i := 0; i < n; i++ {
		c.do("SET", "k", "v")
	}
	// Two connections; the first one's PING, the SETs, and not yet this INFO.
	info := c.do("INFO", "stats").String()
	for _, want := range []string{"total_connections_received:2\r\n", fmt.Sprintf("total_commands_processed:%d\r\n", n+1)} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO stats lacks %q:\n%s", want, info)
		}
	}
}

func TestSelectIsolation(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 2})
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	c1.do("SET", "k", "db0")
	c2.do("SELECT", "1")
	c2.do("SET", "k", "db1")
	if v := c1.do("GET", "k"); v.String() != "db0" {
		t.Fatalf("db0 view: %s", v.String())
	}
	if v := c2.do("GET", "k"); v.String() != "db1" {
		t.Fatalf("db1 view: %s", v.String())
	}
}

func TestConcurrentClients(t *testing.T) {
	s, addr := startServer(t, Options{Seed: 3})
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			c := &testClient{conn: conn, buf: make([]byte, 4096), t: t}
			for i := 0; i < perWorker; i++ {
				key := "k" + string(rune('a'+w))
				if v := c.do("INCR", key); v.Type != resp.TypeInteger {
					t.Errorf("INCR reply %s", v.String())
					return
				}
			}
			if v := c.do("GET", "k"+string(rune('a'+w))); v.String() != "200" {
				t.Errorf("worker %d counter = %s, want 200", w, v.String())
			}
		}()
	}
	wg.Wait()
	if s.Served < workers*perWorker {
		t.Fatalf("served %d < %d", s.Served, workers*perWorker)
	}
}

// wholeValue reports whether v is something the writers of
// TestOverlappingWritersNeverTearValues could have stored: one SET payload —
// a single letter repeated 16, 40 or 64 times — followed by any number of
// APPEND payloads, each a single digit repeated 8 times. A value caught
// half-rewritten mixes two letters in the first run or breaks a run short.
func wholeValue(v []byte) bool {
	run := func(b []byte) int {
		n := 1
		for n < len(b) && b[n] == b[0] {
			n++
		}
		return n
	}
	if len(v) == 0 || v[0] < 'a' || v[0] > 'z' {
		return false
	}
	n := run(v)
	if n != 16 && n != 40 && n != 64 {
		return false
	}
	for v = v[n:]; len(v) > 0; v = v[8:] {
		// Two appends of the same digit make one 16-byte run: check 8 at a time.
		if v[0] < '0' || v[0] > '9' || len(v) < 8 || run(v[:8]) != 8 {
			return false
		}
	}
	return true
}

// TestOverlappingWritersNeverTearValues: values are rewritten in place and
// each handler's argv aliases its own read buffer, all of it under the store
// mutex — so with eight connections pipelining SET, APPEND and GET over four
// keys, every GET must return a value some connection wrote whole, and the
// race detector must stay quiet.
func TestOverlappingWritersNeverTearValues(t *testing.T) {
	a16 := strings.Repeat("a", 16)
	for v, want := range map[string]bool{
		a16: true, a16 + "11111111": true, a16 + "1111111122222222": true,
		a16[:8] + "bbbbbbbb": false, a16 + "1111": false, a16 + "11112222": false, "": false,
	} {
		if wholeValue([]byte(v)) != want {
			t.Fatalf("wholeValue(%q) = %t", v, !want)
		}
	}
	_, addr := startServer(t, Options{Seed: 9})
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			c := &testClient{conn: conn, buf: make([]byte, 4096), t: t}
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("shared:%d", (w+i)%4)
				value := strings.Repeat(string(rune('a'+(w*7+i)%26)), []int{16, 40, 64}[(w+i)%3])
				tail := strings.Repeat(string(rune('0'+(w+i)%10)), 8)
				var batch []byte
				batch = append(batch, resp.EncodeCommand("SET", key, value)...)
				batch = append(batch, resp.EncodeCommand("APPEND", key, tail)...)
				batch = append(batch, resp.EncodeCommand("GET", key)...)
				if _, err := conn.Write(batch); err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < 3; r++ {
					v, err := c.next()
					if err != nil {
						t.Error(err)
						return
					}
					if r == 2 && (v.Type != resp.TypeBulk || !wholeValue(v.Str)) {
						t.Errorf("worker %d round %d: GET %s = %q, not a value anyone wrote", w, i, key, v.Str)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.rdb")
	s1, addr := startServer(t, Options{Seed: 4, RDBPath: path})
	c := dial(t, addr)
	c.do("SET", "durable", "yes")
	c.do("HSET", "h", "f", "v")
	if v := c.do("SAVE"); !v.IsOK() {
		t.Fatalf("SAVE = %s", v.String())
	}
	s1.Close()

	_, addr2 := startServer(t, Options{Seed: 5, RDBPath: path})
	c2 := dial(t, addr2)
	if v := c2.do("GET", "durable"); v.String() != "yes" {
		t.Fatalf("after restart GET = %s", v.String())
	}
	if v := c2.do("HGET", "h", "f"); v.String() != "v" {
		t.Fatalf("after restart HGET = %s", v.String())
	}
}

func TestQuitClosesConnection(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 6})
	c := dial(t, addr)
	if v := c.do("QUIT"); !v.IsOK() {
		t.Fatalf("QUIT = %s", v.String())
	}
	// Subsequent read should hit EOF shortly.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := c.conn.Read(buf); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestExpiryWorksInRealTime(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 7, CronInterval: 10 * time.Millisecond})
	c := dial(t, addr)
	c.do("SET", "temp", "v", "PX", "50")
	if v := c.do("GET", "temp"); v.String() != "v" {
		t.Fatalf("before expiry: %s", v.String())
	}
	time.Sleep(80 * time.Millisecond)
	if v := c.do("GET", "temp"); !v.Null {
		t.Fatalf("after expiry: %s", v.String())
	}
}

func TestPipelinedCommands(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 8})
	c := dial(t, addr)
	// Write three commands in one segment; expect three replies in order.
	var batch []byte
	batch = append(batch, resp.EncodeCommand("SET", "p", "1")...)
	batch = append(batch, resp.EncodeCommand("INCR", "p")...)
	batch = append(batch, resp.EncodeCommand("GET", "p")...)
	if _, err := c.conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	want := []string{"OK", "2", "2"}
	for i := 0; i < 3; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			v, ok, err := c.reader.ReadValue()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if v.String() != want[i] {
					t.Fatalf("pipelined reply %d = %s, want %s", i, v.String(), want[i])
				}
				break
			}
			c.conn.SetReadDeadline(deadline)
			n, err := c.conn.Read(c.buf)
			if err != nil {
				t.Fatal(err)
			}
			c.reader.Feed(c.buf[:n])
		}
	}
}

// TestConnectionCommandsInAnyCase: QUIT, SELECT, SAVE and BGSAVE are matched
// without lower-casing a copy of the name; every letter case must still work.
func TestConnectionCommandsInAnyCase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dump.rdb")
	_, addr := startServer(t, Options{Seed: 9, RDBPath: path})
	for _, tc := range []struct {
		argv []string
		want string
	}{
		{[]string{"select", "1"}, "OK"},
		{[]string{"SELECT", "2"}, "OK"},
		{[]string{"SeLeCt", "99"}, "ERR DB index is out of range"},
		{[]string{"save"}, "OK"},
		{[]string{"SAVE"}, "OK"},
		{[]string{"bgsave"}, "OK"},
		{[]string{"BgSave"}, "OK"},
		{[]string{"saves"}, "ERR unknown command 'saves'"},
		{[]string{"quit"}, "OK"},
		{[]string{"QUIT"}, "OK"},
		{[]string{"qUiT"}, "OK"},
	} {
		c := dial(t, addr)
		if v := c.do(tc.argv...); v.String() != tc.want {
			t.Errorf("%q = %q, want %q", tc.argv, v.String(), tc.want)
		}
	}
	// SELECT really switched the database, whatever its spelling.
	c := dial(t, addr)
	c.do("SET", "k", "db0")
	c.do("sElEcT", "3")
	if v := c.do("GET", "k"); !v.Null {
		t.Fatalf("GET after sElEcT 3 = %q, want nil: the database did not switch", v.String())
	}
}

// TestMalformedLengthsCloseOnlyTheOffender: announced lengths that used to
// panic the decoder — and with it the whole process, since connection
// handlers do not recover — get a protocol error and a closed connection,
// and the next client is served as if nothing happened.
func TestMalformedLengthsCloseOnlyTheOffender(t *testing.T) {
	_, addr := startServer(t, Options{Seed: 10})
	for _, in := range []string{
		"*1\r\n$9223372036854775807\r\n",
		"*9223372036854775807\r\n",
		"*100000000\r\n",
	} {
		c := dial(t, addr)
		if _, err := c.conn.Write([]byte(in)); err != nil {
			t.Fatal(err)
		}
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(c.conn)
		if err != nil {
			t.Fatalf("%q: connection not closed by the server: %v", in, err)
		}
		if string(got) != "-ERR Protocol error\r\n" {
			t.Errorf("%q: server answered %q", in, got)
		}
		if v := dial(t, addr).do("PING"); v.String() != "PONG" {
			t.Fatalf("after %q the next connection got %q", in, v.String())
		}
	}
}

// TestPipelinedLoopAllocations: a connection's command loop serves a
// pipelined batch of GETs and same-size SETs of live keys without
// allocating: each command is borrowed from the query buffer and each reply
// appended to the connection's scratch before the writer copies it.
func TestPipelinedLoopAllocations(t *testing.T) {
	s, err := New(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	value := strings.Repeat("v", 64)
	var batch []byte
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key:%010d", i)
		s.Store().Exec(0, [][]byte{[]byte("SET"), []byte(key), []byte(value)})
		batch = append(batch, resp.EncodeCommand("SET", key, value)...)
		batch = append(batch, resp.EncodeCommand("GET", key)...)
	}
	var ss session
	var replies strings.Builder
	out := bufio.NewWriter(&replies)
	if s.serve(&ss, batch, out) {
		t.Fatal("the batch closed the connection")
	}
	out.Flush()
	if want := strings.Repeat("+OK\r\n$64\r\n"+value+"\r\n", 8); replies.String() != want {
		t.Fatalf("replies %q, want %q", replies.String(), want)
	}
	out.Reset(io.Discard)
	if n := testing.AllocsPerRun(200, func() { s.serve(&ss, batch, out) }); n != 0 {
		t.Fatalf("a pipelined batch of 8 SETs and 8 GETs allocated %.1f times, want 0", n)
	}
}
