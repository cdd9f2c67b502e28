package netserver

import (
	"io"
	"net"
	"path/filepath"
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, err := c.reader.ReadValue()
		if err != nil {
			c.t.Fatalf("protocol error: %v", err)
		}
		if ok {
			return v
		}
		c.conn.SetReadDeadline(deadline)
		n, err := c.conn.Read(c.buf)
		if err != nil {
			c.t.Fatalf("read: %v", err)
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
