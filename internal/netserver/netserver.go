// Package netserver serves the SKV storage engine over real TCP sockets
// with the RESP protocol — the non-simulated face of the library. Any RESP
// client (including redis-cli) can talk to it for the implemented command
// set; cmd/skv-server wraps it in a binary and cmd/skv-cli is a matching
// client.
//
// Unlike the simulated server (internal/server), which models CPU costs on
// virtual cores, this server simply executes: one goroutine per connection
// parses commands and a store-wide mutex serializes execution, mirroring
// Redis's single-threaded command semantics.
package netserver

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"skv/internal/rdb"
	"skv/internal/resp"
	"skv/internal/store"
)

// Options configures a network server.
type Options struct {
	// NumDBs is the SELECT-able database count (default 16).
	NumDBs int
	// Seed drives the store's internal randomness (default: time-based).
	Seed int64
	// RDBPath, when non-empty, is loaded at startup (if present) and
	// written by the SAVE command and by Close.
	RDBPath string
	// CronInterval is the active-expiry cycle period (default 100ms).
	CronInterval time.Duration
}

// Server is a live TCP RESP server.
type Server struct {
	opts Options
	st   *store.Store
	mu   sync.Mutex // serializes store access (Redis single-thread semantics)
	ln   net.Listener

	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup

	// Stats. connsMu guards conns and accepted; Served counts the commands
	// the store executed and moves under mu.
	connsMu  sync.Mutex
	conns    map[net.Conn]struct{}
	accepted uint64
	Served   uint64
}

// New creates a server with a fresh store, loading RDBPath if it exists.
func New(opts Options) (*Server, error) {
	if opts.NumDBs == 0 {
		opts.NumDBs = 16
	}
	if opts.Seed == 0 {
		opts.Seed = time.Now().UnixNano()
	}
	if opts.CronInterval == 0 {
		opts.CronInterval = 100 * time.Millisecond
	}
	st := store.New(store.Options{DBs: opts.NumDBs, Seed: opts.Seed, Clock: func() int64 {
		return time.Now().UnixMilli()
	}})
	s := &Server{
		opts:   opts,
		st:     st,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	start := time.Now()
	st.InfoProvider = func() []store.InfoSection {
		s.connsMu.Lock()
		clients, accepted := len(s.conns), s.accepted
		s.connsMu.Unlock()
		// The provider runs inside Exec, i.e. under s.mu — the same lock
		// Served is incremented under.
		served := s.Served
		return []store.InfoSection{
			{Name: "Server", Lines: []string{
				"server_name:skv-netserver",
				fmt.Sprintf("uptime_in_seconds:%d", int64(time.Since(start).Seconds())),
			}},
			{Name: "Clients", Lines: []string{
				fmt.Sprintf("connected_clients:%d", clients),
			}},
			// Standalone: no replication links, but the section must exist so
			// RESP clients issuing INFO replication get an answer, not an
			// unknown-section error.
			{Name: "Replication", Lines: []string{
				"role:master",
				"connected_slaves:0",
				"master_repl_offset:0",
			}},
			{Name: "Stats", Lines: []string{
				fmt.Sprintf("total_connections_received:%d", accepted),
				fmt.Sprintf("total_commands_processed:%d", served),
				fmt.Sprintf("dirty:%d", st.Dirty),
			}},
		}
	}
	if opts.RDBPath != "" {
		if data, err := os.ReadFile(opts.RDBPath); err == nil {
			if err := rdb.Load(st, data); err != nil {
				return nil, fmt.Errorf("netserver: loading %s: %w", opts.RDBPath, err)
			}
		}
	}
	return s, nil
}

// Store exposes the underlying keyspace (for embedding and tests).
func (s *Server) Store() *store.Store { return s.st }

// Serve accepts connections on ln until Close. It owns the listener.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.wg.Add(1)
	go s.cron()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.connsMu.Lock()
		s.conns[conn] = struct{}{}
		s.accepted++
		s.connsMu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("host:port") and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound address (after Serve starts).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the server, waits for handlers, and persists to RDBPath.
func (s *Server) Close() error {
	var err error
	s.closeOne.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.connsMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connsMu.Unlock()
		s.wg.Wait()
		if s.opts.RDBPath != "" {
			if werr := s.save(); werr != nil && err == nil {
				err = werr
			}
		}
	})
	return err
}

// cron runs the active expiry cycle.
func (s *Server) cron() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CronInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			s.mu.Lock()
			s.st.ActiveExpireCycle(20)
			s.st.RehashStep(100)
			s.mu.Unlock()
		}
	}
}

// save writes an RDB snapshot to RDBPath atomically.
func (s *Server) save() error {
	s.mu.Lock()
	data := rdb.Dump(s.st)
	s.mu.Unlock()
	tmp := s.opts.RDBPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.opts.RDBPath)
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connsMu.Lock()
		delete(s.conns, conn)
		s.connsMu.Unlock()
		conn.Close()
	}()

	var ss session
	buf := make([]byte, 16<<10)
	out := bufio.NewWriter(conn)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if s.serve(&ss, buf[:n], out) {
				out.Flush()
				return
			}
			if out.Buffered() > 0 {
				if err := out.Flush(); err != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// session is one connection's command loop: the query reader, the argv
// header each command is borrowed into, the reply scratch and the selected
// database. A command executes, and its reply is written out, before the
// next one is read, so neither buffer is ever copied and a pipelined GET or
// SET allocates nothing.
type session struct {
	reader resp.Reader
	argv   [][]byte
	reply  []byte
	db     int
}

// serve executes every complete command in data, writing the replies to out.
// done reports that the connection must close: after QUIT, or after a
// protocol error, which is answered first.
func (s *Server) serve(ss *session, data []byte, out *bufio.Writer) (done bool) {
	ss.reader.Feed(data)
	for {
		var complete bool
		var err error
		ss.argv, complete, err = ss.reader.BorrowCommand(ss.argv) // argv keeps its capacity even when nothing is complete
		if err != nil {
			out.Write(resp.AppendError(nil, "ERR Protocol error"))
			return true
		}
		if !complete {
			return false
		}
		var quit bool
		ss.reply, ss.db, quit = s.execute(ss.reply[:0], ss.db, ss.argv)
		out.Write(ss.reply)
		if quit {
			return true
		}
	}
}

// execute runs one command, handling the connection-level commands SELECT,
// SAVE and QUIT here and everything else in the store, and appends its reply
// to dst. The command is resolved once; the store dispatches on the
// descriptor.
func (s *Server) execute(dst []byte, db int, argv [][]byte) (reply []byte, newDB int, quit bool) {
	cmd := store.LookupCommand(argv[0])
	// quit, save and bgsave belong to the connection, not to the command
	// table, so they are matched by name; select is in the table.
	switch {
	case cmd == nil && resp.IsWord(argv[0], "quit"):
		return resp.AppendSimple(dst, "OK"), db, true
	case cmd == nil && (resp.IsWord(argv[0], "save") || resp.IsWord(argv[0], "bgsave")):
		if s.opts.RDBPath == "" {
			return resp.AppendError(dst, "ERR no RDB path configured"), db, false
		}
		if err := s.save(); err != nil {
			return resp.AppendError(dst, "ERR saving: "+err.Error()), db, false
		}
		return resp.AppendSimple(dst, "OK"), db, false
	case cmd != nil && cmd.Name == "select":
		newDB, reply = s.st.Select(db, argv)
		return append(dst, reply...), newDB, false
	}
	s.mu.Lock()
	reply, _ = s.st.DispatchAppend(dst, cmd, db, argv)
	s.Served++
	s.mu.Unlock()
	return reply, db, false
}
