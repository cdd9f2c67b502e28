// Package store implements the SKV/Redis keyspace: numbered databases
// mapping keys to typed objects, key expiration (lazy plus an active
// sampling cycle), and the command table covering the string, key, list,
// hash, set, sorted-set and server command families.
//
// The store is transport-agnostic and time-agnostic: the embedding server
// injects a millisecond clock (virtual time inside the simulation, wall
// time in cmd/skv-server), and commands return RESP-encoded replies plus a
// dirty flag that drives replication (paper §III-C: "Host-KV first checks
// whether the command can change the value of the data in the storage").
package store

import (
	"fmt"
	"math/rand"
	"strings"

	"skv/internal/dict"
	"skv/internal/obj"
	"skv/internal/resp"
)

// Clock supplies the current time in milliseconds since an arbitrary epoch.
type Clock func() int64

// DB is one shard slice of one numbered keyspace: the unit a single shard
// core owns exclusively. An unsharded store has exactly one slice per
// database.
type DB struct {
	dict    *dict.Dict // key -> *obj.Object
	expires *dict.Dict // key -> expireAt (ms)
}

// Store is the full multi-database keyspace plus the command dispatcher.
// Internally every numbered database is partitioned into NumShards disjoint
// slices by key hash; with one shard (the default) the layout and every
// RNG draw are bit-for-bit the pre-sharding single-slice store.
type Store struct {
	dbs    [][]*DB // dbs[dbi][shard]
	shards int
	// shardRnd seeds each shard's dict pairs (and their flush-time
	// replacements) independently, so a shard's structures never depend on
	// what other shards did. With shards == 1 it aliases rnd to preserve
	// the legacy draw sequence.
	shardRnd []*rand.Rand
	clock    Clock
	rnd      *rand.Rand

	// Dirty counts dataset modifications since startup (Redis server.dirty);
	// the server layer uses deltas to decide propagation.
	Dirty int64

	// InfoProvider, when non-nil, supplies the embedding server's INFO
	// sections (Server, Clients, Replication, Stats, ...). The store appends
	// its own Keyspace section — and a minimal Stats fallback when no
	// provider is installed — in InfoSections.
	InfoProvider func() []InfoSection
}

// InfoSection is one "# Name" block of the INFO command's reply.
type InfoSection struct {
	Name  string
	Lines []string
}

// InfoSections assembles the full ordered section list for INFO: the
// provider's sections first (the server layer's view), then the store's
// Keyspace. Without a provider a minimal Stats section preserves the
// dirty-counter surface.
func (s *Store) InfoSections() []InfoSection {
	var secs []InfoSection
	if s.InfoProvider != nil {
		secs = s.InfoProvider()
	} else {
		secs = append(secs, InfoSection{Name: "Stats", Lines: []string{fmt.Sprintf("dirty:%d", s.Dirty)}})
	}
	var keyspace []string
	for i := range s.dbs {
		if n := s.DBSize(i); n > 0 {
			keyspace = append(keyspace, fmt.Sprintf("db%d:keys=%d", i, n))
		}
	}
	return append(secs, InfoSection{Name: "Keyspace", Lines: keyspace})
}

// Options configures a Store. The zero value of every field is a usable
// default: 16 databases, one shard, seed 0, a clock pinned at zero.
type Options struct {
	// DBs is the number of numbered databases (SELECT targets). <= 0
	// means the Redis default of 16.
	DBs int
	// Shards partitions every database into this many disjoint key-hash
	// slices, one per owning core. <= 1 reproduces the unsharded store
	// exactly, including the order of every RNG draw.
	Shards int
	// Seed drives every internal randomized structure (dict seeds, expiry
	// sampling, rehash stepping).
	Seed int64
	// Clock supplies milliseconds; nil pins the store at t=0 (fine for
	// tests that never touch expiration).
	Clock Clock
}

// New creates a store from Options; see Options for field defaults.
func New(o Options) *Store {
	n, shards := o.DBs, o.Shards
	seed, clock := o.Seed, o.Clock
	if n <= 0 {
		n = 16
	}
	if shards <= 0 {
		shards = 1
	}
	if clock == nil {
		clock = func() int64 { return 0 }
	}
	s := &Store{clock: clock, rnd: rand.New(rand.NewSource(seed)), shards: shards}
	s.shardRnd = make([]*rand.Rand, shards)
	if shards == 1 {
		// Alias, don't re-seed: the legacy store drew dict seeds straight
		// from s.rnd, and that exact sequence is a determinism contract.
		s.shardRnd[0] = s.rnd
	} else {
		for i := range s.shardRnd {
			s.shardRnd[i] = rand.New(rand.NewSource(s.rnd.Int63()))
		}
	}
	s.dbs = make([][]*DB, n)
	for i := range s.dbs {
		s.dbs[i] = make([]*DB, shards)
		for si := range s.dbs[i] {
			r := s.shardRnd[si]
			s.dbs[i][si] = &DB{dict: dict.New(r.Int63()), expires: dict.New(r.Int63())}
		}
	}
	return s
}

// NumDBs reports the database count.
func (s *Store) NumDBs() int { return len(s.dbs) }

// NumShards reports how many key-hash shards each database is split into.
func (s *Store) NumShards() int { return s.shards }

// Seed returns a fresh deterministic seed for nested structures.
func (s *Store) seed() int64 { return s.rnd.Int63() }

// NewSeed hands out a deterministic seed for object construction outside
// the package (the RDB loader needs one per container object).
func (s *Store) NewSeed() int64 { return s.seed() }

// ShardOfKey maps a key to its shard index with FNV-1a — the single hash
// both the store's internal routing and the server's dispatch plane use, so
// they always agree on which shard core owns a key.
func ShardOfKey(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

// shardOfString is ShardOfKey for string keys (no allocation either way).
func shardOfString(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(shards))
}

// shardDB resolves the shard slice owning key within database dbi; every
// single-key access funnels through here.
func (s *Store) shardDB(dbi int, key string) *DB {
	return s.dbs[dbi][shardOfString(key, s.shards)]
}

// expired reports whether key is past its TTL.
func (db *DB) expired(key string, now int64) bool {
	v, ok := db.expires.Get(key)
	if !ok {
		return false
	}
	return now >= v.(int64)
}

// lookup returns the live object for key, applying lazy expiration.
func (s *Store) lookup(dbi int, key string) *obj.Object {
	db := s.shardDB(dbi, key)
	if db.expired(key, s.clock()) {
		db.dict.Delete(key)
		db.expires.Delete(key)
		s.Dirty++
		return nil
	}
	v, ok := db.dict.Get(key)
	if !ok {
		return nil
	}
	return v.(*obj.Object)
}

// lookupBytes is lookup for a key still held as command-argument bytes: the
// same dict calls in the same order, and no allocation whatever the key's
// length (a string(argv[i]) key is free only while it fits a stack buffer).
func (s *Store) lookupBytes(dbi int, key []byte) *obj.Object {
	db := s.dbs[dbi][ShardOfKey(key, s.shards)]
	if v, ok := db.expires.GetBytes(key); ok && s.clock() >= v.(int64) {
		db.dict.DeleteBytes(key)
		db.expires.DeleteBytes(key)
		s.Dirty++
		return nil
	}
	v, ok := db.dict.GetBytes(key)
	if !ok {
		return nil
	}
	return v.(*obj.Object)
}

// Has reports whether a key is live (applying lazy expiration) — the
// presence probe behind the migration plane's ASK/TRYAGAIN decision.
func (s *Store) Has(dbi int, key string) bool {
	return s.lookup(dbi, key) != nil
}

// setKey stores an object and clears any previous TTL (SET semantics).
func (s *Store) setKey(dbi int, key string, o *obj.Object) {
	db := s.shardDB(dbi, key)
	db.dict.Set(key, o)
	db.expires.Delete(key)
	s.Dirty++
}

// setString is setKey(key, obj.NewString(val)) for the string-writing
// commands, copying only what the store ends up keeping: a key that already
// holds a raw string has its bytes rewritten in place (no key string, no
// object, and no buffer when the old one is big enough); a missing key, a
// holder of another type or encoding, or an integer payload gets a fresh
// object as before. Either way the dict calls are setKey's — one Set-style
// access (rehash step, growth check, find or insert), expires.Delete,
// Dirty++ — so rehash progress and RandomKey do not depend on which
// happened.
func (s *Store) setString(dbi int, key, val []byte) {
	db := s.dbs[dbi][ShardOfKey(key, s.shards)]
	slot, _ := db.dict.Slot(key)
	if o, _ := (*slot).(*obj.Object); o == nil || !o.Overwrite(val) {
		*slot = obj.NewString(val)
	}
	db.expires.DeleteBytes(key)
	s.Dirty++
}

// deleteKey removes a key and its TTL; reports whether it existed.
func (s *Store) deleteKey(dbi int, key string) bool {
	db := s.shardDB(dbi, key)
	if s.lookup(dbi, key) == nil {
		return false
	}
	db.dict.Delete(key)
	db.expires.Delete(key)
	s.Dirty++
	return true
}

// setExpire sets the absolute expiry (ms) for an existing key.
func (s *Store) setExpire(dbi int, key string, at int64) {
	s.shardDB(dbi, key).expires.Set(key, at)
	s.Dirty++
}

// ttlMillis reports the remaining TTL in ms: -2 missing key, -1 no TTL.
func (s *Store) ttlMillis(dbi int, key string) int64 {
	if s.lookup(dbi, key) == nil {
		return -2
	}
	v, ok := s.shardDB(dbi, key).expires.Get(key)
	if !ok {
		return -1
	}
	rem := v.(int64) - s.clock()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ActiveExpireCycle samples up to sample volatile keys per shard slice per
// database and deletes the expired ones (the serverCron job the paper's
// Fig 4 time events include). Returns the number of keys expired.
func (s *Store) ActiveExpireCycle(sample int) int {
	total := 0
	for si := 0; si < s.shards; si++ {
		total += s.ActiveExpireCycleShard(si, sample)
	}
	return total
}

// ActiveExpireCycleShard runs one expiry sampling pass over shard si of
// every database — the per-shard cron job in sharded mode, where each shard
// core expires only the keys it owns.
func (s *Store) ActiveExpireCycleShard(si, sample int) int {
	now := s.clock()
	total := 0
	for dbi := range s.dbs {
		db := s.dbs[dbi][si]
		for i := 0; i < sample; i++ {
			key, ok := db.expires.RandomKey()
			if !ok {
				break
			}
			if db.expired(key, now) {
				s.deleteKey(dbi, key)
				total++
			}
		}
	}
	return total
}

// RehashStep donates incremental-rehash work to every database's tables
// (called from the server cron).
func (s *Store) RehashStep(n int) {
	for si := 0; si < s.shards; si++ {
		s.RehashStepShard(si, n)
	}
}

// RehashStepShard donates rehash work to shard si's tables only (the
// per-shard cron job in sharded mode).
func (s *Store) RehashStepShard(si, n int) {
	for dbi := range s.dbs {
		db := s.dbs[dbi][si]
		db.dict.RehashStep(n)
		db.expires.RehashStep(n)
	}
}

// DBSize reports the key count of a database, summed across its shards.
func (s *Store) DBSize(dbi int) int {
	n := 0
	for _, db := range s.dbs[dbi] {
		n += db.dict.Len()
	}
	return n
}

// ShardSize reports the key count shard si holds within database dbi
// (per-shard balance instrumentation).
func (s *Store) ShardSize(dbi, si int) int { return s.dbs[dbi][si].dict.Len() }

// EachEntry iterates every live key of every database, shard by shard (for
// RDB dumps): expireAt is 0 when the key has no TTL. Keys whose expiry is
// already in the past are logically dead — only lazy deletion hasn't caught
// up with them — so they are skipped rather than dumped; emitting them
// would resurrect expired keys on a full-syncing slave.
func (s *Store) EachEntry(fn func(dbi int, key string, o *obj.Object, expireAt int64) bool) {
	now := s.clock()
	for dbi := range s.dbs {
		for _, db := range s.dbs[dbi] {
			stop := false
			db.dict.Each(func(k string, v any) bool {
				var exp int64
				if e, ok := db.expires.Get(k); ok {
					exp = e.(int64)
				}
				if exp != 0 && exp <= now {
					return true // logically expired: never dump
				}
				if !fn(dbi, k, v.(*obj.Object), exp) {
					stop = true
					return false
				}
				return true
			})
			if stop {
				return
			}
		}
	}
}

// SetRaw installs an object directly (RDB load path), with optional expiry
// (0 = none). Does not count as dirty.
func (s *Store) SetRaw(dbi int, key string, o *obj.Object, expireAt int64) {
	db := s.shardDB(dbi, key)
	db.dict.Set(key, o)
	if expireAt > 0 {
		db.expires.Set(key, expireAt)
	} else {
		db.expires.Delete(key)
	}
}

// flushDB replaces every shard slice of one database with fresh tables,
// each seeded from its own shard's RNG.
func (s *Store) flushDB(dbi int) {
	for si := range s.dbs[dbi] {
		r := s.shardRnd[si]
		s.dbs[dbi][si] = &DB{dict: dict.New(r.Int63()), expires: dict.New(r.Int63())}
	}
}

// FlushAll erases every database.
func (s *Store) FlushAll() {
	for i := range s.dbs {
		s.flushDB(i)
	}
	s.Dirty++
}

// ---- Command dispatch ----

// Command is the exported descriptor of one command-table entry: the single
// source of truth the server dispatch, replication filtering, and (future)
// sharding key extraction all read. Descriptors are registered once at init
// and never mutated.
type Command struct {
	// Name is the canonical lowercase command name.
	Name string
	// Arity as in Redis: positive = exact argc, negative = minimum argc.
	Arity int
	// Write marks commands that may modify the dataset (the Host-KV check
	// from §III-C, made before involving the SmartNIC).
	Write bool
	// FirstKey is the argv index of the first key argument, 0 when the
	// command addresses no key (PING, SCAN, FLUSHALL, ...). The dispatch
	// plane routes commands to shards by these keys.
	FirstKey int
	// LastKey is the argv index of the last key argument; -1 means "to the
	// end of argv" (DEL, MSET, ...). Meaningless when FirstKey is 0.
	LastKey int
	// KeyStep is the argv stride between consecutive keys (2 for MSET's
	// key/value pairs, else 1).
	KeyStep int
	// Server marks commands the embedding server layer handles itself
	// (SELECT, PSYNC, WAIT, ...); the store rejects them as unknown.
	Server bool

	handler handler
}

// handler executes one command against database dbi, appends its RESP reply
// to dst, and reports whether the dataset was modified.
type handler func(s *Store, dbi int, argv [][]byte, dst []byte) (reply []byte, dirty bool)

// EachKey invokes fn for every key argument of argv according to the
// descriptor's FirstKey/LastKey/KeyStep pattern. The dispatch plane uses it
// to compute the shard set a command touches.
func (c *Command) EachKey(argv [][]byte, fn func(key []byte)) {
	if c.FirstKey <= 0 {
		return
	}
	last := c.LastKey
	if last < 0 || last >= len(argv) {
		last = len(argv) - 1
	}
	step := c.KeyStep
	if step <= 0 {
		step = 1
	}
	for i := c.FirstKey; i <= last; i += step {
		fn(argv[i])
	}
}

// SingleShard maps argv's keys onto n key-hash shards (ShardOfKey): shard
// is the one shard owning them all, -1 when argv carries no key; multi
// reports keys spanning shards, which no single shard can serve.
func (c *Command) SingleShard(argv [][]byte, n int) (shard int, multi bool) {
	shard = -1
	c.EachKey(argv, func(k []byte) {
		ks := ShardOfKey(k, n)
		if shard == -1 {
			shard = ks
		} else if ks != shard {
			multi = true
		}
	})
	return shard, multi
}

// FirstKeyArg extracts the command's first key from argv, or nil when the
// command has none (or argv is too short).
func (c *Command) FirstKeyArg(argv [][]byte) []byte {
	if c.FirstKey <= 0 || c.FirstKey >= len(argv) {
		return nil
	}
	return argv[c.FirstKey]
}

// maxCmdLen bounds the stack buffer used for allocation-free
// case-insensitive lookups; no registered name comes close.
const maxCmdLen = 32

// LookupCommand resolves a command name (any case) to its descriptor, or
// nil. The lookup never allocates: the common already-lowercase case is a
// direct map probe, and mixed case folds into a stack buffer.
func LookupCommand(name []byte) *Command {
	if c, ok := commandTable[string(name)]; ok {
		return c
	}
	if len(name) > maxCmdLen {
		return nil
	}
	var buf [maxCmdLen]byte
	return commandTable[string(foldLower(buf[:len(name)], name))]
}

// LookupCommandName is LookupCommand for string-typed names.
func LookupCommandName(name string) *Command {
	if c, ok := commandTable[name]; ok {
		return c
	}
	if len(name) > maxCmdLen {
		return nil
	}
	var buf [maxCmdLen]byte
	dst := buf[:len(name)]
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		dst[i] = ch
	}
	return commandTable[string(dst)]
}

// foldLower writes the ASCII-lowercased src into dst and returns dst.
func foldLower(dst, src []byte) []byte {
	for i, ch := range src {
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		dst[i] = ch
	}
	return dst
}

// Exec runs one command against database dbi. It returns the RESP-encoded
// reply, the caller's own, and whether the dataset was modified (the
// replication trigger).
func (s *Store) Exec(dbi int, argv [][]byte) (reply []byte, dirty bool) {
	return s.ExecAppend(nil, dbi, argv)
}

// ExecAppend is Exec appending the reply to dst, which a caller that drops
// or sends the reply before its next command reuses.
func (s *Store) ExecAppend(dst []byte, dbi int, argv [][]byte) (reply []byte, dirty bool) {
	if len(argv) == 0 {
		return resp.AppendError(dst, "ERR empty command"), false
	}
	return s.DispatchAppend(dst, LookupCommand(argv[0]), dbi, argv)
}

// Dispatch runs a command already resolved by LookupCommand (nil means
// unknown), saving the embedding server a second table probe. The reply is
// the caller's own.
func (s *Store) Dispatch(cmd *Command, dbi int, argv [][]byte) (reply []byte, dirty bool) {
	return s.DispatchAppend(nil, cmd, dbi, argv)
}

// DispatchAppend is Dispatch appending the reply to dst: the one dispatch
// implementation. A caller that owns a reply buffer — a server connection's
// reply scratch — passes it in and executes a GET or a SET without
// allocating; one that keeps the reply past its next dispatch copies it.
func (s *Store) DispatchAppend(dst []byte, cmd *Command, dbi int, argv [][]byte) (reply []byte, dirty bool) {
	if len(argv) == 0 {
		return resp.AppendError(dst, "ERR empty command"), false
	}
	if cmd == nil || cmd.Server {
		name := strings.ToLower(string(argv[0]))
		return resp.AppendError(dst, fmt.Sprintf("ERR unknown command '%s'", name)), false
	}
	if (cmd.Arity > 0 && len(argv) != cmd.Arity) || (cmd.Arity < 0 && len(argv) < -cmd.Arity) {
		return resp.AppendError(dst, fmt.Sprintf("ERR wrong number of arguments for '%s' command", cmd.Name)), false
	}
	if dbi < 0 || dbi >= len(s.dbs) {
		return resp.AppendError(dst, "ERR invalid DB index"), false
	}
	return cmd.handler(s, dbi, argv, dst)
}

// IsWriteCommand reports whether the named command may modify the dataset.
func IsWriteCommand(name string) bool {
	c := LookupCommandName(name)
	return c != nil && c.Write
}

// KnownCommand reports whether the store can execute the command (server
// level commands like SELECT are not the store's to run).
func KnownCommand(name string) bool {
	c := LookupCommandName(name)
	return c != nil && !c.Server
}

// EachCommand iterates every registered descriptor (introspection, tests).
func EachCommand(fn func(*Command)) {
	for _, c := range commandTable {
		fn(c)
	}
}

// Common replies, shared by every handler that returns one. They never leave
// the store: dispatch copies a handler's reply onto the caller's buffer, and
// cap == len makes an append onto one reallocate instead of writing into the
// shared array.
var (
	replyOK        = shared(resp.AppendSimple(nil, "OK"))
	replyWrongType = shared(resp.AppendError(nil, "WRONGTYPE Operation against a key holding the wrong kind of value"))
	replyNotInt    = shared(resp.AppendError(nil, "ERR value is not an integer or out of range"))
	replyNotFloat  = shared(resp.AppendError(nil, "ERR value is not a valid float"))
	replySyntax    = shared(resp.AppendError(nil, "ERR syntax error"))
	replyNullBulk  = shared(resp.AppendNullBulk(nil))
	replyZero      = shared(resp.AppendInt(nil, 0))
	replyOne       = shared(resp.AppendInt(nil, 1))
)

func shared(b []byte) []byte { return b[:len(b):len(b)] }

func ok() []byte        { return replyOK }
func wrongType() []byte { return replyWrongType }
func notInt() []byte    { return replyNotInt }
func notFloat() []byte  { return replyNotFloat }
func syntaxErr() []byte { return replySyntax }
func nullBulk() []byte  { return replyNullBulk }
func zero() []byte      { return replyZero }
func one() []byte       { return replyOne }
