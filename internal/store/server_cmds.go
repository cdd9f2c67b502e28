package store

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/resp"
)

// Select answers a SELECT for a connection whose database is cur: the
// connection's database afterwards (cur on an error) and the RESP reply.
// SELECT is connection state, so the store never executes it; every server
// embedding a store calls this from its own dispatch.
func (s *Store) Select(cur int, argv [][]byte) (db int, reply []byte) {
	if len(argv) != 2 {
		return cur, resp.AppendError(nil, "ERR wrong number of arguments for 'select' command")
	}
	n, err := strconv.Atoi(string(argv[1]))
	if err != nil || n < 0 || n >= s.NumDBs() {
		return cur, resp.AppendError(nil, "ERR DB index is out of range")
	}
	return n, append([]byte(nil), ok()...)
}

func cmdPing(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if len(argv) == 2 {
		return resp.AppendBulk(nil, argv[1]), false
	}
	return resp.AppendSimple(nil, "PONG"), false
}

func cmdEcho(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return resp.AppendBulk(nil, argv[1]), false
}

// cmdInfo is the Redis-style sectioned INFO command. With no argument (or
// "default"/"all"/"everything") every section renders; with a section name
// only that section renders; an unknown section is an error. Sections come
// from InfoSections: the embedding server's InfoProvider callback plus the
// store's own Stats/Keyspace fallbacks.
func cmdInfo(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if len(argv) > 2 {
		return resp.AppendError(nil, "ERR wrong number of arguments for 'info' command"), false
	}
	section := ""
	if len(argv) == 2 {
		section = strings.ToLower(string(argv[1]))
	}
	all := section == "" || section == "default" || section == "all" || section == "everything"
	var b strings.Builder
	matched := false
	for _, sec := range s.InfoSections() {
		if !all && !strings.EqualFold(sec.Name, section) {
			continue
		}
		matched = true
		b.WriteString("# ")
		b.WriteString(sec.Name)
		b.WriteString("\r\n")
		for _, line := range sec.Lines {
			b.WriteString(line)
			b.WriteString("\r\n")
		}
		b.WriteString("\r\n")
	}
	if !matched {
		return resp.AppendError(nil, fmt.Sprintf("ERR unknown INFO section '%s'", section)), false
	}
	return resp.AppendBulkString(nil, b.String()), false
}

// commandTable maps lowercase command names to their descriptors. Arity
// follows Redis: positive = exact argc, negative = minimum argc. FirstKey
// is the argv index of the first key argument (0 = keyless).
var commandTable = make(map[string]*Command)

// register installs one descriptor; name must be lowercase. Single-key
// commands get LastKey == FirstKey with stride 1.
func register(name string, h func(*Store, int, [][]byte) ([]byte, bool), arity int, write bool, firstKey int) {
	registerKeys(name, h, arity, write, firstKey, firstKey, 1)
}

// registerKeys installs a descriptor with an explicit key pattern for
// multi-key commands (lastKey -1 = keys through the end of argv, step is
// the argv stride between keys).
func registerKeys(name string, h func(*Store, int, [][]byte) ([]byte, bool), arity int, write bool, firstKey, lastKey, step int) {
	registerAppend(name, appending(h), arity, write, firstKey, lastKey, step)
}

// registerAppend installs a descriptor whose handler writes its reply
// straight into the caller's buffer: the commands on the request path.
func registerAppend(name string, h handler, arity int, write bool, firstKey, lastKey, step int) {
	commandTable[name] = &Command{
		Name: name, Arity: arity, Write: write,
		FirstKey: firstKey, LastKey: lastKey, KeyStep: step, handler: h,
	}
}

// appending adapts a handler that returns its reply — one of the fixed
// replies every caller shares, or one it built — to the append form.
func appending(h func(*Store, int, [][]byte) ([]byte, bool)) handler {
	return func(s *Store, dbi int, argv [][]byte, dst []byte) ([]byte, bool) {
		reply, dirty := h(s, dbi, argv)
		return append(dst, reply...), dirty
	}
}

// registerServer installs a descriptor for a command the embedding server
// layer dispatches itself; the store refuses to execute it.
func registerServer(name string, arity int) {
	commandTable[name] = &Command{Name: name, Arity: arity, Server: true}
}

func init() {
	// Strings.
	register("set", cmdSet, -3, true, 1)
	register("setnx", cmdSetNX, 3, true, 1)
	register("setex", cmdSetEX, 4, true, 1)
	register("psetex", cmdPSetEX, 4, true, 1)
	registerAppend("get", cmdGet, 2, false, 1, 1, 1)
	registerAppend("getset", cmdGetSet, 3, true, 1, 1, 1)
	registerKeys("mset", cmdMSet, -3, true, 1, -1, 2)
	registerKeys("mget", cmdMGet, -2, false, 1, -1, 1)
	register("append", cmdAppend, 3, true, 1)
	register("strlen", cmdStrlen, 2, false, 1)
	register("getrange", cmdGetRange, 4, false, 1)
	register("setrange", cmdSetRange, 4, true, 1)
	register("incr", cmdIncr, 2, true, 1)
	register("decr", cmdDecr, 2, true, 1)
	register("incrby", cmdIncrBy, 3, true, 1)
	register("decrby", cmdDecrBy, 3, true, 1)

	// Keyspace.
	registerKeys("del", cmdDel, -2, true, 1, -1, 1)
	registerKeys("exists", cmdExists, -2, false, 1, -1, 1)
	register("expire", cmdExpire, 3, true, 1)
	register("pexpire", cmdPExpire, 3, true, 1)
	register("ttl", cmdTTL, 2, false, 1)
	register("pttl", cmdPTTL, 2, false, 1)
	register("persist", cmdPersist, 2, true, 1)
	register("type", cmdType, 2, false, 1)
	register("keys", cmdKeys, 2, false, 0) // argument is a pattern, not a key
	register("randomkey", cmdRandomKey, 1, false, 0)
	registerKeys("rename", cmdRename, 3, true, 1, 2, 1)
	register("dbsize", cmdDBSize, 1, false, 0)
	register("flushdb", cmdFlushDB, 1, true, 0)
	register("flushall", cmdFlushAll, 1, true, 0)

	// Lists.
	register("lpush", cmdLPush, -3, true, 1)
	register("rpush", cmdRPush, -3, true, 1)
	register("lpop", cmdLPop, 2, true, 1)
	register("rpop", cmdRPop, 2, true, 1)
	register("llen", cmdLLen, 2, false, 1)
	register("lrange", cmdLRange, 4, false, 1)
	register("lindex", cmdLIndex, 3, false, 1)
	register("lset", cmdLSet, 4, true, 1)
	register("lrem", cmdLRem, 4, true, 1)
	registerKeys("rpoplpush", cmdRPopLPush, 3, true, 1, 2, 1)

	// Hashes.
	register("hset", cmdHSet, -4, true, 1)
	register("hmset", cmdHMSetCompat, -4, true, 1)
	register("hget", cmdHGet, 3, false, 1)
	register("hmget", cmdHMGet, -3, false, 1)
	register("hdel", cmdHDel, -3, true, 1)
	register("hexists", cmdHExists, 3, false, 1)
	register("hlen", cmdHLen, 2, false, 1)
	register("hgetall", cmdHGetAll, 2, false, 1)
	register("hkeys", cmdHKeys, 2, false, 1)
	register("hvals", cmdHVals, 2, false, 1)
	register("hincrby", cmdHIncrBy, 4, true, 1)

	// Sets.
	register("sadd", cmdSAdd, -3, true, 1)
	register("srem", cmdSRem, -3, true, 1)
	register("sismember", cmdSIsMember, 3, false, 1)
	register("scard", cmdSCard, 2, false, 1)
	register("smembers", cmdSMembers, 2, false, 1)
	register("spop", cmdSPop, 2, true, 1)
	register("srandmember", cmdSRandMember, 2, false, 1)
	registerKeys("sinter", cmdSInter, -2, false, 1, -1, 1)
	registerKeys("sunion", cmdSUnion, -2, false, 1, -1, 1)
	registerKeys("sdiff", cmdSDiff, -2, false, 1, -1, 1)

	// Sorted sets.
	register("zadd", cmdZAdd, -4, true, 1)
	register("zrem", cmdZRem, -3, true, 1)
	register("zscore", cmdZScore, 3, false, 1)
	register("zcard", cmdZCard, 2, false, 1)
	register("zrank", cmdZRank, 3, false, 1)
	register("zincrby", cmdZIncrBy, 4, true, 1)
	register("zrange", cmdZRange, -4, false, 1)
	register("zrevrange", cmdZRevRange, -4, false, 1)
	register("zrangebyscore", cmdZRangeByScore, -4, false, 1)

	// Server.
	register("ping", cmdPing, -1, false, 0)
	register("echo", cmdEcho, 2, false, 0)
	register("info", cmdInfo, -1, false, 0)

	// Server-layer commands: one source of truth for the dispatch switch in
	// internal/server, never executable by the store itself.
	registerServer("select", 2)
	registerServer("psync", 3)
	registerServer("replconf", -2)
	registerServer("slaveof", 3)
	registerServer("replicaof", 3)
	registerServer("wait", 3)
	registerServer("skv.consistency", -1)
	registerServer("cluster", -2)
	registerServer("client", -2)
}

// cmdHMSetCompat implements the legacy HMSET (same as HSET, replies +OK).
func cmdHMSetCompat(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	reply, dirty := cmdHSet(s, dbi, argv)
	if len(reply) > 0 && reply[0] == resp.TypeError {
		return reply, dirty
	}
	return ok(), dirty
}
