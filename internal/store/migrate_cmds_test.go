package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"skv/internal/obj"
	"skv/internal/resp"
)

// exec runs a command with raw (possibly binary) arguments — the run()
// helper splits on spaces, which DUMP payloads may contain.
func exec(t *testing.T, s *Store, args ...string) resp.Value {
	t.Helper()
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	reply, _ := s.Exec(0, argv)
	var r resp.Reader
	r.Feed(reply)
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		t.Fatalf("exec %q: unparsable reply %q: %v", args[0], reply, err)
	}
	return v
}

// dump fetches a key's migration payload, failing the test when absent.
func dump(t *testing.T, s *Store, key string) string {
	t.Helper()
	v := exec(t, s, "DUMP", key)
	if v.Null {
		t.Fatalf("DUMP %s: key absent", key)
	}
	return string(v.Str)
}

// TestDumpRestoreRoundTripAllTypes: every value type survives the
// serialize→deserialize trip into a different store, with its TTL, read
// back through the commands of each type. rdb's TestRoundTripAllTypes
// compares the payload bytes and encodings of both framings.
func TestDumpRestoreRoundTripAllTypes(t *testing.T) {
	src, _ := testStore()
	dst, _ := testStore()
	run(t, src, "SET str hello")
	run(t, src, "RPUSH list a b c a")
	run(t, src, "HSET hash f1 v1 f2 v2")
	run(t, src, "SADD set x y z")
	run(t, src, "SADD intset 3 1 2")
	run(t, src, "ZADD zset 2 b 1 a 3 c")
	run(t, src, "SET volatile v")
	run(t, src, "PEXPIRE volatile 60000")

	for _, key := range []string{"str", "list", "hash", "set", "intset", "zset", "volatile"} {
		p := dump(t, src, key)
		if v := exec(t, dst, "RESTORE", key, p); !v.IsOK() {
			t.Fatalf("RESTORE %s: %s", key, v.String())
		}
	}
	wantStr(t, dst, "GET str", "hello")
	if v := run(t, dst, "LRANGE list 0 -1"); fmt.Sprint(v.Array) != fmt.Sprint(run(t, src, "LRANGE list 0 -1").Array) {
		t.Fatalf("list diverged: %s", v.String())
	}
	wantStr(t, dst, "HGET hash f1", "v1")
	wantStr(t, dst, "HGET hash f2", "v2")
	wantInt(t, dst, "SCARD set", 3)
	wantInt(t, dst, "SISMEMBER intset 2", 1)
	wantInt(t, dst, "ZRANK zset c", 2)
	wantStr(t, dst, "ZSCORE zset b", "2")
	v := run(t, dst, "PTTL volatile")
	if v.Int <= 0 || v.Int > 60000 {
		t.Fatalf("restored TTL = %d", v.Int)
	}
}

// TestDumpIsCanonical: two hashes (and sets) with equal content but
// different insertion orders — hence different dict layouts — serialize to
// identical bytes. The MIGRATEDEL CAS depends on exactly this.
func TestDumpIsCanonical(t *testing.T) {
	a, _ := testStore()
	b, _ := testStore()
	run(t, a, "HSET h f1 v1 f2 v2 f3 v3")
	run(t, b, "HSET h f3 v3 f1 v1")
	run(t, b, "HSET h f2 v2")
	if dump(t, a, "h") != dump(t, b, "h") {
		t.Fatal("hash serialization depends on insertion order")
	}
	run(t, a, "SADD s alpha beta gamma")
	run(t, b, "SADD s gamma alpha")
	run(t, b, "SADD s beta")
	if dump(t, a, "s") != dump(t, b, "s") {
		t.Fatal("set serialization depends on insertion order")
	}
}

// TestRestoreModes: plain RESTORE refuses overwrites, REPLACE clobbers,
// IFEQ applies only when the key is absent or unchanged since prev.
func TestRestoreModes(t *testing.T) {
	s, _ := testStore()
	run(t, s, "SET k v1")
	p1 := dump(t, s, "k")
	run(t, s, "SET k v2")
	p2 := dump(t, s, "k")

	if v := exec(t, s, "RESTORE", "k", p1); !v.IsError() || !bytes.Contains(v.Str, []byte("BUSYKEY")) {
		t.Fatalf("RESTORE over a live key: %s", v.String())
	}
	if v := exec(t, s, "RESTORE", "k", p1, "REPLACE"); !v.IsOK() {
		t.Fatalf("RESTORE REPLACE: %s", v.String())
	}
	wantStr(t, s, "GET k", "v1")

	// IFEQ with a stale prev: the key holds v1, prev says v2 → diverged.
	if v := exec(t, s, "RESTORE", "k", p2, "IFEQ", p2); v.Int != 0 {
		t.Fatalf("IFEQ on diverged key applied: %s", v.String())
	}
	wantStr(t, s, "GET k", "v1")
	// IFEQ with the matching prev applies.
	if v := exec(t, s, "RESTORE", "k", p2, "IFEQ", p1); v.Int != 1 {
		t.Fatalf("IFEQ on matching key skipped: %s", v.String())
	}
	wantStr(t, s, "GET k", "v2")
	// IFEQ on an absent key applies regardless of prev.
	if v := exec(t, s, "RESTORE", "fresh", p1, "IFEQ", ""); v.Int != 1 {
		t.Fatalf("IFEQ on absent key: %s", v.String())
	}
	wantStr(t, s, "GET fresh", "v1")

	if v := exec(t, s, "RESTORE", "x", "garbage"); !v.IsError() {
		t.Fatalf("garbage payload accepted: %s", v.String())
	}
	if v := exec(t, s, "RESTORE", "x", p1, "NOSUCHMODE"); !v.IsError() {
		t.Fatalf("unknown mode accepted: %s", v.String())
	}
}

// TestMigrateDelCAS: the delete commits only when the value is unchanged
// since the DUMP the payload came from; expiry-only changes do not count
// (relative expiries replicate against each node's own clock, so they are
// excluded from the comparison by design).
func TestMigrateDelCAS(t *testing.T) {
	s, _ := testStore()
	run(t, s, "SET k v1")
	p := dump(t, s, "k")

	// Value changed since the dump: CAS fails, key survives.
	run(t, s, "SET k v2")
	if v := exec(t, s, "MIGRATEDEL", "k", p); v.Int != 0 {
		t.Fatalf("MIGRATEDEL of a modified key: %s", v.String())
	}
	wantStr(t, s, "GET k", "v2")

	// Fresh dump commits.
	p2 := dump(t, s, "k")
	if v := exec(t, s, "MIGRATEDEL", "k", p2); v.Int != 1 {
		t.Fatalf("MIGRATEDEL of an unchanged key: %s", v.String())
	}
	wantNil(t, s, "GET k")
	// Absent key: nothing to commit.
	if v := exec(t, s, "MIGRATEDEL", "k", p2); v.Int != 0 {
		t.Fatalf("MIGRATEDEL of an absent key: %s", v.String())
	}

	// Expiry-only drift is not divergence.
	run(t, s, "SET t v")
	pt := dump(t, s, "t")
	run(t, s, "PEXPIRE t 60000")
	if v := exec(t, s, "MIGRATEDEL", "t", pt); v.Int != 1 {
		t.Fatalf("MIGRATEDEL after expiry-only change: %s", v.String())
	}
}

// TestKeysWhere: sorted, filtered, limited — the GETKEYSINSLOT backend.
func TestKeysWhere(t *testing.T) {
	s, _ := testStore()
	for _, k := range []string{"b1", "a1", "c1", "a2"} {
		run(t, s, "SET "+k+" v")
	}
	got := s.KeysWhere(0, 0, func(k string) bool { return k[0] == 'a' })
	if len(got) != 2 || got[0] != "a1" || got[1] != "a2" {
		t.Fatalf("KeysWhere = %v", got)
	}
	if got := s.KeysWhere(0, 1, func(string) bool { return true }); len(got) != 1 || got[0] != "a1" {
		t.Fatalf("limited KeysWhere = %v", got)
	}
}

// FuzzRestore: whatever the payload, RESTORE never panics. A payload it
// accepts leaves a key whose DUMP restores to the same DUMP, and, if the key
// is a sorted set, ZCOUNT -inf +inf counts every member ZCARD does. Seeded
// with the DUMP of every type and encoding, with and without a TTL.
func FuzzRestore(f *testing.F) {
	src, _ := testStore()
	long := strings.Repeat("x", obj.HashMaxListpackValue+1)
	for _, line := range []string{
		"SET int 42", "SET raw hello", "RPUSH list a b c",
		"HSET lphash f v", "HSET hthash f " + long,
		"SADD intset 1 2 10", "SADD htset x y",
		"ZADD lpzset 1 a 2 b", "ZADD slzset 1 a 2 " + long,
		"SET volatile v", "PEXPIRE volatile 60000",
	} {
		src.Exec(0, bytes.Fields([]byte(line)))
	}
	for _, k := range src.KeysWhere(0, 0, func(string) bool { return true }) {
		p, _ := src.SerializedEntry(0, k)
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, now := testStore()
		if reply, _ := s.Exec(0, argvOf("RESTORE", "k", payload)); string(reply) != "+OK\r\n" {
			return
		}
		p, ok := s.SerializedEntry(0, "k")
		if !ok {
			if at := int64(binary.BigEndian.Uint64(payload[1:dumpHeaderLen])); at <= 0 || at > *now {
				t.Fatalf("restored key absent, expiry %d, now %d", at, *now)
			}
			return // restored already expired
		}
		// On any other type both reply WRONGTYPE.
		card, _ := s.Exec(0, argvOf("ZCARD", "k"))
		count, _ := s.Exec(0, argvOf("ZCOUNT", "k", "-inf", "+inf"))
		if !bytes.Equal(card, count) {
			t.Fatalf("ZCARD %q, ZCOUNT -inf +inf %q", card, count)
		}
		again, _ := testStore()
		if reply, _ := again.Exec(0, argvOf("RESTORE", "k", p)); string(reply) != "+OK\r\n" {
			t.Fatalf("the DUMP of a restored key does not restore: %q", reply)
		}
		if q, _ := again.SerializedEntry(0, "k"); !bytes.Equal(p, q) {
			t.Fatalf("DUMP after a second RESTORE = %x, after the first %x", q, p)
		}
	})
}
