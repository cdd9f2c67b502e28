package rdb

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"skv/internal/obj"
	"skv/internal/resp"
	"skv/internal/store"
)

func newStore() *store.Store {
	now := int64(1_000_000)
	return store.New(store.Options{Seed: 7, Clock: func() int64 { return now }})
}

func exec(t testing.TB, s *store.Store, dbi int, line string) {
	t.Helper()
	words := strings.Split(line, " ")
	argv := make([][]byte, len(words))
	for i, w := range words {
		argv[i] = []byte(w)
	}
	reply, _ := s.Exec(dbi, argv)
	if len(reply) > 0 && reply[0] == '-' {
		t.Fatalf("command %q failed: %s", line, reply)
	}
}

func get(s *store.Store, dbi int, key string) string {
	reply, _ := s.Exec(dbi, [][]byte{[]byte("GET"), []byte(key)})
	return string(reply)
}

// TestRoundTripAllTypes: every type and encoding, with and without a TTL, survives
// both framings of the one object codec into another store — a snapshot
// (Dump/Load) and a migration payload (DUMP/RESTORE). The copy keeps the
// encoding and DUMPs to the source's payload, which holds the value and its
// absolute expiry (both stores read one clock). The DUMP/RESTORE leg then
// scribbles over the RESTORE argv, as a connection reusing its read buffer
// would, and the restored key must not change.
func TestRoundTripAllTypes(t *testing.T) {
	long := strings.Repeat("x", obj.HashMaxListpackValue+1)
	for _, row := range []struct {
		name, enc, setup string
	}{
		{"int-string", "int", "SET k 42"},
		{"raw-string", "raw", "SET k hello"},
		{"list", "linkedlist", "RPUSH k a b c a"},
		{"listpack-hash", "listpack", "HSET k f2 v2 f1 v1"},
		{"hashtable-hash", "hashtable", "HSET k f1 v1 f2 " + long},
		{"intset-set", "intset", "SADD k 3 10 1 2"},
		{"hashtable-set", "hashtable", "SADD k z x y"},
		{"listpack-zset", "listpack", "ZADD k 2 b 1 a 3 c -inf d"},
		{"skiplist-zset", "skiplist", "ZADD k 2 b 1 a 3 c 1 " + long},
	} {
		for _, ttl := range []bool{false, true} {
			name := row.name
			if ttl {
				name += "-ttl"
			}
			t.Run(name, func(t *testing.T) {
				src := newStore()
				exec(t, src, 0, row.setup)
				if ttl {
					exec(t, src, 0, "PEXPIRE k 60000")
				}
				want := dumpKey(t, src)
				check := func(framing string, dst *store.Store) {
					t.Helper()
					if got := dumpKey(t, dst); !bytes.Equal(got, want) {
						t.Fatalf("%s: DUMP = %x, want %x", framing, got, want)
					}
					if enc := encodingOf(dst); enc != row.enc {
						t.Fatalf("%s: encoding %s, want %s", framing, enc, row.enc)
					}
				}
				if enc := encodingOf(src); enc != row.enc {
					t.Fatalf("source encoding %s, want %s", enc, row.enc)
				}

				viaRDB := newStore()
				if err := Load(viaRDB, Dump(src)); err != nil {
					t.Fatalf("Load: %v", err)
				}
				check("Dump/Load", viaRDB)

				viaDUMP := newStore()
				payload := append([]byte(nil), want...)
				if reply, _ := viaDUMP.Exec(0, [][]byte{[]byte("RESTORE"), []byte("k"), payload}); string(reply) != "+OK\r\n" {
					t.Fatalf("RESTORE: %q", reply)
				}
				for i := range payload {
					payload[i] = 0xFF
				}
				check("DUMP/RESTORE", viaDUMP)
			})
		}
	}
}

// dumpKey is the DUMP reply's payload for key k.
func dumpKey(t *testing.T, s *store.Store) []byte {
	t.Helper()
	reply, _ := s.Exec(0, [][]byte{[]byte("DUMP"), []byte("k")})
	var r resp.Reader
	r.Feed(reply)
	v, ok, err := r.ReadValue()
	if err != nil || !ok || v.Null {
		t.Fatalf("DUMP k: %q", reply)
	}
	return v.Str
}

// encodingOf is OBJECT ENCODING of key k.
func encodingOf(s *store.Store) string {
	reply, _ := s.Exec(0, [][]byte{[]byte("OBJECT"), []byte("ENCODING"), []byte("k")})
	if _, enc, ok := strings.Cut(string(reply), "\r\n"); ok {
		return strings.TrimSuffix(enc, "\r\n")
	}
	return string(reply)
}

// TestDumpBytes pins Dump's bytes for strings, lists and zsets, TTL and a
// second database included, and loads them back: a change of the snapshot
// format shows here, not as a slave that cannot load an older master's file.
func TestDumpBytes(t *testing.T) {
	src := newStore()
	for _, line := range []string{"SET str hello", "SET num 42", "RPUSH list a bb ccc", "ZADD zset 1.5 a -2 b 3 c", "PEXPIRE str 5000"} {
		exec(t, src, 0, line)
	}
	exec(t, src, 2, "SET otherdb yes")
	const want = "534b565244423031fe00fd00000000000f55c800037374720568656c6c6f01046c6973740301610262620363636304047a736574030162c00000000000000001613ff80000000000000163400800000000000000036e756d023432fe0200076f74686572646203796573ff4c32e494"
	if got := hex.EncodeToString(Dump(src)); got != want {
		t.Fatalf("Dump = %s\nwant   %s", got, want)
	}
	// The key in the second database loads back into it.
	dst := newStore()
	if err := Load(dst, Dump(src)); err != nil {
		t.Fatal(err)
	}
	if got := get(dst, 2, "otherdb"); got != "$3\r\nyes\r\n" {
		t.Fatalf("db2 GET otherdb = %q", got)
	}
}

// TestNaNScoreRejected: both framings refuse a sorted set holding a NaN
// score. ZADD refuses one, and a set that holds one hides members from its
// ranges and ranks (ZCOUNT -inf +inf below ZCARD, ZRANK nil or past the end).
func TestNaNScoreRejected(t *testing.T) {
	score := binary.BigEndian.AppendUint64(nil, math.Float64bits(2.5))
	nan := binary.BigEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	src := newStore()
	exec(t, src, 0, "ZADD z 1 a 2.5 b 3 c")
	poison := func(b []byte) []byte {
		if bytes.Count(b, score) != 1 {
			t.Fatalf("score 2.5 not found once in %x", b)
		}
		return bytes.Replace(b, score, nan, 1)
	}

	t.Run("Dump/Load", func(t *testing.T) {
		dump := Dump(src)
		body := poison(dump[:len(dump)-4])
		dump = binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
		if err := Load(newStore(), dump); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load = %v, want ErrCorrupt", err)
		}
	})
	t.Run("DUMP/RESTORE", func(t *testing.T) {
		p, _ := src.SerializedEntry(0, "z")
		dst := newStore()
		reply, _ := dst.Exec(0, [][]byte{[]byte("RESTORE"), []byte("z"), poison(p)})
		if !strings.HasPrefix(string(reply), "-ERR Bad data format") {
			t.Fatalf("RESTORE = %q, want the bad-format error", reply)
		}
		if got, _ := dst.Exec(0, [][]byte{[]byte("EXISTS"), []byte("z")}); string(got) != ":0\r\n" {
			t.Fatalf("EXISTS z after a refused RESTORE = %q", got)
		}
	})
}

func TestExpirySurvivesRoundTrip(t *testing.T) {
	now := int64(1_000_000)
	src := store.New(store.Options{DBs: 1, Seed: 7, Clock: func() int64 { return now }})
	dst := store.New(store.Options{DBs: 1, Seed: 9, Clock: func() int64 { return now }})
	exec(t, src, 0, "SET k v")
	exec(t, src, 0, "PEXPIRE k 5000")
	if err := Load(dst, Dump(src)); err != nil {
		t.Fatal(err)
	}
	reply, _ := dst.Exec(0, [][]byte{[]byte("PTTL"), []byte("k")})
	if string(reply) == ":-1\r\n" || string(reply) == ":-2\r\n" {
		t.Fatalf("TTL lost: %q", reply)
	}
}

func TestLoadReplacesExistingData(t *testing.T) {
	src := newStore()
	exec(t, src, 0, "SET fromdump v")
	dst := newStore()
	exec(t, dst, 0, "SET stale old")
	if err := Load(dst, Dump(src)); err != nil {
		t.Fatal(err)
	}
	if got := get(dst, 0, "stale"); got != "$-1\r\n" {
		t.Fatalf("stale key survived load: %q", got)
	}
	if got := get(dst, 0, "fromdump"); got != "$1\r\nv\r\n" {
		t.Fatalf("dumped key missing: %q", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	dst := newStore()
	if err := Load(dst, []byte("NOTARDB0xxxxxxx")); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCorruptionDetectedByCRC(t *testing.T) {
	src := newStore()
	exec(t, src, 0, "SET k v")
	dump := Dump(src)
	dump[len(dump)/2] ^= 0xFF
	dst := newStore()
	if err := Load(dst, dump); err != ErrBadCRC {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
	// And critically: the destination was not flushed.
	exec(t, dst, 0, "SET survivor yes")
	if got := get(dst, 0, "survivor"); got != "$3\r\nyes\r\n" {
		t.Fatal("store corrupted by failed load")
	}
}

func TestTruncatedPayload(t *testing.T) {
	src := newStore()
	exec(t, src, 0, "SET key somevalue")
	dump := Dump(src)
	trunc := dump[:len(dump)-10]
	dst := newStore()
	if err := Load(dst, trunc); err == nil {
		t.Fatal("truncated dump loaded successfully")
	}
}

func TestEmptyStoreDump(t *testing.T) {
	src := newStore()
	dst := newStore()
	if err := Load(dst, Dump(src)); err != nil {
		t.Fatalf("empty dump: %v", err)
	}
	reply, _ := dst.Exec(0, [][]byte{[]byte("DBSIZE")})
	if string(reply) != ":0\r\n" {
		t.Fatalf("dbsize after empty load: %q", reply)
	}
}

// Property: any set of string keys round-trips exactly.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(pairs map[string]string) bool {
		src := newStore()
		for k, v := range pairs {
			if k == "" {
				continue
			}
			src.Exec(0, [][]byte{[]byte("SET"), []byte(k), []byte(v)})
		}
		dst := newStore()
		if err := Load(dst, Dump(src)); err != nil {
			return false
		}
		for k := range pairs {
			if k == "" {
				continue
			}
			a, _ := src.Exec(0, [][]byte{[]byte("GET"), []byte(k)})
			b, _ := dst.Exec(0, [][]byte{[]byte("GET"), []byte(k)})
			if string(a) != string(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeDataset(t *testing.T) {
	src := newStore()
	for i := 0; i < 2000; i++ {
		exec(t, src, 0, fmt.Sprintf("SET key:%d value-%d", i, i))
	}
	dump := Dump(src)
	dst := newStore()
	if err := Load(dst, dump); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 97 {
		want := fmt.Sprintf("$%d\r\nvalue-%d\r\n", len(fmt.Sprintf("value-%d", i)), i)
		if got := get(dst, 0, fmt.Sprintf("key:%d", i)); got != want {
			t.Fatalf("key:%d = %q want %q", i, got, want)
		}
	}
}

// seal frames body as a dump: the magic before it, EOF and a valid CRC after.
func seal(body []byte) []byte {
	out := append([]byte(magic), body...)
	out = append(out, opEOF)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(out, crcTable))
	return append(out, crc[:]...)
}

// TestOversizedLengthRejected: a length field near 2^64 in a dump whose CRC
// holds is corruption, not a slice past the payload's end.
func TestOversizedLengthRejected(t *testing.T) {
	for _, n := range []uint64{1<<64 - 1, 1<<64 - 8, 1 << 63, 1000} {
		for _, dump := range [][]byte{
			seal(binary.AppendUvarint([]byte{byte(obj.TString)}, n)),
			seal(binary.AppendUvarint([]byte{byte(obj.TString), 1, 'k'}, n)),
		} {
			if err := Load(newStore(), dump); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("length %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	}
}

// FuzzLoad: whatever the payload, Load returns an error or leaves a store
// whose Dump loads again into as many live keys, and whose sorted sets each
// count every member in ZCOUNT -inf +inf — it never panics. Each
// input is tried as it is and sealed (magic before it, EOF and a valid CRC
// after), so the fuzzer reaches the decoder behind the checksum.
func FuzzLoad(f *testing.F) {
	src := newStore()
	for _, line := range []string{"SET str hello", "RPUSH list a b", "HSET hash f v", "SADD set x", "ZADD zset 1.5 a", "ZADD big 1 a 2 " + strings.Repeat("m", 65)} {
		exec(f, src, 0, line)
	}
	exec(f, src, 1, "SET k v")
	exec(f, src, 0, "PEXPIRE str 5000")
	for _, dump := range [][]byte{Dump(src), Dump(newStore())} {
		f.Add(dump)
		f.Add(dump[len(magic) : len(dump)-5]) // sealed, this is dump again
	}
	f.Add(binary.AppendUvarint([]byte{byte(obj.TString)}, 1<<64-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dump := range [][]byte{data, seal(data)} {
			s := newStore()
			if Load(s, dump) != nil {
				continue
			}
			again := newStore()
			if err := Load(again, Dump(s)); err != nil {
				t.Fatalf("the dump of a loaded store does not load: %v", err)
			}
			if a, b := keys(s), keys(again); a != b {
				t.Fatalf("reloaded store holds %d keys, loaded one %d", b, a)
			}
			checkZSets(t, s)
		}
	})
}

// keys counts the store's live (unexpired) keys across every database.
func keys(s *store.Store) int {
	n := 0
	s.EachEntry(func(int, string, *obj.Object, int64) bool { n++; return true })
	return n
}

// checkZSets fails on a sorted set whose ZCOUNT -inf +inf misses a member
// ZCARD counts.
func checkZSets(t *testing.T, s *store.Store) {
	type zkey struct {
		dbi int
		key string
	}
	var zsets []zkey
	s.EachEntry(func(dbi int, key string, o *obj.Object, _ int64) bool {
		if o.Type == obj.TZSet {
			zsets = append(zsets, zkey{dbi, key})
		}
		return true
	})
	for _, z := range zsets {
		card, _ := s.Exec(z.dbi, [][]byte{[]byte("ZCARD"), []byte(z.key)})
		count, _ := s.Exec(z.dbi, [][]byte{[]byte("ZCOUNT"), []byte(z.key), []byte("-inf"), []byte("+inf")})
		if string(card) != string(count) {
			t.Fatalf("zset %q: ZCARD %q, ZCOUNT -inf +inf %q", z.key, card, count)
		}
	}
}
