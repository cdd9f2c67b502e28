package rdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"skv/internal/obj"
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

func TestRoundTripAllTypes(t *testing.T) {
	src := newStore()
	exec(t, src, 0, "SET str hello")
	exec(t, src, 0, "SET num 42")
	exec(t, src, 0, "RPUSH list a b c")
	exec(t, src, 0, "HSET hash f1 v1 f2 v2")
	exec(t, src, 0, "SADD set 1 2 3")
	exec(t, src, 0, "SADD set2 x y z")
	exec(t, src, 0, "ZADD zset 1.5 a 2.5 b")
	exec(t, src, 2, "SET otherdb yes")

	dump := Dump(src)
	dst := newStore()
	if err := Load(dst, dump); err != nil {
		t.Fatalf("Load: %v", err)
	}

	for _, check := range []struct {
		dbi       int
		cmd, want string
	}{
		{0, "GET str", "$5\r\nhello\r\n"},
		{0, "GET num", "$2\r\n42\r\n"},
		{0, "LRANGE list 0 -1", "*3\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n"},
		{0, "HGET hash f2", "$2\r\nv2\r\n"},
		{0, "SISMEMBER set 2", ":1\r\n"},
		{0, "SISMEMBER set2 y", ":1\r\n"},
		{0, "ZSCORE zset b", "$3\r\n2.5\r\n"},
		{2, "GET otherdb", "$3\r\nyes\r\n"},
	} {
		words := strings.Split(check.cmd, " ")
		argv := make([][]byte, len(words))
		for i, w := range words {
			argv[i] = []byte(w)
		}
		reply, _ := dst.Exec(check.dbi, argv)
		if string(reply) != check.want {
			t.Errorf("db%d %q = %q, want %q", check.dbi, check.cmd, reply, check.want)
		}
	}
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
			seal(append([]byte{tString}, appendUvarint(nil, n)...)),
			seal(append(appendString([]byte{tString}, "k"), appendUvarint(nil, n)...)),
		} {
			if err := Load(newStore(), dump); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("length %d: err = %v, want ErrCorrupt", n, err)
			}
		}
	}
}

// FuzzLoad: whatever the payload, Load returns an error or leaves a store
// whose Dump loads again into as many live keys — it never panics. Each
// input is tried as it is and sealed (magic before it, EOF and a valid CRC
// after), so the fuzzer reaches the decoder behind the checksum.
func FuzzLoad(f *testing.F) {
	src := newStore()
	for _, line := range []string{"SET str hello", "RPUSH list a b", "HSET hash f v", "SADD set x", "ZADD zset 1.5 a"} {
		exec(f, src, 0, line)
	}
	exec(f, src, 1, "SET k v")
	exec(f, src, 0, "PEXPIRE str 5000")
	for _, dump := range [][]byte{Dump(src), Dump(newStore())} {
		f.Add(dump)
		f.Add(dump[len(magic) : len(dump)-5]) // sealed, this is dump again
	}
	f.Add(append([]byte{tString}, appendUvarint(nil, 1<<64-1)...))
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
		}
	})
}

// keys counts the store's live (unexpired) keys across every database.
func keys(s *store.Store) int {
	n := 0
	s.EachEntry(func(int, string, *obj.Object, int64) bool { n++; return true })
	return n
}
