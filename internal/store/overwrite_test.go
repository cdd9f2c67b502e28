package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"skv/internal/obj"
	"skv/internal/resp"
)

// ---- model ----

// modelEntry is what the reference model knows about one key: a string's
// bytes and encoding, or a list's elements, and the absolute expiry (0 none).
type modelEntry struct {
	list     bool
	val      []byte
	intEnc   bool
	elems    [][]byte // head first
	expireAt int64
}

type model struct {
	m   map[string]*modelEntry
	now *int64
	// ref holds nothing but freshly built objects, one at a time: what a
	// key's entry must serialize like (see freshPayload).
	ref *Store
}

// get returns the live entry, dropping one past its expiry like the store's
// lazy expiration does.
func (m *model) get(k string) *modelEntry {
	e := m.m[k]
	if e != nil && e.expireAt != 0 && *m.now >= e.expireAt {
		delete(m.m, k)
		return nil
	}
	return e
}

func canonicalInt(b []byte) bool {
	n, err := strconv.ParseInt(string(b), 10, 64)
	return err == nil && len(b) <= 20 && strconv.FormatInt(n, 10) == string(b)
}

func (m *model) setString(k string, v []byte) {
	m.m[k] = &modelEntry{val: append([]byte(nil), v...), intEnc: canonicalInt(v)}
}

// ---- the property test ----

var propKeys = []string{
	"k0", "k1", "k2", "k3",
	"key:0000000042",
	"a-key-well-past-the-thirty-two-bytes-a-stack-buffer-holds:0001",
}

func propValue(r *rand.Rand) []byte {
	letters := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(r.Intn(26))
		}
		return b
	}
	switch r.Intn(7) {
	case 0, 1:
		return letters(16) // the same size as most of what is there
	case 2:
		return letters(1 + r.Intn(8)) // shorter
	case 3:
		return letters(40 + r.Intn(80)) // longer
	case 4:
		return []byte(strconv.Itoa(r.Intn(2_000_000) - 1_000_000)) // takes the int encoding
	case 5:
		return []byte("007") // digits, not a canonical integer: stays raw
	default:
		return nil // the empty string
	}
}

func argvOf(words ...any) [][]byte {
	argv := make([][]byte, len(words))
	for i, w := range words {
		switch w := w.(type) {
		case string:
			argv[i] = []byte(w)
		case []byte:
			argv[i] = w
		case int:
			argv[i] = []byte(strconv.Itoa(w))
		}
	}
	return argv
}

// TestStringWritesMatchModel drives random command sequences over a few keys
// through stores at 1 and 4 shards and a map-plus-TTL model in lockstep.
// After every step each key must read the same everywhere — GET, TYPE, OBJECT
// ENCODING, PTTL — and must serialize exactly like a freshly built object
// holding the model's value: a value overwritten in place is
// indistinguishable from one that was replaced.
func TestStringWritesMatchModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				runStringProperty(t, shards, seed, 3000)
			})
		}
	}
}

func runStringProperty(t *testing.T, shards int, seed int64, steps int) {
	now := int64(1_000_000)
	clock := func() int64 { return now }
	s := New(Options{Shards: shards, Seed: seed, Clock: clock})
	md := &model{m: map[string]*modelEntry{}, now: &now, ref: New(Options{DBs: 1, Clock: clock})}
	r := rand.New(rand.NewSource(seed))
	key := func() string { return propKeys[r.Intn(len(propKeys))] }

	for step := 0; step < steps; step++ {
		var desc string
		exec := func(words ...any) []byte {
			argv := argvOf(words...)
			desc = fmt.Sprintf("%q", argv)
			reply, _ := s.Exec(0, argv)
			return reply
		}
		k := key()
		switch op := r.Intn(17); op {
		case 0, 1, 2, 3: // SET with options
			v := propValue(r)
			words := []any{"SET", k, v}
			var nx, xx bool
			var ttl int64
			switch r.Intn(8) {
			case 0:
				nx = true
				words = append(words, "NX")
			case 1:
				xx = true
				words = append(words, "xx")
			case 2:
				ttl = int64(1+r.Intn(5)) * 1000
				words = append(words, "EX", int(ttl/1000))
			case 3:
				ttl = int64(1 + r.Intn(5000))
				words = append(words, "px", int(ttl))
			}
			reply := exec(words...)
			exists := md.get(k) != nil
			if (nx && exists) || (xx && !exists) {
				if !bytes.Equal(reply, replyNullBulk) {
					t.Fatalf("step %d %s: reply %q, want null", step, desc, reply)
				}
				break
			}
			md.setString(k, v)
			if ttl > 0 {
				md.m[k].expireAt = now + ttl
			}
		case 4: // SETEX / PSETEX
			v := propValue(r)
			if r.Intn(2) == 0 {
				n := 1 + r.Intn(5)
				exec("SETEX", k, n, v)
				md.setString(k, v)
				md.m[k].expireAt = now + int64(n)*1000
			} else {
				n := 1 + r.Intn(5000)
				exec("PSETEX", k, n, v)
				md.setString(k, v)
				md.m[k].expireAt = now + int64(n)
			}
		case 5: // GETSET: the old value must come back intact
			v := propValue(r)
			reply := exec("GETSET", k, v)
			e := md.get(k)
			switch {
			case e != nil && e.list:
				if !bytes.Equal(reply, replyWrongType) {
					t.Fatalf("step %d %s: reply %q, want WRONGTYPE", step, desc, reply)
				}
			case e == nil:
				if !bytes.Equal(reply, replyNullBulk) {
					t.Fatalf("step %d %s: reply %q, want null", step, desc, reply)
				}
				md.setString(k, v)
			default:
				if want := resp.AppendBulk(nil, e.val); !bytes.Equal(reply, want) {
					t.Fatalf("step %d %s: reply %q, want %q", step, desc, reply, want)
				}
				md.setString(k, v)
			}
		case 6: // MSET over two keys
			k2, v, v2 := key(), propValue(r), propValue(r)
			exec("MSET", k, v, k2, v2)
			md.setString(k, v)
			md.setString(k2, v2)
		case 7: // SETNX
			v := propValue(r)
			exec("SETNX", k, v)
			if md.get(k) == nil {
				md.setString(k, v)
			}
		case 8: // APPEND
			v := propValue(r)
			exec("APPEND", k, v)
			switch e := md.get(k); {
			case e == nil:
				md.setString(k, v)
			case !e.list:
				e.val = append(e.val, v...)
				e.intEnc = false
			}
		case 9: // SETRANGE
			off, v := r.Intn(24), propValue(r)
			exec("SETRANGE", k, off, v)
			e := md.get(k)
			if e != nil && e.list || e == nil && len(v) == 0 {
				break
			}
			if e == nil {
				e = &modelEntry{}
				md.m[k] = e
			}
			for len(e.val) < off+len(v) {
				e.val = append(e.val, 0)
			}
			copy(e.val[off:], v)
			e.intEnc = false
		case 10: // INCR
			exec("INCR", k)
			switch e := md.get(k); {
			case e == nil:
				md.setString(k, []byte("1"))
			case !e.list && canonicalInt(e.val):
				n, _ := strconv.ParseInt(string(e.val), 10, 64)
				e.val, e.intEnc = []byte(strconv.FormatInt(n+1, 10)), true
			}
		case 11: // DEL
			exec("DEL", k)
			delete(md.m, k)
		case 12: // EXPIRE
			n := 1 + r.Intn(5)
			exec("EXPIRE", k, n)
			if e := md.get(k); e != nil {
				e.expireAt = now + int64(n)*1000
			}
		case 13: // the clock moves, past some expiries
			now += int64(r.Intn(3000))
			desc = "clock advance"
		case 14: // RENAME
			dst := key()
			if dst == k {
				break
			}
			exec("RENAME", k, dst)
			if e := md.get(k); e != nil {
				delete(md.m, k)
				md.m[dst] = e
			}
		case 15, 16: // a type change: LPUSH makes (or extends) a list, which a later SET replaces
			v := propValue(r)
			exec("LPUSH", k, v)
			switch e := md.get(k); {
			case e == nil:
				md.m[k] = &modelEntry{list: true, elems: [][]byte{append([]byte(nil), v...)}}
			case e.list:
				e.elems = append([][]byte{append([]byte(nil), v...)}, e.elems...)
			}
		}
		checkAgainstModel(t, s, md, fmt.Sprintf("step %d after %s", step, desc))
	}
}

// freshPayload serializes the model's entry from a newly built object in
// the reference store: what SerializedEntry must return whatever happened to
// the object the store under test actually holds.
func (m *model) freshPayload(e *modelEntry, k string) []byte {
	ref := m.ref
	ref.Exec(0, argvOf("DEL", k))
	if e.list {
		for i := len(e.elems) - 1; i >= 0; i-- {
			ref.Exec(0, argvOf("LPUSH", k, e.elems[i]))
		}
		if e.expireAt != 0 {
			ref.setExpire(0, k, e.expireAt)
		}
	} else {
		ref.SetRaw(0, k, obj.NewString(e.val), e.expireAt)
	}
	p, _ := ref.SerializedEntry(0, k)
	return p
}

func checkAgainstModel(t *testing.T, s *Store, md *model, when string) {
	t.Helper()
	now := *md.now
	for _, k := range propKeys {
		e := md.get(k)
		get, _ := s.Exec(0, argvOf("GET", k))
		typ, _ := s.Exec(0, argvOf("TYPE", k))
		enc, _ := s.Exec(0, argvOf("OBJECT", "ENCODING", k))
		ttl, _ := s.Exec(0, argvOf("PTTL", k))
		payload, has := s.SerializedEntry(0, k)

		wantGet, wantType, wantEnc, wantTTL := replyNullBulk, "none", "", int64(-2)
		var wantPayload []byte
		if e != nil {
			wantTTL = -1
			if e.expireAt != 0 {
				wantTTL = e.expireAt - now
			}
			wantPayload = md.freshPayload(e, k)
			switch {
			case e.list:
				wantGet, wantType, wantEnc = replyWrongType, "list", "linkedlist"
			case e.intEnc:
				wantGet, wantType, wantEnc = resp.AppendBulk(nil, e.val), "string", "int"
			default:
				wantGet, wantType, wantEnc = resp.AppendBulk(nil, e.val), "string", "raw"
			}
		}
		if !bytes.Equal(get, wantGet) {
			t.Fatalf("%s: GET %s = %q, want %q", when, k, get, wantGet)
		}
		if want := resp.AppendSimple(nil, wantType); !bytes.Equal(typ, want) {
			t.Fatalf("%s: TYPE %s = %q, want %q", when, k, typ, want)
		}
		if e == nil {
			if !strings.HasPrefix(string(enc), "-ERR no such key") {
				t.Fatalf("%s: OBJECT ENCODING %s = %q, want no such key", when, k, enc)
			}
		} else if want := resp.AppendBulkString(nil, wantEnc); !bytes.Equal(enc, want) {
			t.Fatalf("%s: OBJECT ENCODING %s = %q, want %q", when, k, enc, want)
		}
		if want := resp.AppendInt(nil, wantTTL); !bytes.Equal(ttl, want) {
			t.Fatalf("%s: PTTL %s = %q, want %q", when, k, ttl, want)
		}
		if has != (e != nil) || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s: SerializedEntry(%s) = %x (%t), want %x", when, k, payload, has, wantPayload)
		}
	}
}

// ---- aliasing ----

// TestRepliesSurviveOverwrite: a value is rewritten in place and replies are
// shared, so what a caller already holds must not change under it.
func TestRepliesSurviveOverwrite(t *testing.T) {
	s, _ := testStore()
	s.Exec(0, argvOf("SET", "k", "first-value-here"))
	before, _ := s.Exec(0, argvOf("GET", "k"))
	snapshot := append([]byte(nil), before...)
	old, _ := s.Exec(0, argvOf("GETSET", "k", "other-value-here"))
	s.Exec(0, argvOf("SET", "k", "third-value-here"))
	s.Exec(0, argvOf("APPEND", "k", "-and-more"))
	if !bytes.Equal(before, snapshot) || !bytes.Equal(old, snapshot) {
		t.Fatalf("replies read before an overwrite changed after it: GET %q, GETSET %q, want %q", before, old, snapshot)
	}

	for name, reply := range map[string]func() []byte{
		"ok": ok, "wrongType": wrongType, "notInt": notInt, "notFloat": notFloat,
		"syntaxErr": syntaxErr, "nullBulk": nullBulk, "zero": zero, "one": one,
	} {
		first := reply()
		want := append([]byte(nil), first...)
		if cap(first) != len(first) {
			t.Errorf("%s(): cap %d > len %d: an append would write into the shared reply", name, cap(first), len(first))
		}
		_ = append(first, 'x')
		if got := reply(); !bytes.Equal(got, want) {
			t.Errorf("%s() = %q after an append onto the previous one, want %q", name, got, want)
		}
	}
}

// ---- rehash progress ----

// TestOverwriteKeepsDictSequence: a SET that rewrites a value in place must
// leave the keyspace dict exactly where a replacing setKey would have — same
// rehash progress, same bucket counts, same RandomKey draws — or every seeded
// experiment downstream of a rehash would shift.
func TestOverwriteKeepsDictSequence(t *testing.T) {
	a := New(Options{Seed: 9})
	b := New(Options{Seed: 9})
	r := rand.New(rand.NewSource(9))
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key:%010d", i)) }
	value := bytes.Repeat([]byte("v"), 64)
	live := 0
	for step := 0; step < 20_000; step++ {
		// Mostly overwrites, with enough inserts to keep a rehash in flight
		// for much of the run.
		i := r.Intn(live + 1)
		if i == live {
			live++
		}
		value[r.Intn(len(value))] = 'a' + byte(r.Intn(26))
		k := keyOf(i)
		a.Exec(0, [][]byte{[]byte("SET"), k, value})
		// What cmdSet did before values were rewritten in place.
		b.lookup(0, string(k))
		b.setKey(0, string(k), obj.NewString(value))

		da, db := a.dbs[0][0].dict, b.dbs[0][0].dict
		if da.Rehashing() != db.Rehashing() || da.BucketCount() != db.BucketCount() || da.Len() != db.Len() {
			t.Fatalf("step %d: overwrite path rehashing=%t buckets=%d len=%d, setKey path rehashing=%t buckets=%d len=%d",
				step, da.Rehashing(), da.BucketCount(), da.Len(), db.Rehashing(), db.BucketCount(), db.Len())
		}
		if step%7 == 0 {
			ka, _ := da.RandomKey()
			kb, _ := db.RandomKey()
			if ka != kb {
				t.Fatalf("step %d: RandomKey %q on the overwrite path, %q on the setKey path", step, ka, kb)
			}
		}
	}
	if ka, kb := a.dbs[0][0].dict.Keys(), b.dbs[0][0].dict.Keys(); fmt.Sprint(ka) != fmt.Sprint(kb) {
		t.Fatal("the two paths left the keys in different bucket order")
	}
	if a.Dirty != b.Dirty {
		t.Fatalf("Dirty %d on the overwrite path, %d on the setKey path", a.Dirty, b.Dirty)
	}
}

// ---- allocation guards ----

// TestStringPathAllocations pins what the string commands allocate when the
// reply goes into a buffer the caller reuses, as a server connection's does:
// a SET that overwrites a live raw value of the same size or a shorter one
// keeps nothing new, so it allocates nothing — at a key that fits a stack
// buffer and at one that does not, down to a value short enough to be checked
// for the int encoding — and neither does a GET. Exec, the owned-reply
// wrapper, pays one allocation for the reply.
func TestStringPathAllocations(t *testing.T) {
	out := make([]byte, 0, 128)
	exec := func(s *Store, argv [][]byte) { out, _ = s.ExecAppend(out[:0], 0, argv) }
	for _, key := range []string{"key:0000012345", strings.Repeat("k", 64)} {
		s, _ := testStore()
		value := bytes.Repeat([]byte("v"), 64)
		set := [][]byte{[]byte("SET"), []byte(key), value}
		setShort := [][]byte{[]byte("SET"), []byte(key), value[:40]}
		setTiny := [][]byte{[]byte("SET"), []byte(key), []byte("tiny")}
		get := [][]byte{[]byte("GET"), []byte(key)}
		exec(s, set)
		if n := testing.AllocsPerRun(200, func() { exec(s, set) }); n != 0 {
			t.Errorf("%d-byte key: SET over a same-size value allocated %.1f times, want 0", len(key), n)
		}
		if n := testing.AllocsPerRun(200, func() { exec(s, setShort); exec(s, set) }); n != 0 {
			t.Errorf("%d-byte key: SET of a shorter value and back allocated %.1f times, want 0", len(key), n)
		}
		if n := testing.AllocsPerRun(200, func() { exec(s, setTiny); exec(s, set) }); n != 0 {
			t.Errorf("%d-byte key: SET of a 4-byte value and back allocated %.1f times, want 0", len(key), n)
		}
		if n := testing.AllocsPerRun(200, func() { exec(s, get) }); n != 0 {
			t.Errorf("%d-byte key: GET allocated %.1f times, want 0", len(key), n)
		}
		if exec(s, get); string(out) != "$64\r\n"+string(value)+"\r\n" {
			t.Errorf("%d-byte key: GET replied %q", len(key), out)
		}
		if n := testing.AllocsPerRun(200, func() { s.Exec(0, set) }); n != 1 {
			t.Errorf("%d-byte key: Exec SET allocated %.1f times, want 1 (the reply)", len(key), n)
		}
	}

	// A SET that creates its key keeps five things — the key string, the dict
	// entry, the object, the sds and its bytes — and allocates those (the
	// odd bucket array of a growing dict is amortised away by the average).
	s, _ := testStore()
	fresh := [][]byte{[]byte("SET"), []byte("fresh:0000000000"), bytes.Repeat([]byte("v"), 64)}
	next := 0
	if n := testing.AllocsPerRun(200, func() {
		next++
		for i, d := len(fresh[1])-1, next; d > 0; i, d = i-1, d/10 {
			fresh[1][i] = '0' + byte(d%10)
		}
		exec(s, fresh)
	}); n != 5 {
		t.Errorf("SET of a new key allocated %.1f times, want 5", n)
	}
}
