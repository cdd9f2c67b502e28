package obj

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestStringIntEncoding(t *testing.T) {
	o := NewString([]byte("12345"))
	if o.Enc != EncInt {
		t.Fatalf("enc=%v, want int", o.Enc)
	}
	if !bytes.Equal(o.StringBytes(), []byte("12345")) {
		t.Fatal("StringBytes mismatch")
	}
	n, ok := o.IntValue()
	if !ok || n != 12345 {
		t.Fatalf("IntValue=%d,%v", n, ok)
	}
	if o.StringLen() != 5 {
		t.Fatalf("StringLen=%d", o.StringLen())
	}
}

func TestStringRawEncoding(t *testing.T) {
	for _, s := range []string{"hello", "007", "+1", "-0", "1.5", "", "99999999999999999999999"} {
		o := NewString([]byte(s))
		if o.Enc != EncRaw {
			t.Errorf("%q should be raw-encoded", s)
		}
		if string(o.StringBytes()) != s {
			t.Errorf("%q round trip failed", s)
		}
	}
}

// TestParseStrictIntMatchesFormatRoundTrip: the hand-rolled canonical-integer
// check agrees with its definition — ParseInt succeeds and FormatInt prints
// the same bytes back — on the edges and on random digit strings. What it
// costs is TestParseStrictIntAllocations'.
func TestParseStrictIntMatchesFormatRoundTrip(t *testing.T) {
	ref := func(b []byte) (int64, bool) {
		n, err := strconv.ParseInt(string(b), 10, 64)
		if err != nil || len(b) > 20 || strconv.FormatInt(n, 10) != string(b) {
			return 0, false
		}
		return n, true
	}
	cases := []string{
		"", "-", "+", "0", "-0", "+0", "00", "01", "-01", "1", "-1", "+1", "10", "1_0", "1e3", "0x10", " 1", "1 ", "12a",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "-9999999999999999999", "18446744073709551616", "000000000000000000001",
		"hello", "3.14", "١٢٣",
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20_000; i++ {
		b := make([]byte, r.Intn(22))
		for j := range b {
			b[j] = "0123456789-+ a"[r.Intn(10+r.Intn(5))]
		}
		cases = append(cases, string(b))
	}
	for _, c := range cases {
		got, ok := parseStrictInt([]byte(c))
		want, wantOK := ref([]byte(c))
		if ok != wantOK || got != want {
			t.Fatalf("parseStrictInt(%q) = %d, %t; the round trip says %d, %t", c, got, ok, want, wantOK)
		}
	}
}

// TestParseStrictIntAllocations: the canonical-integer check costs no
// allocation on either answer.
func TestParseStrictIntAllocations(t *testing.T) {
	raw, num := []byte("not-a-number"), []byte("-1234567890")
	if n := testing.AllocsPerRun(100, func() { parseStrictInt(raw); parseStrictInt(num) }); n != 0 {
		t.Fatalf("parseStrictInt allocated %.1f times, want 0", n)
	}
}

func TestOverwriteOnlyRawWithRaw(t *testing.T) {
	o := NewString([]byte("a raw value"))
	sd := o.Val
	if !o.Overwrite([]byte("another")) || o.Val != sd || o.Enc != EncRaw || string(o.StringBytes()) != "another" {
		t.Fatalf("raw over raw: enc=%v val=%q, want the same sds rewritten", o.Enc, o.StringBytes())
	}
	if !o.Overwrite([]byte("007")) || string(o.StringBytes()) != "007" {
		t.Fatal("digits that are not a canonical integer are a raw string")
	}
	if o.Overwrite([]byte("42")) || string(o.StringBytes()) != "007" {
		t.Fatal("an integer payload belongs in the int encoding: Overwrite must refuse and leave the value alone")
	}
	if n := NewString([]byte("42")); n.Overwrite([]byte("raw")) || n.Enc != EncInt {
		t.Fatal("an int-encoded holder has no buffer to rewrite")
	}
	if l := NewList(); l.Overwrite([]byte("raw")) || l.Type != TList {
		t.Fatal("a list is not a string")
	}
}

func TestMutableSDSConvertsInt(t *testing.T) {
	o := NewString([]byte("42"))
	o.MutableSDS().AppendString("abc")
	if o.Enc != EncRaw || string(o.StringBytes()) != "42abc" {
		t.Fatalf("got enc=%v val=%q", o.Enc, o.StringBytes())
	}
}

func TestHashListpackToHTConversion(t *testing.T) {
	o := NewHash(1)
	if o.Enc != EncListpack {
		t.Fatal("hash should start listpack")
	}
	for i := 0; i < HashMaxListpackEntries; i++ {
		o.HashSet(fmt.Sprintf("f%d", i), []byte("v"))
	}
	if o.Enc != EncListpack {
		t.Fatal("converted too early")
	}
	o.HashSet("one-more", []byte("v"))
	if o.Enc != EncHT {
		t.Fatal("did not convert at entry threshold")
	}
	if o.HashLen() != HashMaxListpackEntries+1 {
		t.Fatalf("len=%d", o.HashLen())
	}
	for i := 0; i < HashMaxListpackEntries; i++ {
		if v, ok := o.HashGet(fmt.Sprintf("f%d", i)); !ok || string(v) != "v" {
			t.Fatalf("field f%d lost in conversion", i)
		}
	}
}

func TestHashBigValueForcesConversion(t *testing.T) {
	o := NewHash(1)
	o.HashSet("f", make([]byte, HashMaxListpackValue+1))
	if o.Enc != EncHT {
		t.Fatal("big value did not convert encoding")
	}
}

func TestHashSetGetDel(t *testing.T) {
	o := NewHash(1)
	if !o.HashSet("a", []byte("1")) {
		t.Fatal("create should return true")
	}
	if o.HashSet("a", []byte("2")) {
		t.Fatal("update should return false")
	}
	v, ok := o.HashGet("a")
	if !ok || string(v) != "2" {
		t.Fatalf("get=%q,%v", v, ok)
	}
	if !o.HashDel("a") || o.HashDel("a") {
		t.Fatal("del semantics")
	}
}

func TestSetIntsetToHTOnNonInteger(t *testing.T) {
	o := NewSet(1)
	o.SetAdd("1")
	o.SetAdd("2")
	if o.Enc != EncIntSet {
		t.Fatal("integer members should stay intset")
	}
	o.SetAdd("abc")
	if o.Enc != EncHT {
		t.Fatal("non-integer member did not convert")
	}
	for _, m := range []string{"1", "2", "abc"} {
		if !o.SetContains(m) {
			t.Fatalf("member %s lost", m)
		}
	}
}

func TestSetIntsetSizeConversion(t *testing.T) {
	o := NewSet(1)
	for i := 0; i <= SetMaxIntsetEntries; i++ {
		o.SetAdd(strconv.Itoa(i))
	}
	if o.Enc != EncHT {
		t.Fatal("intset did not convert at size threshold")
	}
	if o.SetLen() != SetMaxIntsetEntries+1 {
		t.Fatalf("len=%d", o.SetLen())
	}
}

func TestSetAddRemove(t *testing.T) {
	o := NewSet(1)
	if !o.SetAdd("5") || o.SetAdd("5") {
		t.Fatal("add semantics")
	}
	if !o.SetRemove("5") || o.SetRemove("5") {
		t.Fatal("remove semantics")
	}
	if o.SetRemove("notthere") {
		t.Fatal("removing absent non-integer from intset")
	}
}

func TestZSetConversionAndOrder(t *testing.T) {
	o := NewZSet(1)
	for i := 0; i <= ZSetMaxListpackEntries; i++ {
		o.ZAdd(fmt.Sprintf("m%03d", i), float64(i%7))
	}
	if o.Enc != EncSkiplist {
		t.Fatal("zset did not convert at threshold")
	}
	els := o.ZRangeByRank(0, -1)
	if len(els) != ZSetMaxListpackEntries+1 {
		t.Fatalf("len=%d", len(els))
	}
	for i := 1; i < len(els); i++ {
		a, b := els[i-1], els[i]
		if a.Score > b.Score || (a.Score == b.Score && a.Member >= b.Member) {
			t.Fatalf("order violated at %d: %v then %v", i, a, b)
		}
	}
}

func TestZSetScoreUpdateMovesRank(t *testing.T) {
	o := NewZSet(1)
	o.ZAdd("a", 1)
	o.ZAdd("b", 2)
	o.ZAdd("c", 3)
	if o.ZAdd("a", 10) {
		t.Fatal("update should return false")
	}
	r, ok := o.ZRank("a")
	if !ok || r != 2 {
		t.Fatalf("rank after update = %d,%v want 2", r, ok)
	}
	s, _ := o.ZScore("a")
	if s != 10 {
		t.Fatalf("score=%v", s)
	}
}

func TestZRemAndRangeByScore(t *testing.T) {
	o := NewZSet(1)
	for i := 0; i < 10; i++ {
		o.ZAdd(fmt.Sprintf("m%d", i), float64(i))
	}
	if !o.ZRem("m5") || o.ZRem("m5") {
		t.Fatal("zrem semantics")
	}
	els := o.ZRangeByScore(3, 7)
	if len(els) != 4 { // 3,4,6,7
		t.Fatalf("range by score len=%d", len(els))
	}
	if o.ZLen() != 9 {
		t.Fatalf("zlen=%d", o.ZLen())
	}
}

func TestTypeAndEncodingStrings(t *testing.T) {
	if TString.String() != "string" || TZSet.String() != "zset" {
		t.Fatal("type names")
	}
	if EncSkiplist.String() != "skiplist" || EncListpack.String() != "listpack" {
		t.Fatal("encoding names")
	}
}

// Property: hash object matches map model across encodings.
func TestHashModelProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Field uint8
		Val   []byte
	}
	f := func(ops []op) bool {
		o := NewHash(3)
		m := map[string][]byte{}
		for _, p := range ops {
			field := fmt.Sprintf("f%d", p.Field)
			switch p.Kind % 3 {
			case 0:
				_, existed := m[field]
				if o.HashSet(field, p.Val) == existed {
					return false
				}
				m[field] = p.Val
			case 1:
				v, ok := o.HashGet(field)
				mv, mok := m[field]
				if ok != mok || (ok && !bytes.Equal(v, mv)) {
					return false
				}
			case 2:
				_, existed := m[field]
				if o.HashDel(field) != existed {
					return false
				}
				delete(m, field)
			}
			if o.HashLen() != len(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: zset ZRangeByRank(0,-1) is always sorted and complete.
func TestZSetSortedProperty(t *testing.T) {
	f := func(scores []int8) bool {
		o := NewZSet(9)
		added := map[string]bool{}
		for i, sc := range scores {
			m := fmt.Sprintf("m%d", i%40)
			o.ZAdd(m, float64(sc))
			added[m] = true
		}
		els := o.ZRangeByRank(0, -1)
		if len(els) != len(added) {
			return false
		}
		for i := 1; i < len(els); i++ {
			a, b := els[i-1], els[i]
			if a.Score > b.Score || (a.Score == b.Score && a.Member >= b.Member) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
