// Package obj implements the Redis object layer SKV inherits (§IV):
// typed values (string, list, hash, set, sorted set) with
// memory-efficiency encodings and the conversion rules between them
// (int/raw strings, listpack→hashtable, intset→hashtable,
// listpack→skiplist).
package obj

import (
	"strconv"

	"skv/internal/adlist"
	"skv/internal/dict"
	"skv/internal/intset"
	"skv/internal/sds"
	"skv/internal/skiplist"
)

// Type is the user-visible value type (OBJ_STRING ...).
type Type int

// Value types.
const (
	TString Type = iota
	TList
	THash
	TSet
	TZSet
)

func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TList:
		return "list"
	case THash:
		return "hash"
	case TSet:
		return "set"
	case TZSet:
		return "zset"
	}
	return "unknown"
}

// Encoding is the internal representation (OBJ_ENCODING_*).
type Encoding int

// Encodings.
const (
	EncInt Encoding = iota
	EncRaw
	EncListpack
	EncHT
	EncIntSet
	EncSkiplist
	EncLinkedList
)

func (e Encoding) String() string {
	switch e {
	case EncInt:
		return "int"
	case EncRaw:
		return "raw"
	case EncListpack:
		return "listpack"
	case EncHT:
		return "hashtable"
	case EncIntSet:
		return "intset"
	case EncSkiplist:
		return "skiplist"
	case EncLinkedList:
		return "linkedlist"
	}
	return "unknown"
}

// Conversion thresholds (redis.conf defaults).
const (
	HashMaxListpackEntries = 128
	HashMaxListpackValue   = 64
	SetMaxIntsetEntries    = 512
	ZSetMaxListpackEntries = 128
	ZSetMaxListpackValue   = 64
)

// Object is one stored value.
type Object struct {
	Type Type
	Enc  Encoding
	// Val holds the concrete representation; see the constructors.
	Val any
	// seed feeds nested dicts/skiplists deterministically.
	seed int64
}

// ---- Strings ----

// NewString creates a string object, using the int encoding when the bytes
// are a canonical 64-bit decimal integer.
func NewString(b []byte) *Object {
	if n, ok := parseStrictInt(b); ok {
		return &Object{Type: TString, Enc: EncInt, Val: n}
	}
	return &Object{Type: TString, Enc: EncRaw, Val: sds.New(b)}
}

// NewStringFromInt creates an int-encoded string object.
func NewStringFromInt(n int64) *Object {
	return &Object{Type: TString, Enc: EncInt, Val: n}
}

// parseStrictInt accepts exactly the canonical decimal form of an int64 —
// what strconv.FormatInt prints: no "+", no leading zeros, no "-0" — and
// allocates nothing whether or not b is one (every string write asks).
func parseStrictInt(b []byte) (int64, bool) {
	digits := b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 19 || (digits[0] == '0' && (neg || len(digits) > 1)) {
		return 0, false
	}
	var n uint64 // 19 digits stay below 1e19 < 2^64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true // n == 1<<63 wraps to math.MinInt64, as it should
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}

// StringBytes materializes the string payload.
func (o *Object) StringBytes() []byte {
	if o.Enc == EncInt {
		return strconv.AppendInt(nil, o.Val.(int64), 10)
	}
	return o.Val.(*sds.SDS).Bytes()
}

// StringLen reports the payload length without materializing ints... except
// by formatting, which is cheap.
func (o *Object) StringLen() int {
	if o.Enc == EncInt {
		return len(strconv.FormatInt(o.Val.(int64), 10))
	}
	return o.Val.(*sds.SDS).Len()
}

// IntValue extracts the integer value of a string object; ok is false when
// the payload is not an integer.
func (o *Object) IntValue() (int64, bool) {
	if o.Enc == EncInt {
		return o.Val.(int64), true
	}
	return parseStrictInt(o.Val.(*sds.SDS).Bytes())
}

// Overwrite replaces a raw-encoded string's bytes in place, in the buffer it
// already has when b fits, and reports whether it did. It refuses — leaving
// o untouched, for the caller to install NewString(b) instead — unless o is a
// raw string and b is one too (an integer payload takes the int encoding).
// Bytes handed out by StringBytes before the call now read as b.
func (o *Object) Overwrite(b []byte) bool {
	if o.Type != TString || o.Enc != EncRaw {
		return false
	}
	if _, isInt := parseStrictInt(b); isInt {
		return false
	}
	o.Val.(*sds.SDS).Set(b)
	return true
}

// SetInt rewrites a string object in place with an integer payload.
func (o *Object) SetInt(n int64) {
	o.Enc = EncInt
	o.Val = n
}

// MutableSDS returns the raw-encoded SDS, converting from int encoding if
// needed (for APPEND/SETRANGE).
func (o *Object) MutableSDS() *sds.SDS {
	if o.Enc == EncInt {
		o.Val = sds.New(strconv.AppendInt(nil, o.Val.(int64), 10))
		o.Enc = EncRaw
	}
	return o.Val.(*sds.SDS)
}

// ---- Lists ----

// NewList creates an empty list object.
func NewList() *Object {
	return &Object{Type: TList, Enc: EncLinkedList, Val: adlist.New()}
}

// List returns the underlying list.
func (o *Object) List() *adlist.List { return o.Val.(*adlist.List) }

// ---- Hashes ----

// lpPair is one field/value pair in the listpack encoding.
type lpPair struct {
	field string
	value []byte
}

// NewHash creates an empty hash object (listpack-encoded).
func NewHash(seed int64) *Object {
	return &Object{Type: THash, Enc: EncListpack, Val: []lpPair{}, seed: seed}
}

func (o *Object) hashToHT() {
	pairs := o.Val.([]lpPair)
	d := dict.New(o.seed)
	for _, p := range pairs {
		d.Set(p.field, p.value)
	}
	o.Val = d
	o.Enc = EncHT
}

// HashSet inserts or updates a field; reports whether it was created.
func (o *Object) HashSet(field string, value []byte) bool {
	if o.Enc == EncListpack {
		pairs := o.Val.([]lpPair)
		for i := range pairs {
			if pairs[i].field == field {
				pairs[i].value = value
				return false
			}
		}
		if len(pairs)+1 > HashMaxListpackEntries ||
			len(field) > HashMaxListpackValue || len(value) > HashMaxListpackValue {
			o.hashToHT()
			return o.HashSet(field, value)
		}
		o.Val = append(pairs, lpPair{field: field, value: value})
		return true
	}
	return o.Val.(*dict.Dict).Set(field, value)
}

// HashGet fetches a field.
func (o *Object) HashGet(field string) ([]byte, bool) {
	if o.Enc == EncListpack {
		for _, p := range o.Val.([]lpPair) {
			if p.field == field {
				return p.value, true
			}
		}
		return nil, false
	}
	v, ok := o.Val.(*dict.Dict).Get(field)
	if !ok {
		return nil, false
	}
	return v.([]byte), true
}

// HashDel removes a field; reports whether it existed.
func (o *Object) HashDel(field string) bool {
	if o.Enc == EncListpack {
		pairs := o.Val.([]lpPair)
		for i := range pairs {
			if pairs[i].field == field {
				o.Val = append(pairs[:i], pairs[i+1:]...)
				return true
			}
		}
		return false
	}
	return o.Val.(*dict.Dict).Delete(field)
}

// HashLen reports the field count.
func (o *Object) HashLen() int {
	if o.Enc == EncListpack {
		return len(o.Val.([]lpPair))
	}
	return o.Val.(*dict.Dict).Len()
}

// HashEach iterates fields; returning false stops.
func (o *Object) HashEach(fn func(field string, value []byte) bool) {
	if o.Enc == EncListpack {
		for _, p := range o.Val.([]lpPair) {
			if !fn(p.field, p.value) {
				return
			}
		}
		return
	}
	o.Val.(*dict.Dict).Each(func(k string, v any) bool { return fn(k, v.([]byte)) })
}

// ---- Sets ----

// NewSet creates an empty set object; the first member decides whether it
// starts as an intset.
func NewSet(seed int64) *Object {
	return &Object{Type: TSet, Enc: EncIntSet, Val: intset.New(), seed: seed}
}

func (o *Object) setToHT() {
	is := o.Val.(*intset.IntSet)
	d := dict.New(o.seed)
	for _, v := range is.Members() {
		d.Set(strconv.FormatInt(v, 10), nil)
	}
	o.Val = d
	o.Enc = EncHT
}

// SetAdd inserts a member; reports whether it was new.
func (o *Object) SetAdd(member string) bool {
	if o.Enc == EncIntSet {
		if n, ok := parseStrictInt([]byte(member)); ok {
			is := o.Val.(*intset.IntSet)
			if is.Len()+1 > SetMaxIntsetEntries {
				o.setToHT()
				return o.SetAdd(member)
			}
			return is.Add(n)
		}
		o.setToHT()
	}
	return o.Val.(*dict.Dict).Set(member, nil)
}

// SetRemove deletes a member; reports whether it existed.
func (o *Object) SetRemove(member string) bool {
	if o.Enc == EncIntSet {
		n, ok := parseStrictInt([]byte(member))
		if !ok {
			return false
		}
		return o.Val.(*intset.IntSet).Remove(n)
	}
	return o.Val.(*dict.Dict).Delete(member)
}

// SetContains reports membership.
func (o *Object) SetContains(member string) bool {
	if o.Enc == EncIntSet {
		n, ok := parseStrictInt([]byte(member))
		if !ok {
			return false
		}
		return o.Val.(*intset.IntSet).Contains(n)
	}
	_, ok := o.Val.(*dict.Dict).Get(member)
	return ok
}

// SetLen reports the cardinality.
func (o *Object) SetLen() int {
	if o.Enc == EncIntSet {
		return o.Val.(*intset.IntSet).Len()
	}
	return o.Val.(*dict.Dict).Len()
}

// SetEach iterates members; returning false stops.
func (o *Object) SetEach(fn func(member string) bool) {
	if o.Enc == EncIntSet {
		for _, v := range o.Val.(*intset.IntSet).Members() {
			if !fn(strconv.FormatInt(v, 10)) {
				return
			}
		}
		return
	}
	o.Val.(*dict.Dict).Each(func(k string, _ any) bool { return fn(k) })
}

// SetRandomMember samples one member; ok false when empty.
func (o *Object) SetRandomMember() (string, bool) {
	if o.Enc == EncIntSet {
		is := o.Val.(*intset.IntSet)
		if is.Len() == 0 {
			return "", false
		}
		// Deterministic: middle element (the store layer shuffles via its
		// own RNG when true randomness matters).
		v, _ := is.Get(is.Len() / 2)
		return strconv.FormatInt(v, 10), true
	}
	return o.Val.(*dict.Dict).RandomKey()
}

// ---- Sorted sets ----

// zset pairs a member→score dict with a score-ordered skiplist, exactly the
// dual structure of t_zset.c.
type zset struct {
	dict *dict.Dict
	sl   *skiplist.SkipList
}

// zslPair is one member in the listpack zset encoding.
type zslPair struct {
	member string
	score  float64
}

// NewZSet creates an empty sorted-set object (listpack-encoded).
func NewZSet(seed int64) *Object {
	return &Object{Type: TZSet, Enc: EncListpack, Val: []zslPair{}, seed: seed}
}

func (o *Object) zsetToSkiplist() {
	pairs := o.Val.([]zslPair)
	z := &zset{dict: dict.New(o.seed), sl: skiplist.New(o.seed + 1)}
	for _, p := range pairs {
		z.dict.Set(p.member, p.score)
		z.sl.Insert(p.member, p.score)
	}
	o.Val = z
	o.Enc = EncSkiplist
}

// ZAdd inserts or updates a member's score; reports whether it was new.
func (o *Object) ZAdd(member string, score float64) bool {
	if o.Enc == EncListpack {
		pairs := o.Val.([]zslPair)
		for i := range pairs {
			if pairs[i].member == member {
				pairs[i].score = score
				o.zsetListpackSort()
				return false
			}
		}
		if len(pairs)+1 > ZSetMaxListpackEntries || len(member) > ZSetMaxListpackValue {
			o.zsetToSkiplist()
			return o.ZAdd(member, score)
		}
		o.Val = append(pairs, zslPair{member: member, score: score})
		o.zsetListpackSort()
		return true
	}
	z := o.Val.(*zset)
	if old, ok := z.dict.Get(member); ok {
		if old.(float64) != score {
			z.sl.Delete(member, old.(float64))
			z.sl.Insert(member, score)
			z.dict.Set(member, score)
		}
		return false
	}
	z.dict.Set(member, score)
	z.sl.Insert(member, score)
	return true
}

func (o *Object) zsetListpackSort() {
	pairs := o.Val.([]zslPair)
	// Insertion sort: listpacks are tiny and nearly sorted.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0; j-- {
			a, b := pairs[j-1], pairs[j]
			if a.score < b.score || (a.score == b.score && a.member <= b.member) {
				break
			}
			pairs[j-1], pairs[j] = b, a
		}
	}
}

// ZScore fetches a member's score.
func (o *Object) ZScore(member string) (float64, bool) {
	if o.Enc == EncListpack {
		for _, p := range o.Val.([]zslPair) {
			if p.member == member {
				return p.score, true
			}
		}
		return 0, false
	}
	v, ok := o.Val.(*zset).dict.Get(member)
	if !ok {
		return 0, false
	}
	return v.(float64), true
}

// ZRem removes a member; reports whether it existed.
func (o *Object) ZRem(member string) bool {
	if o.Enc == EncListpack {
		pairs := o.Val.([]zslPair)
		for i := range pairs {
			if pairs[i].member == member {
				o.Val = append(pairs[:i], pairs[i+1:]...)
				return true
			}
		}
		return false
	}
	z := o.Val.(*zset)
	score, ok := z.dict.Get(member)
	if !ok {
		return false
	}
	z.dict.Delete(member)
	z.sl.Delete(member, score.(float64))
	return true
}

// ZLen reports the cardinality.
func (o *Object) ZLen() int {
	if o.Enc == EncListpack {
		return len(o.Val.([]zslPair))
	}
	return o.Val.(*zset).dict.Len()
}

// ZRank reports the 0-based ascending rank.
func (o *Object) ZRank(member string) (int, bool) {
	if o.Enc == EncListpack {
		for i, p := range o.Val.([]zslPair) {
			if p.member == member {
				return i, true
			}
		}
		return 0, false
	}
	z := o.Val.(*zset)
	score, ok := z.dict.Get(member)
	if !ok {
		return 0, false
	}
	return z.sl.Rank(member, score.(float64))
}

// ZRangeByRank collects elements by rank window (ZRANGE semantics).
func (o *Object) ZRangeByRank(start, stop int) []skiplist.Element {
	if o.Enc == EncListpack {
		pairs := o.Val.([]zslPair)
		n := len(pairs)
		if start < 0 {
			start = n + start
			if start < 0 {
				start = 0
			}
		}
		if stop < 0 {
			stop = n + stop
		}
		if start > stop || start >= n {
			return nil
		}
		if stop >= n {
			stop = n - 1
		}
		out := make([]skiplist.Element, 0, stop-start+1)
		for _, p := range pairs[start : stop+1] {
			out = append(out, skiplist.Element{Member: p.member, Score: p.score})
		}
		return out
	}
	return o.Val.(*zset).sl.RangeByRank(start, stop)
}

// ZRangeByScore collects elements with scores in [min, max].
func (o *Object) ZRangeByScore(min, max float64) []skiplist.Element {
	if o.Enc == EncListpack {
		var out []skiplist.Element
		for _, p := range o.Val.([]zslPair) {
			if p.score >= min && p.score <= max {
				out = append(out, skiplist.Element{Member: p.member, Score: p.score})
			}
		}
		return out
	}
	return o.Val.(*zset).sl.RangeByScore(min, max)
}

// FormatScore renders a score the way Redis replies do.
func FormatScore(f float64) string {
	return strconv.FormatFloat(f, 'g', 17, 64)
}

// ---- Cursor scans (SCAN-family support) ----

// HashScan performs one cursor step over a hash: hashtable encodings use
// the rehash-safe dict scan; listpack encodings return everything in one
// step. Returns the next cursor (0 = done).
func (o *Object) HashScan(cursor uint64, fn func(field string, value []byte)) uint64 {
	if o.Enc == EncListpack {
		for _, p := range o.Val.([]lpPair) {
			fn(p.field, p.value)
		}
		return 0
	}
	return o.Val.(*dict.Dict).Scan(cursor, func(k string, v any) {
		fn(k, v.([]byte))
	})
}

// SetScan performs one cursor step over a set.
func (o *Object) SetScan(cursor uint64, fn func(member string)) uint64 {
	if o.Enc == EncIntSet {
		for _, v := range o.Val.(*intset.IntSet).Members() {
			fn(strconv.FormatInt(v, 10))
		}
		return 0
	}
	return o.Val.(*dict.Dict).Scan(cursor, func(k string, _ any) { fn(k) })
}

// ZSetScan performs one cursor step over a sorted set.
func (o *Object) ZSetScan(cursor uint64, fn func(member string, score float64)) uint64 {
	if o.Enc == EncListpack {
		for _, p := range o.Val.([]zslPair) {
			fn(p.member, p.score)
		}
		return 0
	}
	return o.Val.(*zset).dict.Scan(cursor, func(k string, v any) {
		fn(k, v.(float64))
	})
}
