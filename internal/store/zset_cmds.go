package store

import (
	"math"
	"strconv"
	"strings"

	"skv/internal/obj"
	"skv/internal/resp"
	"skv/internal/skiplist"
)

// lookupZSet fetches a key that must hold a sorted set.
func lookupZSet(s *Store, dbi int, key string) (*obj.Object, bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, true
	}
	if o.Type != obj.TZSet {
		return nil, false
	}
	return o, true
}

func parseScore(b []byte) (float64, bool) {
	switch strings.ToLower(string(b)) {
	case "+inf", "inf":
		return math.Inf(1), true
	case "-inf":
		return math.Inf(-1), true
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

func cmdZAdd(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	if (len(argv)-2)%2 != 0 {
		return syntaxErr(), false
	}
	key := string(argv[1])
	o, okType := lookupZSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	// Validate all scores first (atomicity).
	type pair struct {
		score  float64
		member string
	}
	pairs := make([]pair, 0, (len(argv)-2)/2)
	for i := 2; i < len(argv); i += 2 {
		f, okF := parseScore(argv[i])
		if !okF {
			return notFloat(), false
		}
		pairs = append(pairs, pair{score: f, member: string(argv[i+1])})
	}
	if o == nil {
		o = obj.NewZSet(s.seed())
		s.setKey(dbi, key, o)
	}
	added := int64(0)
	for _, p := range pairs {
		if o.ZAdd(p.member, p.score) {
			added++
		}
	}
	s.Dirty++
	return resp.AppendInt(nil, added), true
}

func cmdZRem(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupZSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	removed := int64(0)
	for _, m := range argv[2:] {
		if o.ZRem(string(m)) {
			removed++
		}
	}
	if o.ZLen() == 0 {
		s.deleteKey(dbi, key)
	}
	if removed > 0 {
		s.Dirty++
	}
	return resp.AppendInt(nil, removed), removed > 0
}

func cmdZScore(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	score, found := o.ZScore(string(argv[2]))
	if !found {
		return nullBulk(), false
	}
	return resp.AppendBulkString(nil, obj.FormatScore(score)), false
}

func cmdZCard(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(o.ZLen())), false
}

func cmdZRank(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	r, found := o.ZRank(string(argv[2]))
	if !found {
		return nullBulk(), false
	}
	return resp.AppendInt(nil, int64(r)), false
}

func cmdZIncrBy(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	delta, okF := parseScore(argv[2])
	if !okF {
		return notFloat(), false
	}
	key := string(argv[1])
	o, okType := lookupZSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewZSet(s.seed())
		s.setKey(dbi, key, o)
	}
	member := string(argv[3])
	cur, _ := o.ZScore(member)
	cur += delta
	o.ZAdd(member, cur)
	s.Dirty++
	return resp.AppendBulkString(nil, obj.FormatScore(cur)), true
}

func zrangeReply(els []skiplist.Element, withScores bool) []byte {
	n := len(els)
	if withScores {
		n *= 2
	}
	out := resp.AppendArrayHeader(nil, n)
	for _, e := range els {
		out = resp.AppendBulkString(out, e.Member)
		if withScores {
			out = resp.AppendBulkString(out, obj.FormatScore(e.Score))
		}
	}
	return out
}

func zrangeGeneric(s *Store, dbi int, argv [][]byte, reverse bool) ([]byte, bool) {
	start, err1 := strconv.Atoi(string(argv[2]))
	stop, err2 := strconv.Atoi(string(argv[3]))
	if err1 != nil || err2 != nil {
		return notInt(), false
	}
	withScores := false
	if len(argv) == 5 {
		if !strings.EqualFold(string(argv[4]), "WITHSCORES") {
			return syntaxErr(), false
		}
		withScores = true
	}
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	var els []skiplist.Element
	if reverse {
		// Reverse rank window maps onto the ascending one.
		n := o.ZLen()
		rs, re := start, stop
		if rs < 0 {
			rs = n + rs
		}
		if re < 0 {
			re = n + re
		}
		els = o.ZRangeByRank(n-1-re, n-1-rs)
		for i, j := 0, len(els)-1; i < j; i, j = i+1, j-1 {
			els[i], els[j] = els[j], els[i]
		}
	} else {
		els = o.ZRangeByRank(start, stop)
	}
	return zrangeReply(els, withScores), false
}

func cmdZRange(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return zrangeGeneric(s, dbi, argv, false)
}

func cmdZRevRange(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return zrangeGeneric(s, dbi, argv, true)
}

func cmdZRangeByScore(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	min, ok1 := parseScore(argv[2])
	max, ok2 := parseScore(argv[3])
	if !ok1 || !ok2 {
		return resp.AppendError(nil, "ERR min or max is not a float"), false
	}
	withScores := false
	if len(argv) == 5 {
		if !strings.EqualFold(string(argv[4]), "WITHSCORES") {
			return syntaxErr(), false
		}
		withScores = true
	}
	o, okType := lookupZSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	return zrangeReply(o.ZRangeByScore(min, max), withScores), false
}
