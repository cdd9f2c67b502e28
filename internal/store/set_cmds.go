package store

import (
	"sort"

	"skv/internal/obj"
	"skv/internal/resp"
)

// lookupSet fetches a key that must hold a set.
func lookupSet(s *Store, dbi int, key string) (*obj.Object, bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, true
	}
	if o.Type != obj.TSet {
		return nil, false
	}
	return o, true
}

func cmdSAdd(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewSet(s.seed())
		s.setKey(dbi, key, o)
	}
	added := int64(0)
	for _, m := range argv[2:] {
		if o.SetAdd(string(m)) {
			added++
		}
	}
	if added > 0 {
		s.Dirty++
	}
	return resp.AppendInt(nil, added), added > 0
}

func cmdSRem(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	removed := int64(0)
	for _, m := range argv[2:] {
		if o.SetRemove(string(m)) {
			removed++
		}
	}
	if o.SetLen() == 0 {
		s.deleteKey(dbi, key)
	}
	if removed > 0 {
		s.Dirty++
	}
	return resp.AppendInt(nil, removed), removed > 0
}

func cmdSIsMember(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o != nil && o.SetContains(string(argv[2])) {
		return one(), false
	}
	return zero(), false
}

func cmdSCard(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(o.SetLen())), false
}

func setMembers(o *obj.Object) []string {
	var out []string
	o.SetEach(func(m string) bool {
		out = append(out, m)
		return true
	})
	return out
}

func cmdSMembers(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	members := setMembers(o)
	out := resp.AppendArrayHeader(nil, len(members))
	for _, m := range members {
		out = resp.AppendBulkString(out, m)
	}
	return out, false
}

func cmdSPop(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupSet(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	m, found := o.SetRandomMember()
	if !found {
		return nullBulk(), false
	}
	o.SetRemove(m)
	if o.SetLen() == 0 {
		s.deleteKey(dbi, key)
	}
	s.Dirty++
	return resp.AppendBulkString(nil, m), true
}

func cmdSRandMember(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupSet(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	m, found := o.SetRandomMember()
	if !found {
		return nullBulk(), false
	}
	return resp.AppendBulkString(nil, m), false
}

// setOp builds the membership maps for SINTER/SUNION/SDIFF.
func setOp(s *Store, dbi int, keys [][]byte) ([]map[string]bool, []byte) {
	sets := make([]map[string]bool, len(keys))
	for i, k := range keys {
		o, okType := lookupSet(s, dbi, string(k))
		if !okType {
			return nil, wrongType()
		}
		m := map[string]bool{}
		if o != nil {
			o.SetEach(func(member string) bool {
				m[member] = true
				return true
			})
		}
		sets[i] = m
	}
	return sets, nil
}

func replyMembers(members []string) []byte {
	out := resp.AppendArrayHeader(nil, len(members))
	for _, m := range members {
		out = resp.AppendBulkString(out, m)
	}
	return out
}

func cmdSInter(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	sets, errReply := setOp(s, dbi, argv[1:])
	if errReply != nil {
		return errReply, false
	}
	var out []string
	for m := range sets[0] {
		in := true
		for _, other := range sets[1:] {
			if !other[m] {
				in = false
				break
			}
		}
		if in {
			out = append(out, m)
		}
	}
	sortStrings(out)
	return replyMembers(out), false
}

func cmdSUnion(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	sets, errReply := setOp(s, dbi, argv[1:])
	if errReply != nil {
		return errReply, false
	}
	union := map[string]bool{}
	for _, set := range sets {
		for m := range set {
			union[m] = true
		}
	}
	out := make([]string, 0, len(union))
	for m := range union {
		out = append(out, m)
	}
	sortStrings(out)
	return replyMembers(out), false
}

func cmdSDiff(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	sets, errReply := setOp(s, dbi, argv[1:])
	if errReply != nil {
		return errReply, false
	}
	var out []string
	for m := range sets[0] {
		in := false
		for _, other := range sets[1:] {
			if other[m] {
				in = true
				break
			}
		}
		if !in {
			out = append(out, m)
		}
	}
	sortStrings(out)
	return replyMembers(out), false
}

// sortStrings keeps set-operation replies deterministic (Redis does not
// guarantee order; determinism simplifies tests and replication checks).
func sortStrings(ss []string) { sort.Strings(ss) }
