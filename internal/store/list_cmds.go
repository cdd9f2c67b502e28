package store

import (
	"bytes"
	"strconv"

	"skv/internal/adlist"
	"skv/internal/obj"
	"skv/internal/resp"
)

// lookupList fetches a key that must hold a list.
func lookupList(s *Store, dbi int, key string) (*obj.Object, bool) {
	o := s.lookup(dbi, key)
	if o == nil {
		return nil, true
	}
	if o.Type != obj.TList {
		return nil, false
	}
	return o, true
}

func pushGeneric(s *Store, dbi int, argv [][]byte, head bool) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupList(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		o = obj.NewList()
		s.setKey(dbi, key, o)
	}
	l := o.List()
	for _, v := range argv[2:] {
		elem := append([]byte(nil), v...)
		if head {
			l.PushHead(elem)
		} else {
			l.PushTail(elem)
		}
	}
	s.Dirty++
	return resp.AppendInt(nil, int64(l.Len())), true
}

func cmdLPush(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return pushGeneric(s, dbi, argv, true)
}

func cmdRPush(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return pushGeneric(s, dbi, argv, false)
}

func popGeneric(s *Store, dbi int, argv [][]byte, head bool) ([]byte, bool) {
	key := string(argv[1])
	o, okType := lookupList(s, dbi, key)
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	l := o.List()
	var v any
	var got bool
	if head {
		v, got = l.PopHead()
	} else {
		v, got = l.PopTail()
	}
	if !got {
		return nullBulk(), false
	}
	if l.Len() == 0 {
		s.deleteKey(dbi, key)
	}
	s.Dirty++
	return resp.AppendBulk(nil, v.([]byte)), true
}

func cmdLPop(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return popGeneric(s, dbi, argv, true)
}

func cmdRPop(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	return popGeneric(s, dbi, argv, false)
}

func cmdLLen(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	o, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	return resp.AppendInt(nil, int64(o.List().Len())), false
}

func cmdLRange(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	start, err1 := strconv.Atoi(string(argv[2]))
	stop, err2 := strconv.Atoi(string(argv[3]))
	if err1 != nil || err2 != nil {
		return notInt(), false
	}
	o, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendArrayHeader(nil, 0), false
	}
	vals := o.List().Range(start, stop)
	out := resp.AppendArrayHeader(nil, len(vals))
	for _, v := range vals {
		out = resp.AppendBulk(out, v.([]byte))
	}
	return out, false
}

func cmdLIndex(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	idx, err := strconv.Atoi(string(argv[2]))
	if err != nil {
		return notInt(), false
	}
	o, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return nullBulk(), false
	}
	n := o.List().Index(idx)
	if n == nil {
		return nullBulk(), false
	}
	return resp.AppendBulk(nil, n.Value.([]byte)), false
}

func cmdLSet(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	idx, err := strconv.Atoi(string(argv[2]))
	if err != nil {
		return notInt(), false
	}
	o, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return resp.AppendError(nil, "ERR no such key"), false
	}
	n := o.List().Index(idx)
	if n == nil {
		return resp.AppendError(nil, "ERR index out of range"), false
	}
	n.Value = append([]byte(nil), argv[3]...)
	s.Dirty++
	return ok(), true
}

func cmdLRem(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	count, err := strconv.Atoi(string(argv[2]))
	if err != nil {
		return notInt(), false
	}
	o, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if o == nil {
		return zero(), false
	}
	l := o.List()
	removed := int64(0)
	match := func(n *adlist.Node) bool { return bytes.Equal(n.Value.([]byte), argv[3]) }
	if count >= 0 {
		limit := count
		for n := l.Head(); n != nil; {
			next := n.Next()
			if match(n) {
				l.Remove(n)
				removed++
				if limit > 0 && int(removed) == limit {
					break
				}
			}
			n = next
		}
	} else {
		limit := -count
		for n := l.Tail(); n != nil; {
			prev := n.Prev()
			if match(n) {
				l.Remove(n)
				removed++
				if int(removed) == limit {
					break
				}
			}
			n = prev
		}
	}
	if l.Len() == 0 {
		s.deleteKey(dbi, string(argv[1]))
	}
	if removed > 0 {
		s.Dirty++
	}
	return resp.AppendInt(nil, removed), removed > 0
}

func cmdRPopLPush(s *Store, dbi int, argv [][]byte) ([]byte, bool) {
	src, okType := lookupList(s, dbi, string(argv[1]))
	if !okType {
		return wrongType(), false
	}
	if src == nil {
		return nullBulk(), false
	}
	dst, okType := lookupList(s, dbi, string(argv[2]))
	if !okType {
		return wrongType(), false
	}
	v, got := src.List().PopTail()
	if !got {
		return nullBulk(), false
	}
	if dst == nil {
		dst = obj.NewList()
		s.setKey(dbi, string(argv[2]), dst)
	}
	dst.List().PushHead(v)
	if src.List().Len() == 0 {
		s.deleteKey(dbi, string(argv[1]))
	}
	s.Dirty++
	return resp.AppendBulk(nil, v.([]byte)), true
}
