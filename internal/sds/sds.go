// Package sds implements simple dynamic strings in the style of Redis's
// sds library: a byte buffer that tracks its own length and grows with
// preallocation so repeated appends are amortized O(1).
//
// SKV inherits Redis's data-structure layer (paper §IV); sds backs string
// values, reply buffers, and the replication backlog's staging buffers.
package sds

import "strconv"

// maxPrealloc caps the doubling growth policy, mirroring
// SDS_MAX_PREALLOC (1MB) in Redis.
const maxPrealloc = 1 << 20

// SDS is a dynamic string. The zero value is an empty string ready to use.
type SDS struct {
	buf []byte
}

// New creates an SDS holding a copy of init.
func New(init []byte) *SDS {
	s := &SDS{}
	if len(init) > 0 {
		s.buf = append(make([]byte, 0, len(init)), init...)
	}
	return s
}

// NewString creates an SDS from a Go string.
func NewString(init string) *SDS { return New([]byte(init)) }

// Len reports the string length in bytes.
func (s *SDS) Len() int { return len(s.buf) }

// Avail reports the free capacity before reallocation.
func (s *SDS) Avail() int { return cap(s.buf) - len(s.buf) }

// Bytes exposes the underlying bytes. The slice is valid until the next
// mutating call.
func (s *SDS) Bytes() []byte { return s.buf }

// String copies the content out as a Go string.
func (s *SDS) String() string { return string(s.buf) }

// grow ensures room for n more bytes using the Redis preallocation policy:
// double the needed size below maxPrealloc, add maxPrealloc above it.
func (s *SDS) grow(n int) {
	need := len(s.buf) + n
	if need <= cap(s.buf) {
		return
	}
	var newCap int
	if need < maxPrealloc {
		newCap = need * 2
	} else {
		newCap = need + maxPrealloc
	}
	nb := make([]byte, len(s.buf), newCap)
	copy(nb, s.buf)
	s.buf = nb
}

// Append appends raw bytes.
func (s *SDS) Append(b []byte) *SDS {
	s.grow(len(b))
	s.buf = append(s.buf, b...)
	return s
}

// AppendString appends a Go string.
func (s *SDS) AppendString(str string) *SDS {
	s.grow(len(str))
	s.buf = append(s.buf, str...)
	return s
}

// AppendInt appends the decimal representation of i.
func (s *SDS) AppendInt(i int64) *SDS {
	s.grow(20)
	s.buf = strconv.AppendInt(s.buf, i, 10)
	return s
}

// SetRange overwrites bytes starting at offset, zero-padding any gap, and
// returns the new length (the semantics of Redis SETRANGE).
func (s *SDS) SetRange(offset int, b []byte) int {
	if offset < 0 {
		offset = 0
	}
	end := offset + len(b)
	if end > len(s.buf) {
		s.grow(end - len(s.buf))
		for len(s.buf) < end {
			s.buf = append(s.buf, 0)
		}
	}
	copy(s.buf[offset:], b)
	return len(s.buf)
}

// Range extracts the inclusive byte range [start, end] with Redis GETRANGE
// semantics: negative indices count from the end; out-of-range yields empty.
func (s *SDS) Range(start, end int) []byte {
	n := len(s.buf)
	if n == 0 {
		return nil
	}
	if start < 0 {
		start = n + start
		if start < 0 {
			start = 0
		}
	}
	if end < 0 {
		end = n + end
		if end < 0 {
			end = 0
		}
	}
	if end >= n {
		end = n - 1
	}
	if start > end || start >= n {
		return nil
	}
	out := make([]byte, end-start+1)
	copy(out, s.buf[start:end+1])
	return out
}

// Set replaces the content with a copy of b, in the existing buffer when it
// has the capacity and in one exactly sized like New's otherwise.
func (s *SDS) Set(b []byte) {
	if len(b) > cap(s.buf) {
		s.buf = make([]byte, 0, len(b))
	}
	s.buf = append(s.buf[:0], b...)
}

// Clear empties the string without releasing capacity (sdsclear).
func (s *SDS) Clear() { s.buf = s.buf[:0] }

// Dup returns a deep copy.
func (s *SDS) Dup() *SDS { return New(s.buf) }

// Cmp compares two strings lexicographically like bytes.Compare.
func (s *SDS) Cmp(o *SDS) int {
	a, b := s.buf, o.buf
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
