package sds

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewAndBasics(t *testing.T) {
	s := NewString("hello")
	if s.Len() != 5 || s.String() != "hello" {
		t.Fatalf("basics: len=%d str=%q", s.Len(), s.String())
	}
	var zero SDS
	if zero.Len() != 0 || zero.String() != "" {
		t.Fatal("zero value not empty")
	}
}

func TestAppendGrows(t *testing.T) {
	s := New(nil)
	for i := 0; i < 1000; i++ {
		s.AppendString("ab")
	}
	if s.Len() != 2000 {
		t.Fatalf("len=%d", s.Len())
	}
	if s.Avail() < 0 {
		t.Fatal("negative avail")
	}
}

func TestAppendInt(t *testing.T) {
	s := NewString("n=")
	s.AppendInt(-42)
	if s.String() != "n=-42" {
		t.Fatalf("got %q", s.String())
	}
}

func TestSetRangeExtendsWithZeroPadding(t *testing.T) {
	s := NewString("Hello")
	n := s.SetRange(10, []byte("World"))
	if n != 15 {
		t.Fatalf("new length %d", n)
	}
	want := append([]byte("Hello"), 0, 0, 0, 0, 0)
	want = append(want, "World"...)
	if !bytes.Equal(s.Bytes(), want) {
		t.Fatalf("got %q", s.Bytes())
	}
}

func TestSetRangeOverwrite(t *testing.T) {
	s := NewString("Hello World")
	s.SetRange(6, []byte("Redis"))
	if s.String() != "Hello Redis" {
		t.Fatalf("got %q", s.String())
	}
}

func TestRangeSemantics(t *testing.T) {
	s := NewString("This is a string")
	cases := []struct {
		start, end int
		want       string
	}{
		{0, 3, "This"},
		{-3, -1, "ing"},
		{0, -1, "This is a string"},
		{10, 100, "string"},
		{5, 3, ""},
		{100, 200, ""},
		{-100, 3, "This"},
	}
	for _, c := range cases {
		if got := string(s.Range(c.start, c.end)); got != c.want {
			t.Errorf("Range(%d,%d) = %q, want %q", c.start, c.end, got, c.want)
		}
	}
	var empty SDS
	if empty.Range(0, -1) != nil {
		t.Error("range of empty should be nil")
	}
}

func TestSetReusesTheBufferWhenItFits(t *testing.T) {
	s := NewString("sixteen bytes...")
	held, c := s.Bytes(), cap(s.buf)
	s.Set([]byte("shorter"))
	if s.String() != "shorter" || cap(s.buf) != c || &held[0] != &s.buf[0] {
		t.Fatalf("Set of a shorter value: %q cap %d, want the same %d-byte buffer", s.String(), cap(s.buf), c)
	}
	s.Set([]byte("sixteen bytes!!!"))
	if s.String() != "sixteen bytes!!!" || cap(s.buf) != c {
		t.Fatalf("Set back to full size: %q cap %d", s.String(), cap(s.buf))
	}
	s.Set([]byte("this one is longer than sixteen bytes"))
	if s.String() != "this one is longer than sixteen bytes" || cap(s.buf) != s.Len() {
		t.Fatalf("Set of a longer value: %q cap %d, want an exactly sized buffer", s.String(), cap(s.buf))
	}
	s.Set(nil)
	if s.Len() != 0 {
		t.Fatalf("Set(nil) left %q", s.String())
	}
	var zero SDS
	zero.Set([]byte("x"))
	if zero.String() != "x" {
		t.Fatal("Set on the zero value")
	}
}

func TestClearKeepsCapacity(t *testing.T) {
	s := NewString("some content here")
	c := cap(s.buf)
	s.Clear()
	if s.Len() != 0 || cap(s.buf) != c {
		t.Fatal("Clear released capacity or kept length")
	}
}

func TestDupIsDeep(t *testing.T) {
	a := NewString("abc")
	b := a.Dup()
	b.AppendString("def")
	if a.String() != "abc" || b.String() != "abcdef" {
		t.Fatal("Dup not deep")
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"a", "b", -1}, {"b", "a", 1}, {"a", "a", 0},
		{"a", "ab", -1}, {"ab", "a", 1}, {"", "", 0},
	}
	for _, c := range cases {
		if got := NewString(c.a).Cmp(NewString(c.b)); got != c.want {
			t.Errorf("Cmp(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Cmp agrees with bytes.Compare for arbitrary inputs.
func TestCmpMatchesBytesCompare(t *testing.T) {
	f := func(a, b []byte) bool {
		return New(a).Cmp(New(b)) == bytes.Compare(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: appending arbitrary chunks equals the concatenation.
func TestAppendConcatProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		s := New(nil)
		var want []byte
		for _, c := range chunks {
			s.Append(c)
			want = append(want, c...)
		}
		return bytes.Equal(s.Bytes(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SetRange then Range reads back what was written.
func TestSetRangeReadback(t *testing.T) {
	f := func(prefix []byte, off uint8, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := New(prefix)
		o := int(off)
		s.SetRange(o, data)
		got := s.Range(o, o+len(data)-1)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
