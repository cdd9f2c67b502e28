package resp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodeHelpers(t *testing.T) {
	cases := []struct {
		got  []byte
		want string
	}{
		{AppendSimple(nil, "OK"), "+OK\r\n"},
		{AppendError(nil, "ERR boom"), "-ERR boom\r\n"},
		{AppendInt(nil, -7), ":-7\r\n"},
		{AppendBulk(nil, []byte("hey")), "$3\r\nhey\r\n"},
		{AppendBulkString(nil, ""), "$0\r\n\r\n"},
		{AppendNullBulk(nil), "$-1\r\n"},
		{AppendArrayHeader(nil, 2), "*2\r\n"},
		{AppendNullArray(nil), "*-1\r\n"},
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestEncodeCommand(t *testing.T) {
	b := EncodeCommand("SET", "key", "val")
	want := "*3\r\n$3\r\nSET\r\n$3\r\nkey\r\n$3\r\nval\r\n"
	if string(b) != want {
		t.Fatalf("got %q", b)
	}
}

func TestReadValueKinds(t *testing.T) {
	var r Reader
	r.Feed([]byte("+OK\r\n:42\r\n$5\r\nhello\r\n$-1\r\n*-1\r\n-ERR x\r\n"))

	v, ok, err := r.ReadValue()
	if err != nil || !ok || !v.IsOK() {
		t.Fatalf("simple: %v %v %v", v, ok, err)
	}
	v, _, _ = r.ReadValue()
	if v.Type != TypeInteger || v.Int != 42 {
		t.Fatalf("integer: %+v", v)
	}
	v, _, _ = r.ReadValue()
	if v.Type != TypeBulk || string(v.Str) != "hello" {
		t.Fatalf("bulk: %+v", v)
	}
	v, _, _ = r.ReadValue()
	if !v.Null || v.Type != TypeBulk {
		t.Fatalf("null bulk: %+v", v)
	}
	v, _, _ = r.ReadValue()
	if !v.Null || v.Type != TypeArray {
		t.Fatalf("null array: %+v", v)
	}
	v, _, _ = r.ReadValue()
	if !v.IsError() || v.String() != "ERR x" {
		t.Fatalf("error: %+v", v)
	}
}

func TestReadNestedArray(t *testing.T) {
	var r Reader
	r.Feed([]byte("*2\r\n*2\r\n:1\r\n:2\r\n$1\r\nx\r\n"))
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		t.Fatalf("nested: %v %v", ok, err)
	}
	if len(v.Array) != 2 || len(v.Array[0].Array) != 2 || v.Array[0].Array[1].Int != 2 {
		t.Fatalf("nested structure wrong: %s", v.String())
	}
}

func TestIncrementalFeeding(t *testing.T) {
	full := []byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nworld\r\n")
	for cut := 1; cut < len(full)-1; cut++ {
		var r Reader
		r.Feed(full[:cut])
		argv, ok, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("cut %d: err %v", cut, err)
		}
		if ok {
			// Only complete when cut covers everything — not possible here.
			t.Fatalf("cut %d: premature completion %v", cut, argv)
		}
		r.Feed(full[cut:])
		argv, ok, err = r.ReadCommand()
		if err != nil || !ok {
			t.Fatalf("cut %d: second read %v %v", cut, ok, err)
		}
		if len(argv) != 3 || string(argv[0]) != "SET" || string(argv[2]) != "world" {
			t.Fatalf("cut %d: argv %q", cut, argv)
		}
	}
}

func TestInlineCommand(t *testing.T) {
	var r Reader
	r.Feed([]byte("PING\r\n\r\nSET key val\r\n"))
	argv, ok, err := r.ReadCommand()
	if err != nil || !ok || string(argv[0]) != "PING" {
		t.Fatalf("inline 1: %q %v %v", argv, ok, err)
	}
	argv, ok, err = r.ReadCommand()
	if err != nil || !ok || len(argv) != 3 || string(argv[1]) != "key" {
		t.Fatalf("inline 2 (after blank line): %q %v %v", argv, ok, err)
	}
}

func TestProtocolErrors(t *testing.T) {
	bad := []string{
		"!weird\r\n",
		":notanum\r\n",
		"$-5\r\n",
		"$3\r\nabcXY",
	}
	for _, s := range bad {
		var r Reader
		r.Feed([]byte(s))
		_, _, err := r.ReadValue()
		if err == nil {
			t.Errorf("input %q: expected protocol error", s)
		}
	}
}

func TestCommandArrayMustBeBulks(t *testing.T) {
	var r Reader
	r.Feed([]byte("*1\r\n:5\r\n"))
	_, _, err := r.ReadCommand()
	if err == nil {
		t.Fatal("integer inside command array accepted")
	}
}

// Property: any command round-trips through encode → feed-in-chunks →
// decode.
func TestCommandRoundTripProperty(t *testing.T) {
	f := func(rawArgs [][]byte, chunk uint8) bool {
		if len(rawArgs) == 0 {
			return true
		}
		enc := EncodeCommandBytes(rawArgs...)
		var r Reader
		step := int(chunk)%7 + 1
		for off := 0; off < len(enc); off += step {
			end := off + step
			if end > len(enc) {
				end = len(enc)
			}
			r.Feed(enc[off:end])
		}
		argv, ok, err := r.ReadCommand()
		if err != nil || !ok || len(argv) != len(rawArgs) {
			return false
		}
		for i := range argv {
			if !bytes.Equal(argv[i], rawArgs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded values decode to themselves (bulk payload arbitrary).
func TestBulkRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var r Reader
		r.Feed(AppendBulk(nil, payload))
		v, ok, err := r.ReadValue()
		return err == nil && ok && v.Type == TypeBulk && bytes.Equal(v.Str, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueStringRendering(t *testing.T) {
	var r Reader
	r.Feed([]byte("*2\r\n:1\r\n$1\r\nx\r\n"))
	v, _, _ := r.ReadValue()
	if v.String() != "[1 x]" {
		t.Fatalf("render %q", v.String())
	}
}

// Encoders size their output exactly: one allocation, no spare capacity.
func TestEncodeCommandIsOneExactAllocation(t *testing.T) {
	args := []string{"SET", "", "key:0000012345", string(bytes.Repeat([]byte("v"), 1000))}
	argv := make([][]byte, len(args))
	for i, a := range args {
		argv[i] = []byte(a)
	}
	for n := 0; n <= len(args); n++ {
		s, b := EncodeCommand(args[:n]...), EncodeCommandBytes(argv[:n]...)
		if !bytes.Equal(s, b) || len(s) != cap(s) || len(b) != cap(b) {
			t.Fatalf("%d args: %d/%d and %d/%d bytes used/reserved, equal=%v", n, len(s), cap(s), len(b), cap(b), bytes.Equal(s, b))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = EncodeCommandBytes(argv...) }); allocs != 1 {
		t.Fatalf("EncodeCommandBytes allocates %.0f times, want 1", allocs)
	}
}
