package resp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// The three inputs that crashed the decoder before lengths were bounded: a
// bulk length whose +2 overflows, a count makeslice refuses, and a count
// that reserved gigabytes for elements that never arrive.
var crashInputs = []string{
	"*1\r\n$9223372036854775807\r\n",
	"*9223372036854775807\r\n",
	"*100000000\r\n",
}

func TestOversizedLengthsAreProtocolErrors(t *testing.T) {
	for _, in := range crashInputs {
		var r Reader
		r.Feed([]byte(in))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		argv, ok, err := r.ReadCommand()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrProtocol) || ok || argv != nil {
			t.Errorf("ReadCommand(%q) = %q, %v, %v; want ErrProtocol", in, argv, ok, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("ReadCommand(%q) allocated %d bytes for lengths it only announced", in, grew)
		}
	}
	// A reply may legitimately carry more elements than a command may carry
	// arguments, so ReadValue has no count cap — but it reserves nothing
	// until the elements are there, and a bulk length is bounded everywhere.
	for in, wantErr := range map[string]bool{
		"$9223372036854775807\r\n":            true,
		"*2\r\n$536870913\r\n":                true,
		"*9223372036854775807\r\n":            false,
		"*100000000\r\n:1\r\n":                false,
		">100000000\r\n$10\r\ninvalidate\r\n": false,
	} {
		var r Reader
		r.Feed([]byte(in))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok, err := r.ReadValue()
		runtime.ReadMemStats(&after)
		if ok || errors.Is(err, ErrProtocol) != wantErr {
			t.Errorf("ReadValue(%q): ok=%v err=%v, want error=%v", in, ok, err, wantErr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("ReadValue(%q) allocated %d bytes for lengths it only announced", in, grew)
		}
	}
}

// TestReadCommandAllocations pins the copy-once design: a multibulk command
// costs its argument slab and its argv header, nothing per argument.
func TestReadCommandAllocations(t *testing.T) {
	cmd := EncodeCommand("SET", "key:0000012345", "some-reasonably-sized-value-payload")
	var r Reader
	allocs := testing.AllocsPerRun(1000, func() {
		r.Feed(cmd)
		if argv, ok, err := r.ReadCommand(); !ok || err != nil || len(argv) != 3 {
			t.Fatalf("parse failed: %q %v %v", argv, ok, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ReadCommand allocated %.1f times per command, want <= 2", allocs)
	}
	reply := []byte("*3\r\n$1\r\na\r\n$2\r\nbb\r\n*2\r\n:1\r\n+ok\r\n")
	allocs = testing.AllocsPerRun(1000, func() {
		r.Feed(reply)
		if v, ok, err := r.ReadValue(); !ok || err != nil || len(v.Array) != 3 {
			t.Fatalf("parse failed: %v %v %v", v, ok, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("ReadValue allocated %.1f times per nested reply, want <= 2", allocs)
	}
}

// TestArgvIsOwned: what ReadCommand returns must survive whatever happens to
// the Reader next, and appending to one argument must not reach the next.
func TestArgvIsOwned(t *testing.T) {
	var r Reader
	r.Feed([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\nSET a b\r\n"))
	first, _, _ := r.ReadCommand()
	second, _, _ := r.ReadCommand()
	r.Feed(bytes.Repeat([]byte("x"), 8192))
	_ = append(first[0], "!!!"...)
	_ = append(second[0], "!!!"...)
	if got := fmt.Sprintf("%q %q", first, second); got != `["GET" "k"] ["SET" "a" "b"]` {
		t.Fatalf("argv changed under the caller: %s", got)
	}
}

// seedInputs is the checked-in corpus both fuzz targets start from.
var seedInputs = []string{
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nworld\r\n",
	"PING\r\n\r\nSET key val\r\n",
	"\r\n\r\n  \r\n",
	"GET \tk x\r\n*1\r\n$4\r\nPING\r\n",
	"*2\r\n$-1\r\n$1\r\na\r\n",
	"*-1\r\n", "*0\r\n", "$-1\r\n", "*1\r\n*-1\r\n",
	"*1\r\n:5\r\n", "*2\r\n$1\r\na\r\n*2\r\n:1\r\n+x\r\n",
	">2\r\n$10\r\ninvalidate\r\n$14\r\nkey:0000000042\r\n",
	"+OK\r\n:42\r\n$5\r\nhello\r\n$-1\r\n*-1\r\n-ERR x\r\n",
	"*2\r\n*2\r\n:1\r\n:2\r\n$1\r\nx\r\n",
	"*1\r\n$+1\r\na\r\n", "*+1\r\n$01\r\na\r\n", "$-0\r\n\r\n", "*-0\r\n",
	"!weird\r\n", ":notanum\r\n", ":+7\r\n", "$-5\r\n", "$3\r\nabcXY", "$1\rX\r\na\r\n",
	"*1\r\n$0\r\n\r\n", "+\r\n", "*1000000\r\n$1\r\na\r\n", "*1048577\r\n",
}

func addSeeds(f *testing.F) {
	for _, in := range append(seedInputs, crashInputs...) {
		f.Add([]byte(in), []byte(nil))
		f.Add([]byte(in), []byte{1})
		f.Add([]byte(in), []byte{3, 1, 7})
	}
	// One command split at every byte.
	cmd := []byte(seedInputs[0])
	for cut := 1; cut < len(cmd); cut++ {
		f.Add(cmd, []byte{byte(cut), 255})
	}
}

// feed hands data to feedFn in the chunk sizes splits cycles through (none:
// all at once), calling drain after every chunk until it reports an error.
func feed(data, splits []byte, feedFn func([]byte), drain func() error) error {
	if len(splits) == 0 {
		feedFn(data)
		return drain()
	}
	for i := 0; len(data) > 0; i++ {
		n := max(int(splits[i%len(splits)]), 1)
		n = min(n, len(data))
		feedFn(data[:n])
		data = data[n:]
		if err := drain(); err != nil {
			return err
		}
	}
	return nil
}

// withinOracleBounds reports whether every length data announces is one the
// old decoder can be shown without it panicking or reserving gigabytes: the
// new decoder's own bounds.
func withinOracleBounds(data []byte) bool {
	for i, b := range data {
		if b != TypeBulk && b != TypeArray && b != TypePush {
			continue
		}
		n, digits := 0, 0
		for _, d := range data[i+1:] {
			if d == '+' && digits == 0 {
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			if digits++; digits > 10 {
				return false
			}
			n = n*10 + int(d-'0')
		}
		if n > maxBulkLen || (b != TypeBulk && n > maxMultibulk) {
			return false
		}
	}
	return true
}

// cmdOutcome is everything observable about decoding a byte stream as
// commands: the argvs in order, whether it ended in a protocol error, and
// what was left buffered if it did not.
type cmdOutcome struct {
	argvs    [][][]byte
	failed   bool
	buffered int
}

func (a cmdOutcome) diff(b cmdOutcome) string {
	if a.failed != b.failed || len(a.argvs) != len(b.argvs) || (!a.failed && a.buffered != b.buffered) {
		return fmt.Sprintf("%d commands, failed=%v, %d buffered vs %d commands, failed=%v, %d buffered",
			len(a.argvs), a.failed, a.buffered, len(b.argvs), b.failed, b.buffered)
	}
	for i := range a.argvs {
		if len(a.argvs[i]) != len(b.argvs[i]) {
			return fmt.Sprintf("command %d: %q vs %q", i, a.argvs[i], b.argvs[i])
		}
		for j := range a.argvs[i] {
			if !bytes.Equal(a.argvs[i][j], b.argvs[i][j]) {
				return fmt.Sprintf("command %d: %q vs %q", i, a.argvs[i], b.argvs[i])
			}
		}
	}
	return ""
}

type commandReader interface {
	Feed([]byte)
	ReadCommand() ([][]byte, bool, error)
	ReadValue() (Value, bool, error)
	Buffered() int
}

func decodeCommands(t *testing.T, r commandReader, data, splits []byte) cmdOutcome {
	var out cmdOutcome
	err := feed(data, splits, r.Feed, func() error {
		for {
			argv, ok, err := r.ReadCommand()
			if err != nil {
				if !errors.Is(err, ErrProtocol) || ok || argv != nil {
					t.Fatalf("ReadCommand failed with %q, %v, %v", argv, ok, err)
				}
				return err
			}
			if !ok {
				return nil
			}
			if len(argv) == 0 {
				t.Fatalf("ReadCommand returned an empty command")
			}
			out.argvs = append(out.argvs, argv)
		}
	})
	out.failed, out.buffered = err != nil, r.Buffered()
	return out
}

func FuzzReadCommand(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		whole := decodeCommands(t, &Reader{}, data, nil)
		if d := whole.diff(decodeCommands(t, &Reader{}, data, splits)); d != "" {
			t.Fatalf("fed whole vs fed in splits %v: %s", splits, d)
		}
		if !withinOracleBounds(data) {
			return
		}
		if d := whole.diff(decodeCommands(t, &oracleReader{}, data, nil)); d != "" {
			t.Fatalf("new decoder vs old: %s", d)
		}
	})
}

// borrowingReader decodes commands with BorrowCommand and hands each out as a
// copy taken before the next read, which is all a borrower is promised; it
// then scribbles over the bytes it was lent, which it may, and which shows
// up as a divergence if the Reader ever looks at consumed bytes again.
type borrowingReader struct {
	Reader
	argv [][]byte
}

func (r *borrowingReader) ReadCommand() ([][]byte, bool, error) {
	argv, ok, err := r.BorrowCommand(r.argv)
	r.argv = argv
	if !ok || err != nil {
		if len(argv) != 0 {
			panic("BorrowCommand returned arguments without a command")
		}
		return nil, ok, err
	}
	out := make([][]byte, len(argv))
	for i, a := range argv {
		out[i] = append([]byte{}, a...)
		for j := range a {
			a[j] = '*'
		}
	}
	return out, true, nil
}

// FuzzBorrowCommand: the borrowing read and the copying read are one decoder
// — same commands, same errors, same bytes left over — on any input, cut into
// any chunks.
func FuzzBorrowCommand(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		copied := decodeCommands(t, &Reader{}, data, splits)
		if d := copied.diff(decodeCommands(t, &borrowingReader{}, data, splits)); d != "" {
			t.Fatalf("ReadCommand vs BorrowCommand, splits %v: %s", splits, d)
		}
	})
}

// TestBorrowCommandAllocations: with the previous argv handed back in, a
// borrowing read allocates nothing — the arguments stay where they were fed.
func TestBorrowCommandAllocations(t *testing.T) {
	cmd := EncodeCommand("SET", "key:0000012345", "some-reasonably-sized-value-payload")
	var r Reader
	var argv [][]byte
	allocs := testing.AllocsPerRun(1000, func() {
		r.Feed(cmd)
		var ok bool
		var err error
		if argv, ok, err = r.BorrowCommand(argv); !ok || err != nil || len(argv) != 3 || string(argv[1]) != "key:0000012345" {
			t.Fatalf("parse failed: %q %v %v", argv, ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BorrowCommand allocated %.1f times per command, want 0", allocs)
	}
}

// TestBorrowedArgvLifetime: a borrowed argv survives a Feed, dies at the next
// read, and cannot be appended to past its own argument.
func TestBorrowedArgvLifetime(t *testing.T) {
	var r Reader
	r.Feed([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*2\r\n$3\r\nGET\r\n$1\r\nj\r\n"))
	first, ok, err := r.BorrowCommand(nil)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	r.Feed(bytes.Repeat([]byte("x"), 8192))
	_ = append(first[0], "!!!"...)
	if got := fmt.Sprintf("%q", first); got != `["GET" "k"]` {
		t.Fatalf("borrowed argv changed before the next read: %s", got)
	}
	second, ok, err := r.BorrowCommand(first)
	if !ok || err != nil || fmt.Sprintf("%q", second) != `["GET" "j"]` {
		t.Fatalf("second command: %q %v %v", second, ok, err)
	}
}

type valOutcome struct {
	vals     []Value
	failed   bool
	buffered int
}

func sameValue(a, b Value) bool {
	if a.Type != b.Type || a.Int != b.Int || a.Null != b.Null || !bytes.Equal(a.Str, b.Str) ||
		len(a.Array) != len(b.Array) || (a.Array == nil) != (b.Array == nil) {
		return false
	}
	for i := range a.Array {
		if !sameValue(a.Array[i], b.Array[i]) {
			return false
		}
	}
	return true
}

func (a valOutcome) diff(b valOutcome) string {
	if a.failed != b.failed || len(a.vals) != len(b.vals) || (!a.failed && a.buffered != b.buffered) {
		return fmt.Sprintf("%d values, failed=%v, %d buffered vs %d values, failed=%v, %d buffered",
			len(a.vals), a.failed, a.buffered, len(b.vals), b.failed, b.buffered)
	}
	for i := range a.vals {
		if !sameValue(a.vals[i], b.vals[i]) {
			return fmt.Sprintf("value %d: %+v vs %+v", i, a.vals[i], b.vals[i])
		}
	}
	return ""
}

func decodeValues(t *testing.T, r commandReader, data, splits []byte) valOutcome {
	var out valOutcome
	err := feed(data, splits, r.Feed, func() error {
		for {
			v, ok, err := r.ReadValue()
			if err != nil {
				if !errors.Is(err, ErrProtocol) || ok {
					t.Fatalf("ReadValue failed with ok=%v, %v", ok, err)
				}
				return err
			}
			if !ok {
				return nil
			}
			out.vals = append(out.vals, v)
		}
	})
	out.failed, out.buffered = err != nil, r.Buffered()
	return out
}

func FuzzReadValue(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		whole := decodeValues(t, &Reader{}, data, nil)
		if d := whole.diff(decodeValues(t, &Reader{}, data, splits)); d != "" {
			t.Fatalf("fed whole vs fed in splits %v: %s", splits, d)
		}
		if !withinOracleBounds(data) {
			return
		}
		if d := whole.diff(decodeValues(t, &oracleReader{}, data, nil)); d != "" {
			t.Fatalf("new decoder vs old: %s", d)
		}
	})
}

// borrowingValueReader decodes values with BorrowValue and hands each out as
// a deep copy taken before the next read, which is all a borrower is
// promised; it then scribbles over the strings and array elements it was
// lent, which shows up as a divergence if the Reader ever looks at them again.
type borrowingValueReader struct{ Reader }

func (r *borrowingValueReader) ReadValue() (Value, bool, error) {
	v, ok, err := r.BorrowValue()
	if !ok || err != nil {
		return v, ok, err
	}
	out := cloneValue(v)
	scribble(v)
	return out, true, nil
}

func cloneValue(v Value) Value {
	if v.Str != nil {
		v.Str = append([]byte{}, v.Str...)
	}
	if v.Array != nil {
		arr := make([]Value, len(v.Array))
		for i, e := range v.Array {
			arr[i] = cloneValue(e)
		}
		v.Array = arr
	}
	return v
}

func scribble(v Value) {
	for i := range v.Str {
		v.Str[i] = '*'
	}
	for i := range v.Array {
		scribble(v.Array[i])
		v.Array[i] = Value{Type: '?'}
	}
}

// FuzzBorrowValue: the borrowing reply read and ReadValue are one decoder —
// same values, same errors, same bytes left over — on any input, cut into any
// chunks.
func FuzzBorrowValue(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data, splits []byte) {
		copied := decodeValues(t, &Reader{}, data, splits)
		if d := copied.diff(decodeValues(t, &borrowingValueReader{}, data, splits)); d != "" {
			t.Fatalf("ReadValue vs BorrowValue, splits %v: %s", splits, d)
		}
	})
}

// TestBorrowValueAllocations: a borrowing reply read allocates nothing — a
// bulk reply, a status reply and an invalidation push (an array) alike —
// once its element scratch has grown to the widest reply seen.
func TestBorrowValueAllocations(t *testing.T) {
	replies := AppendBulk(nil, []byte("some-reasonably-sized-value-payload"))
	replies = AppendSimple(replies, "OK")
	replies = AppendInvalidatePush(replies, []byte("key:0000012345"))
	var r Reader
	allocs := testing.AllocsPerRun(1000, func() {
		r.Feed(replies)
		for i := 0; i < 3; i++ {
			if _, ok, err := r.BorrowValue(); !ok || err != nil {
				t.Fatalf("reply %d: ok=%v err=%v", i, ok, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("BorrowValue allocated %.1f times per three replies, want 0", allocs)
	}
}

// TestBorrowedValueLifetime: a borrowed value survives a Feed and dies at the
// next read.
func TestBorrowedValueLifetime(t *testing.T) {
	var r Reader
	r.Feed([]byte("$5\r\nfirst\r\n$6\r\nsecond\r\n"))
	first, ok, err := r.BorrowValue()
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	r.Feed(bytes.Repeat([]byte("x"), 8192))
	if string(first.Str) != "first" {
		t.Fatalf("borrowed value changed before the next read: %q", first.Str)
	}
	second, ok, err := r.BorrowValue()
	if !ok || err != nil || string(second.Str) != "second" {
		t.Fatalf("second value: %q %v %v", second.Str, ok, err)
	}
}
