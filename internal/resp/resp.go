// Package resp implements the Redis serialization protocol (RESP2) that SKV
// inherits from Redis: command parsing on the server side (arrays of bulk
// strings, plus inline commands) and reply encoding/decoding.
//
// The Reader is incremental: transport messages can split or coalesce
// protocol units arbitrarily, exactly as TCP segments or RDMA ring frames
// do, and parsing resumes when more bytes arrive.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Value types.
const (
	TypeSimple  = '+'
	TypeError   = '-'
	TypeInteger = ':'
	TypeBulk    = '$'
	TypeArray   = '*'
	// TypePush is the RESP3 push frame ('>'): a server-initiated message
	// interleaved with replies on the same connection. SKV speaks RESP2
	// everywhere except this one frame, which carries client-tracking
	// invalidations (as Redis 6 does for clients that negotiated tracking).
	TypePush = '>'
)

// ErrProtocol reports malformed input; a server replies with an error and
// closes the connection.
var ErrProtocol = errors.New("resp: protocol error")

// Value is one decoded RESP value.
type Value struct {
	Type  byte
	Str   []byte  // Simple/Error/Bulk payload
	Int   int64   // Integer payload
	Array []Value // Array elements
	Null  bool    // null bulk ($-1) or null array (*-1)
}

// IsWord reports whether arg is word — a command or option name, given in
// lower case — in any ASCII letter case, without allocating.
func IsWord(arg []byte, word string) bool {
	if len(arg) != len(word) {
		return false
	}
	for i := 0; i < len(word); i++ {
		ch := arg[i]
		if 'A' <= ch && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != word[i] {
			return false
		}
	}
	return true
}

// IsOK reports whether the value is the +OK simple string.
func (v Value) IsOK() bool { return v.Type == TypeSimple && string(v.Str) == "OK" }

// IsError reports whether the value is an error reply.
func (v Value) IsError() bool { return v.Type == TypeError }

// IsPush reports whether the value is a server-initiated push frame. Reply
// loops must check this before matching the value against their oldest
// in-flight request — a push consumes no request.
func (v Value) IsPush() bool { return v.Type == TypePush }

func (v Value) String() string {
	switch v.Type {
	case TypeSimple, TypeError:
		return string(v.Str)
	case TypeInteger:
		return strconv.FormatInt(v.Int, 10)
	case TypeBulk:
		if v.Null {
			return "(nil)"
		}
		return string(v.Str)
	case TypeArray:
		if v.Null {
			return "(nil array)"
		}
		var b bytes.Buffer
		b.WriteByte('[')
		for i, e := range v.Array {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	}
	return "?"
}

// ---- Encoding ----

// AppendSimple appends +s\r\n.
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendError appends -msg\r\n.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, '-')
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}

// AppendInt appends :n\r\n.
func AppendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendBulk appends $len\r\npayload\r\n.
func AppendBulk(dst, payload []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, payload...)
	return append(dst, '\r', '\n')
}

// AppendBulkString appends a bulk from a Go string.
func AppendBulkString(dst []byte, s string) []byte { return AppendBulk(dst, []byte(s)) }

// AppendNullBulk appends $-1\r\n.
func AppendNullBulk(dst []byte) []byte { return append(dst, '$', '-', '1', '\r', '\n') }

// AppendArrayHeader appends *n\r\n; the caller then appends n values.
func AppendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

// AppendNullArray appends *-1\r\n.
func AppendNullArray(dst []byte) []byte { return append(dst, '*', '-', '1', '\r', '\n') }

// AppendInvalidatePush appends the client-tracking invalidation push frame
// >2\r\n$10\r\ninvalidate\r\n$<len>\r\n<key>\r\n — the one RESP3 frame the
// tracking plane injects into a RESP2 reply stream.
func AppendInvalidatePush(dst []byte, key []byte) []byte {
	dst = append(dst, TypePush)
	dst = append(dst, '2', '\r', '\n')
	dst = AppendBulkString(dst, "invalidate")
	return AppendBulk(dst, key)
}

// EncodeCommand encodes argv as an array of bulk strings (the client→server
// wire format).
func EncodeCommand(argv ...string) []byte {
	size := headerSize(len(argv))
	for _, a := range argv {
		size += BulkSize(len(a))
	}
	dst := AppendArrayHeader(make([]byte, 0, size), len(argv))
	for _, a := range argv {
		dst = AppendBulkString(dst, a)
	}
	return dst
}

// EncodeCommandBytes is EncodeCommand for byte-slice arguments.
func EncodeCommandBytes(argv ...[]byte) []byte {
	return AppendCommand(make([]byte, 0, CommandSize(argv)), argv)
}

// AppendCommand appends argv's wire encoding to dst: what a producer that
// owns a buffer (a replication batch, a pipelined request) uses instead of
// encoding into a temporary and copying it over.
func AppendCommand(dst []byte, argv [][]byte) []byte {
	dst = AppendArrayHeader(dst, len(argv))
	for _, a := range argv {
		dst = AppendBulk(dst, a)
	}
	return dst
}

// CommandSize is the encoded size of argv.
func CommandSize(argv [][]byte) int {
	size := headerSize(len(argv))
	for _, a := range argv {
		size += BulkSize(len(a))
	}
	return size
}

// BulkSize is the encoded size of a bulk string holding n bytes.
func BulkSize(n int) int { return headerSize(n) + n + 2 }

// headerSize is the encoded size of a "*n\r\n" or "$n\r\n" header, n >= 0:
// what lets a command be encoded into one exactly-sized allocation.
func headerSize(n int) int {
	size := 4
	for ; n >= 10; n /= 10 {
		size++
	}
	return size
}

// ---- Incremental decoding ----

// Limits on the lengths a peer may announce, checked before anything is
// sized or indexed with them (Redis's proto-max-bulk-len and its multibulk
// cap). Nothing is ever reserved for bytes that have not arrived: a value is
// measured in place first and copied out only once it is complete.
const (
	maxBulkLen   = 512 << 20
	maxMultibulk = 1 << 20
)

// Reader incrementally decodes RESP values or commands from fed bytes.
//
// Everything a Read call returns is the caller's to keep: argv and Values
// are copied out of the fed bytes into one allocation per command or reply
// (plus the argv or array header), never aliased to the Reader's buffer.
// BorrowCommand and BorrowValue are the exceptions, and say so.
type Reader struct {
	buf []byte
	pos int
	// elems is BorrowValue's array scratch, reused by every borrowing read.
	elems []Value
}

// Feed appends incoming bytes (a copy: the caller keeps b).
func (r *Reader) Feed(b []byte) { r.buf = append(r.buf, b...) }

// Buffered reports unconsumed byte count.
func (r *Reader) Buffered() int { return len(r.buf) - r.pos }

func (r *Reader) compact() {
	if r.pos > 0 && r.pos == len(r.buf) {
		r.buf = r.buf[:0]
		r.pos = 0
	} else if r.pos > 4096 {
		r.buf = append(r.buf[:0], r.buf[r.pos:]...)
		r.pos = 0
	}
}

var crlf = []byte("\r\n")

// line returns the CRLF-terminated line starting at pos (without the CRLF)
// and the position after it; ok is false when the line is incomplete.
func (r *Reader) line(pos int) (l []byte, next int, ok bool) {
	idx := bytes.Index(r.buf[pos:], crlf)
	if idx < 0 {
		return nil, pos, false
	}
	return r.buf[pos : pos+idx], pos + idx + 2, true
}

// length reads the decimal line after the type byte at pos: a bulk length or
// an element count. It accepts exactly what strconv.Atoi accepts; the plain
// run of digits every encoder emits is decoded in place.
func (r *Reader) length(pos int) (n, next int, ok bool, err error) {
	buf := r.buf
	if pos >= len(buf) {
		return 0, pos, false, nil
	}
	i := pos + 1
	for i < len(buf) && i-pos <= 9 && buf[i]-'0' <= 9 {
		n = n*10 + int(buf[i]-'0')
		i++
	}
	if i > pos+1 && i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n' {
		return n, i + 2, true, nil
	}
	l, next, ok := r.line(pos + 1)
	if !ok {
		return 0, pos, false, nil
	}
	n, convErr := strconv.Atoi(string(l))
	if convErr != nil || n < -1 {
		what := "array"
		if buf[pos] == TypeBulk {
			what = "bulk"
		}
		return 0, pos, false, fmt.Errorf("%w: bad %s length %q", ErrProtocol, what, l)
	}
	return n, next, true, nil
}

// bulk locates the bulk string whose '$' is at pos: its payload is
// buf[start:start+n] (n == -1: the null bulk) and the next value begins at
// next. ok is false until the payload and its CRLF have arrived.
func (r *Reader) bulk(pos int) (start, n, next int, ok bool, err error) {
	n, start, ok, err = r.length(pos)
	if err != nil || !ok {
		return 0, 0, pos, false, err
	}
	if n == -1 {
		return start, -1, start, true, nil
	}
	if n > maxBulkLen {
		return 0, 0, pos, false, fmt.Errorf("%w: bulk length %d exceeds %d", ErrProtocol, n, maxBulkLen)
	}
	if len(r.buf)-start < n+2 {
		return 0, 0, pos, false, nil
	}
	if r.buf[start+n] != '\r' || r.buf[start+n+1] != '\n' {
		return 0, 0, pos, false, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
	}
	return start, n, start + n + 2, true, nil
}

// size is what a value needs once copied out: the bytes of every string in
// it and the elements of every array in it.
type size struct{ bytes, elems int }

// scan validates the value at pos without copying any of it and adds what
// it will occupy to sz. ok is false when the value is incomplete.
func (r *Reader) scan(pos int, sz *size) (next int, ok bool, err error) {
	if pos >= len(r.buf) {
		return pos, false, nil
	}
	switch t := r.buf[pos]; t {
	case TypeSimple, TypeError:
		l, next, ok := r.line(pos + 1)
		sz.bytes += len(l)
		return next, ok, nil
	case TypeInteger:
		l, next, ok := r.line(pos + 1)
		if !ok {
			return pos, false, nil
		}
		if _, err := strconv.ParseInt(string(l), 10, 64); err != nil {
			return pos, false, fmt.Errorf("%w: bad integer %q", ErrProtocol, l)
		}
		return next, true, nil
	case TypeBulk:
		_, n, next, ok, err := r.bulk(pos)
		if ok && n > 0 {
			sz.bytes += n
		}
		return next, ok, err
	case TypeArray, TypePush:
		n, next, ok, err := r.length(pos)
		if err != nil || !ok {
			return pos, false, err
		}
		for i := 0; i < n; i++ {
			if next, ok, err = r.scan(next, sz); err != nil || !ok {
				return pos, false, err
			}
		}
		if n > 0 {
			sz.elems += n // all n are in the buffer: this reserves nothing the peer has not sent
		}
		return next, true, nil
	default:
		return pos, false, fmt.Errorf("%w: unexpected byte %q", ErrProtocol, t)
	}
}

// ReadValue decodes one complete value. ok=false means more bytes needed
// (cursor unchanged). The value is the caller's to keep: BorrowValue plus a
// copy of every string into one allocation and every array into another.
func (r *Reader) ReadValue() (Value, bool, error) { return r.readValue(false) }

// BorrowValue is ReadValue without the copy, for a consumer that is done
// with a reply before it reads the next one (a client matching replies to
// requests): strings alias the Reader's buffer and arrays its element
// scratch, both valid until the next Read or Borrow call (a Feed in between
// leaves them intact). Once the scratch has grown to the deepest reply seen,
// a borrowing read allocates nothing.
func (r *Reader) BorrowValue() (Value, bool, error) { return r.readValue(true) }

// readValue is the one value decoder under both reads.
func (r *Reader) readValue(borrow bool) (Value, bool, error) {
	r.compact() // a borrowed previous value's bytes die here, not under its reader
	var sz size
	end, ok, err := r.scan(r.pos, &sz)
	if err != nil || !ok {
		return Value{}, false, err
	}
	b := builder{r: r, borrow: borrow}
	switch {
	case borrow:
		b.elems = r.elems[:0]
		if cap(b.elems) < sz.elems {
			b.elems = make([]Value, 0, sz.elems)
		}
	case sz.elems > 0:
		b.elems = make([]Value, 0, sz.elems)
	}
	if !borrow && sz.bytes > 0 {
		b.bytes = make([]byte, 0, sz.bytes)
	}
	v, _ := b.value(r.pos)
	if borrow {
		r.elems = b.elems
	}
	r.pos = end
	return v, true, nil
}

// builder builds a scanned value out of the reader's buffer: every string
// copied into bytes (or, borrowing, aliased where it lies), every array into
// elems. Both were sized by the scan, so neither grows.
type builder struct {
	r      *Reader
	borrow bool
	bytes  []byte
	elems  []Value
}

func (b *builder) str(s []byte) []byte {
	if len(s) == 0 {
		return nil
	}
	if b.borrow {
		return s[:len(s):len(s)]
	}
	at := len(b.bytes)
	b.bytes = append(b.bytes, s...)
	return b.bytes[at:len(b.bytes):len(b.bytes)]
}

// value builds the value at pos, which scan has accepted.
func (b *builder) value(pos int) (v Value, next int) {
	r := b.r
	switch t := r.buf[pos]; t {
	case TypeSimple, TypeError:
		l, next, _ := r.line(pos + 1)
		return Value{Type: t, Str: b.str(l)}, next
	case TypeInteger:
		l, next, _ := r.line(pos + 1)
		n, _ := strconv.ParseInt(string(l), 10, 64)
		return Value{Type: t, Int: n}, next
	case TypeBulk:
		start, n, next, _, _ := r.bulk(pos)
		if n == -1 {
			return Value{Type: t, Null: true}, next
		}
		return Value{Type: t, Str: b.str(r.buf[start : start+n])}, next
	default: // TypeArray, TypePush
		n, next, _, _ := r.length(pos)
		if n == -1 {
			return Value{Type: t, Null: true}, next
		}
		at := len(b.elems)
		b.elems = b.elems[:at+n]
		arr := b.elems[at : at+n : at+n]
		if n == 0 {
			arr = []Value{} // an empty array, not a null one
		}
		for i := range arr {
			arr[i], next = b.value(next)
		}
		return Value{Type: t, Array: arr}, next
	}
}

// ReadCommand decodes one client command: either a RESP array of bulk
// strings or an inline command (space-separated words on one line).
// ok=false means more bytes needed. argv is the caller's: its arguments
// share one allocation that nothing else refers to.
func (r *Reader) ReadCommand() ([][]byte, bool, error) {
	argv, ok, err := r.command(nil)
	if ok {
		own(argv) // before compact moves the bytes they alias
	}
	r.compact()
	return argv, ok, err
}

// BorrowCommand is ReadCommand without the copy, for a consumer that is done
// with a command before it reads the next one: the arguments alias the
// Reader's buffer and are valid until the next Read or Borrow call (a Feed in
// between leaves them intact). They are appended to argv[:0] — which is
// what comes back when there is no command to return — so a caller that
// always passes the previous result back in decodes without allocating.
func (r *Reader) BorrowCommand(argv [][]byte) ([][]byte, bool, error) {
	r.compact() // the bytes of the previous command die here, not under its reader
	return r.command(argv[:0])
}

// command is the one command scanner under both reads: it consumes the next
// complete command and appends its arguments, aliasing the buffer, to dst
// (allocated here, exactly sized, when it lacks the room); without a command
// to return, dst comes back as it was given. It never compacts.
func (r *Reader) command(dst [][]byte) ([][]byte, bool, error) {
	for r.pos < len(r.buf) && r.buf[r.pos] != TypeArray {
		// Inline command; empty lines are skipped silently.
		l, next, ok := r.line(r.pos)
		if !ok {
			return dst, false, nil
		}
		r.pos = next
		if words := bytes.Fields(l); len(words) > 0 {
			if cap(dst) == 0 {
				return words, true, nil
			}
			return append(dst, words...), true, nil
		}
	}
	if r.pos >= len(r.buf) {
		return dst, false, nil
	}

	// Multibulk. First pass: find the end of the command, checking every
	// length before using it; nothing is allocated until it is all here.
	n, first, ok, err := r.length(r.pos)
	if err != nil || !ok {
		return dst, false, err
	}
	if n > maxMultibulk {
		return dst, false, fmt.Errorf("%w: multibulk count %d exceeds %d", ErrProtocol, n, maxMultibulk)
	}
	bulks, next := true, first
	for i := 0; i < n; i++ {
		if next < len(r.buf) && r.buf[next] != TypeBulk {
			// Not a bulk string: the command is refused, once the stray
			// value has arrived whole.
			var sz size
			if next, ok, err = r.scan(next, &sz); err != nil || !ok {
				return dst, false, err
			}
			bulks = false
			continue
		}
		var ln int
		if _, ln, next, ok, err = r.bulk(next); err != nil || !ok {
			return dst, false, err
		}
		if ln < 0 {
			bulks = false
		}
	}
	if n <= 0 || !bulks {
		r.pos = next
		if n <= 0 {
			return dst, false, fmt.Errorf("%w: empty command array", ErrProtocol)
		}
		return dst, false, fmt.Errorf("%w: command element not a bulk string", ErrProtocol)
	}
	// Second pass: slice the arguments out where they lie.
	if cap(dst)-len(dst) < n {
		dst = append(make([][]byte, 0, len(dst)+n), dst...)
	}
	next = first
	for i := 0; i < n; i++ {
		var start, ln int
		start, ln, next, _, _ = r.bulk(next)
		dst = append(dst, r.buf[start:start+ln:start+ln])
	}
	r.pos = next
	return dst, true, nil
}

// CloneCommand copies a borrowed argv — header and arguments, two
// allocations — into one the caller keeps, exactly as ReadCommand would have
// returned it.
func CloneCommand(argv [][]byte) [][]byte {
	argv = append(make([][]byte, 0, len(argv)), argv...)
	own(argv)
	return argv
}

// own replaces every element of argv, which alias some larger buffer, with
// a copy in one allocation of their own.
func own(argv [][]byte) {
	total := 0
	for _, a := range argv {
		total += len(a)
	}
	slab := make([]byte, 0, total)
	for i, a := range argv {
		at := len(slab)
		slab = append(slab, a...)
		argv[i] = slab[at:len(slab):len(slab)]
	}
}
