package resp

// The decoder as it stood before it was rewritten to scan in place and copy
// once (one slab per command or reply), kept verbatim — only the type is
// renamed — as the reference the fuzz targets compare the new decoder
// against. It panics on bulk lengths near MaxInt and reserves 80 bytes per
// announced array element, so the fuzz harness consults it only for inputs
// within the new decoder's length bounds.

import (
	"bytes"
	"fmt"
	"strconv"
)

// oracleReader incrementally decodes RESP values or commands from fed bytes.
type oracleReader struct {
	buf []byte
	pos int
}

// Feed appends incoming bytes.
func (r *oracleReader) Feed(b []byte) { r.buf = append(r.buf, b...) }

// Buffered reports unconsumed byte count.
func (r *oracleReader) Buffered() int { return len(r.buf) - r.pos }

func (r *oracleReader) compact() {
	if r.pos > 0 && r.pos == len(r.buf) {
		r.buf = r.buf[:0]
		r.pos = 0
	} else if r.pos > 4096 {
		r.buf = append(r.buf[:0], r.buf[r.pos:]...)
		r.pos = 0
	}
}

// line returns the next CRLF-terminated line (without CRLF), advancing the
// cursor; ok is false when incomplete.
func (r *oracleReader) line() ([]byte, bool) {
	idx := bytes.Index(r.buf[r.pos:], []byte("\r\n"))
	if idx < 0 {
		return nil, false
	}
	l := r.buf[r.pos : r.pos+idx]
	r.pos += idx + 2
	return l, true
}

// ReadValue decodes one complete value. ok=false means more bytes needed
// (cursor unchanged).
func (r *oracleReader) ReadValue() (Value, bool, error) {
	save := r.pos
	v, ok, err := r.readValue()
	if !ok || err != nil {
		r.pos = save
		if err != nil {
			return Value{}, false, err
		}
		return Value{}, false, nil
	}
	r.compact()
	return v, true, nil
}

func (r *oracleReader) readValue() (Value, bool, error) {
	if r.pos >= len(r.buf) {
		return Value{}, false, nil
	}
	t := r.buf[r.pos]
	switch t {
	case TypeSimple, TypeError:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		return Value{Type: t, Str: append([]byte(nil), l...)}, true, nil
	case TypeInteger:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.ParseInt(string(l), 10, 64)
		if err != nil {
			return Value{}, false, fmt.Errorf("%w: bad integer %q", ErrProtocol, l)
		}
		return Value{Type: t, Int: n}, true, nil
	case TypeBulk:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.Atoi(string(l))
		if err != nil || n < -1 {
			return Value{}, false, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, l)
		}
		if n == -1 {
			return Value{Type: t, Null: true}, true, nil
		}
		if len(r.buf)-r.pos < n+2 {
			return Value{}, false, nil
		}
		payload := append([]byte(nil), r.buf[r.pos:r.pos+n]...)
		if r.buf[r.pos+n] != '\r' || r.buf[r.pos+n+1] != '\n' {
			return Value{}, false, fmt.Errorf("%w: bulk missing CRLF", ErrProtocol)
		}
		r.pos += n + 2
		return Value{Type: t, Str: payload}, true, nil
	case TypeArray, TypePush:
		r.pos++
		l, ok := r.line()
		if !ok {
			return Value{}, false, nil
		}
		n, err := strconv.Atoi(string(l))
		if err != nil || n < -1 {
			return Value{}, false, fmt.Errorf("%w: bad array length %q", ErrProtocol, l)
		}
		if n == -1 {
			return Value{Type: t, Null: true}, true, nil
		}
		arr := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			e, ok, err := r.readValue()
			if err != nil {
				return Value{}, false, err
			}
			if !ok {
				return Value{}, false, nil
			}
			arr = append(arr, e)
		}
		return Value{Type: t, Array: arr}, true, nil
	default:
		return Value{}, false, fmt.Errorf("%w: unexpected byte %q", ErrProtocol, t)
	}
}

// ReadCommand decodes one client command: either a RESP array of bulk
// strings or an inline command (space-separated words on one line).
// ok=false means more bytes needed.
func (r *oracleReader) ReadCommand() ([][]byte, bool, error) {
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	for r.pos < len(r.buf) && r.buf[r.pos] != TypeArray {
		// Inline command; empty lines are skipped silently.
		l, ok := r.line()
		if !ok {
			return nil, false, nil
		}
		fields := bytes.Fields(l)
		if len(fields) == 0 {
			r.compact()
			continue
		}
		argv := make([][]byte, len(fields))
		for i, f := range fields {
			argv[i] = append([]byte(nil), f...)
		}
		r.compact()
		return argv, true, nil
	}
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		return nil, ok, err
	}
	if v.Null || len(v.Array) == 0 {
		return nil, false, fmt.Errorf("%w: empty command array", ErrProtocol)
	}
	argv := make([][]byte, len(v.Array))
	for i, e := range v.Array {
		if e.Type != TypeBulk || e.Null {
			return nil, false, fmt.Errorf("%w: command element not a bulk string", ErrProtocol)
		}
		argv[i] = e.Str
	}
	return argv, true, nil
}
