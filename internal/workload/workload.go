// Package workload implements the benchmark load generator: the one
// redis-benchmark-equivalent closed-loop client every figure of the paper's
// evaluation is driven with ("each client issues queries as quickly as
// possible") — slot-aware, a single replication group being its one-group
// case — plus key and value generators with uniform or Zipfian key
// popularity.
package workload

import (
	"math/rand"

	"skv/internal/resp"
)

// Op is the command a generator emits.
type Op int

// Operation kinds.
const (
	OpSet Op = iota
	OpGet
)

// Generator produces commands for one client.
type Generator struct {
	rnd *rand.Rand
	// KeySpace is the number of distinct keys.
	KeySpace int
	// ValueSize is the SET payload size in bytes.
	ValueSize int
	// SetRatio is the fraction of SETs (1.0 = pure SET, 0.0 = pure GET).
	SetRatio float64
	// Zipf enables a Zipfian key distribution instead of uniform.
	Zipf bool

	zipf  *rand.Zipf
	value []byte
}

// zipfSkew is the Zipfian skew exponent of every Zipfian key stream.
const zipfSkew = 1.1

// NewGenerator creates a generator with deterministic randomness.
func NewGenerator(seed int64, keySpace, valueSize int, setRatio float64, zipfian bool) *Generator {
	rnd := rand.New(rand.NewSource(seed))
	g := &Generator{
		rnd:       rnd,
		KeySpace:  keySpace,
		ValueSize: valueSize,
		SetRatio:  setRatio,
		Zipf:      zipfian,
	}
	if zipfian {
		g.zipf = rand.NewZipf(rnd, zipfSkew, 1, uint64(keySpace-1))
	}
	g.value = make([]byte, valueSize)
	for i := range g.value {
		g.value[i] = 'a' + byte(i%26)
	}
	return g
}

// keyNum draws the next key's number.
func (g *Generator) keyNum() uint64 {
	if g.Zipf {
		return g.zipf.Uint64()
	}
	return uint64(g.rnd.Intn(g.KeySpace))
}

// appendKeyBulk appends key k — fmt.Sprintf("key:%010d", k), its digits laid
// out on the stack — as a RESP bulk string, and returns where the key starts
// in dst.
func appendKeyBulk(dst []byte, k uint64) ([]byte, int) {
	var buf [4 + 20]byte
	i := len(buf)
	for digits := 0; digits < 10 || k > 0; digits++ {
		i--
		buf[i] = '0' + byte(k%10)
		k /= 10
	}
	i -= copy(buf[i-4:], "key:")
	dst = resp.AppendBulk(dst, buf[i:])
	return dst, len(dst) - 2 - (len(buf) - i)
}

var (
	setHeader = resp.AppendBulkString(resp.AppendArrayHeader(nil, 3), "SET")
	getHeader = resp.AppendBulkString(resp.AppendArrayHeader(nil, 2), "GET")
)

// AppendNext appends the next command's wire encoding to dst and returns it
// with its kind and the key it targets — a sub-slice of the command, for
// routing layers (the slot-aware client) that must know where it goes. It
// allocates nothing when dst has room for the command (CmdCap bytes always
// do), so a caller that hands back the buffer of a completed request
// generates for free.
func (g *Generator) AppendNext(dst []byte) (cmd []byte, op Op, key []byte) {
	op = OpGet
	if g.rnd.Float64() < g.SetRatio {
		op = OpSet
	}
	k := g.keyNum()
	start := len(dst)
	if op == OpSet {
		dst = append(dst, setHeader...)
	} else {
		dst = append(dst, getHeader...)
	}
	dst, at := appendKeyBulk(dst, k)
	end := len(dst) - 2
	if op == OpSet {
		dst = resp.AppendBulk(dst, g.value)
	}
	return dst[start:], op, dst[at:end:end]
}

// CmdCap is the most bytes one command of this generator encodes to.
func (g *Generator) CmdCap() int {
	return len(setHeader) + resp.BulkSize(4+20) + resp.BulkSize(len(g.value))
}

// Next produces the next encoded command and its kind.
func (g *Generator) Next() ([]byte, Op) {
	cmd, op, _ := g.NextKeyed()
	return cmd, op
}

// NextKeyed is AppendNext into a command and a key string of the caller's
// own. It draws from the same RNG stream as Next — interleaving the two is
// safe.
func (g *Generator) NextKeyed() ([]byte, Op, string) {
	cmd, op, key := g.AppendNext(make([]byte, 0, g.CmdCap()))
	return cmd, op, string(key)
}
