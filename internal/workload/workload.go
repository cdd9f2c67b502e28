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

func (g *Generator) key() string {
	if g.Zipf {
		return formatKey(g.zipf.Uint64())
	}
	return formatKey(uint64(g.rnd.Intn(g.KeySpace)))
}

// formatKey is fmt.Sprintf("key:%010d", k) with the digits laid out on the
// stack: the returned string is its one allocation (Sprintf paid a second,
// for the boxed integer, on every operation of every client).
func formatKey(k uint64) string {
	var buf [4 + 20]byte
	i := len(buf)
	for digits := 0; digits < 10 || k > 0; digits++ {
		i--
		buf[i] = '0' + byte(k%10)
		k /= 10
	}
	i -= copy(buf[i-4:], "key:")
	return string(buf[i:])
}

// Next produces the next encoded command and its kind.
func (g *Generator) Next() ([]byte, Op) {
	cmd, op, _ := g.NextKeyed()
	return cmd, op
}

// NextKeyed is Next plus the key the command targets, for routing layers
// (the slot-aware client) that must know where a command goes. It draws from
// the same RNG stream as Next — interleaving the two is safe.
func (g *Generator) NextKeyed() ([]byte, Op, string) {
	if g.rnd.Float64() < g.SetRatio {
		k := g.key()
		return resp.EncodeCommandBytes([]byte("SET"), []byte(k), g.value), OpSet, k
	}
	k := g.key()
	return resp.EncodeCommandBytes([]byte("GET"), []byte(k)), OpGet, k
}
