// Package slots implements the hash-slot partitioning plane for the
// multi-master SKV cluster: the Redis-Cluster-compatible 16384-entry
// CRC16 slot space with `{...}` hashtag extraction, an epoch-versioned
// routing table mapping slots to replication groups (and groups to their
// current master address), and the MOVED/ASK/CROSSSLOT redirect error
// grammar the server command layer and the slot-aware clients speak.
//
// The table is deliberately simulation-friendly: it is a plain in-memory
// structure shared by reference between the cluster builder, every
// server's admission check, and the clients' refresh path — all mutations
// happen inside simulator events, so the epoch sequence is deterministic.
package slots

import (
	"fmt"
	"strings"
)

// NumSlots is the size of the hash-slot space (Redis Cluster's 16384).
const NumSlots = 16384

// crc16tab is the CRC-16/XMODEM table (poly 0x1021, init 0) — the exact
// polynomial Redis Cluster uses for key→slot mapping. Generated once at
// package load; the golden vectors in slots_test.go pin it against the
// Redis reference values.
var crc16tab [256]uint16

func init() {
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		crc16tab[i] = crc
	}
}

// CRC16 computes the CRC-16/XMODEM checksum of p.
func CRC16(p []byte) uint16 {
	var crc uint16
	for _, b := range p {
		crc = crc<<8 ^ crc16tab[byte(crc>>8)^b]
	}
	return crc
}

// HashTag extracts the slot-relevant portion of a key, following the
// Redis Cluster hashtag rules exactly: if the key contains a '{' with a
// later '}' and at least one character between them, only that substring
// is hashed — so `{user}.following` and `{user}.followers` land in the
// same slot. An empty tag (`{}`) or an unterminated brace hashes the
// whole key. Only the FIRST '{' and the FIRST '}' after it count, so
// `foo{{bar}}` hashes `{bar` and `foo{bar}{zap}` hashes `bar`.
func HashTag(key []byte) []byte {
	for s := 0; s < len(key); s++ {
		if key[s] != '{' {
			continue
		}
		for e := s + 1; e < len(key); e++ {
			if key[e] == '}' {
				if e == s+1 {
					return key // empty {}: hash the whole key
				}
				return key[s+1 : e]
			}
		}
		return key // no closing brace
	}
	return key
}

// Slot maps a key to its hash slot.
func Slot(key []byte) int {
	return int(CRC16(HashTag(key))) % NumSlots
}

// Range is a contiguous run of slots owned by one replication group.
// Start and End are inclusive, matching CLUSTER SLOTS conventions.
type Range struct {
	Start, End, Group int
}

// EvenSplit partitions the slot space into n contiguous ranges, one per
// group, as evenly as possible (the first NumSlots%n groups get one extra
// slot) — the default assignment the cluster builder installs.
func EvenSplit(n int) []Range {
	if n < 1 {
		n = 1
	}
	per, extra := NumSlots/n, NumSlots%n
	ranges := make([]Range, 0, n)
	start := 0
	for g := 0; g < n; g++ {
		size := per
		if g < extra {
			size++
		}
		ranges = append(ranges, Range{Start: start, End: start + size - 1, Group: g})
		start += size
	}
	return ranges
}

// ValidateRanges checks that ranges cover every slot exactly once and
// reference only groups < n.
func ValidateRanges(ranges []Range, n int) error {
	covered := make([]bool, NumSlots)
	for _, r := range ranges {
		if r.Start < 0 || r.End >= NumSlots || r.Start > r.End {
			return fmt.Errorf("slots: invalid range [%d,%d]", r.Start, r.End)
		}
		if r.Group < 0 || r.Group >= n {
			return fmt.Errorf("slots: range [%d,%d] names group %d, have %d groups", r.Start, r.End, r.Group, n)
		}
		for s := r.Start; s <= r.End; s++ {
			if covered[s] {
				return fmt.Errorf("slots: slot %d assigned twice", s)
			}
			covered[s] = true
		}
	}
	for s, ok := range covered {
		if !ok {
			return fmt.Errorf("slots: slot %d unassigned", s)
		}
	}
	return nil
}

// Map is the epoch-versioned routing table: which replication group owns
// each slot, and each group's current master address. Every topology
// mutation (slot reassignment, failover promotion, master restore) bumps
// the epoch, so stale client copies are detectable by comparison — the
// cluster analog of Redis Cluster's configEpoch.
type Map struct {
	epoch  uint64
	owner  []uint16
	addrs  []string
	counts []int // slots owned per group, maintained across Assign
	// migrating/importing hold per-slot live-migration marks: the value is
	// group+1 (0 = no mark) so the zero value means "stable". A slot being
	// resharded is MIGRATING at its current owner (value = target group) and
	// IMPORTING at the target (value = source group) for the duration of the
	// key move; the final Assign flip clears both marks.
	migrating []uint16
	importing []uint16
}

// NewMap builds a routing table over n groups with the given slot
// assignment (nil = EvenSplit) and per-group master addresses
// (len(addrs) == n). The initial epoch is 1.
func NewMap(n int, ranges []Range, addrs []string) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("slots: need at least 1 group")
	}
	if len(addrs) != n {
		return nil, fmt.Errorf("slots: %d addresses for %d groups", len(addrs), n)
	}
	if ranges == nil {
		ranges = EvenSplit(n)
	}
	if err := ValidateRanges(ranges, n); err != nil {
		return nil, err
	}
	m := &Map{
		epoch:     1,
		owner:     make([]uint16, NumSlots),
		addrs:     append([]string(nil), addrs...),
		counts:    make([]int, n),
		migrating: make([]uint16, NumSlots),
		importing: make([]uint16, NumSlots),
	}
	for _, r := range ranges {
		for s := r.Start; s <= r.End; s++ {
			m.owner[s] = uint16(r.Group)
		}
		m.counts[r.Group] += r.End - r.Start + 1
	}
	return m, nil
}

// Groups reports the number of replication groups.
func (m *Map) Groups() int { return len(m.addrs) }

// Epoch reports the current configuration epoch. Epochs only ever
// increase (monotonicity is a tested invariant): a client whose cached
// epoch matches holds the current topology.
func (m *Map) Epoch() uint64 { return m.epoch }

// Owner reports the group owning a slot.
func (m *Map) Owner(slot int) int { return int(m.owner[slot]) }

// Count reports how many slots a group currently owns.
func (m *Map) Count(group int) int { return m.counts[group] }

// Addr reports a group's current master address.
func (m *Map) Addr(group int) string { return m.addrs[group] }

// SetAddr installs a new master address for a group (failover promotion
// or master restore) and bumps the epoch. A no-op address change still
// bumps: the caller observed a topology event.
func (m *Map) SetAddr(group int, addr string) {
	m.addrs[group] = addr
	m.epoch++
}

// AssignError reports an Assign call that named slots or groups outside
// the table. The owner table is left untouched: silently clamping (or
// worse, writing through an out-of-range index) would corrupt the
// per-group slot counts that CLUSTER INFO and the rebalancer rely on.
type AssignError struct {
	Start, End, Group, Groups int
}

func (e *AssignError) Error() string {
	return fmt.Sprintf("slots: invalid assignment [%d,%d]→group %d (have %d groups, %d slots)",
		e.Start, e.End, e.Group, e.Groups, NumSlots)
}

// Assign transfers a slot range to a group, clears any live-migration
// marks on the moved slots, and bumps the epoch — the atomic ownership
// flip that ends a slot migration (subsequent traffic at the old owner
// becomes MOVED). Returns an *AssignError, with no table mutation, when
// the range is inverted or names a slot or group outside the table.
func (m *Map) Assign(start, end, group int) error {
	if start < 0 || end >= NumSlots || start > end || group < 0 || group >= len(m.addrs) {
		return &AssignError{Start: start, End: end, Group: group, Groups: len(m.addrs)}
	}
	for s := start; s <= end; s++ {
		m.counts[m.owner[s]]--
		m.owner[s] = uint16(group)
		m.counts[group]++
		m.migrating[s] = 0
		m.importing[s] = 0
	}
	m.epoch++
	return nil
}

// SetMigrating marks a slot as migrating toward a target group: the
// current owner keeps serving keys still present but answers ASK for
// absent ones. The mark is epoch-bumped like every topology mutation.
func (m *Map) SetMigrating(slot, target int) error {
	if slot < 0 || slot >= NumSlots || target < 0 || target >= len(m.addrs) {
		return &AssignError{Start: slot, End: slot, Group: target, Groups: len(m.addrs)}
	}
	m.migrating[slot] = uint16(target) + 1
	m.epoch++
	return nil
}

// SetImporting marks a slot as importing from a source group: the target
// admits ASKING-prefixed commands for the slot even though it does not
// own it yet.
func (m *Map) SetImporting(slot, source int) error {
	if slot < 0 || slot >= NumSlots || source < 0 || source >= len(m.addrs) {
		return &AssignError{Start: slot, End: slot, Group: source, Groups: len(m.addrs)}
	}
	m.importing[slot] = uint16(source) + 1
	m.epoch++
	return nil
}

// ClearMigration removes both migration marks from a slot (SETSLOT
// STABLE — aborting a migration without moving ownership).
func (m *Map) ClearMigration(slot int) {
	if slot < 0 || slot >= NumSlots {
		return
	}
	if m.migrating[slot] == 0 && m.importing[slot] == 0 {
		return
	}
	m.migrating[slot] = 0
	m.importing[slot] = 0
	m.epoch++
}

// Migrating reports the target group a slot is migrating to, if any.
func (m *Map) Migrating(slot int) (target int, ok bool) {
	if v := m.migrating[slot]; v != 0 {
		return int(v) - 1, true
	}
	return 0, false
}

// Importing reports the source group a slot is importing from, if any.
func (m *Map) Importing(slot int) (source int, ok bool) {
	if v := m.importing[slot]; v != 0 {
		return int(v) - 1, true
	}
	return 0, false
}

// Ranges renders the table as contiguous (start, end, group) runs in slot
// order — the CLUSTER SLOTS payload.
func (m *Map) Ranges() []Range {
	var out []Range
	for s := 0; s < NumSlots; {
		g := m.owner[s]
		e := s
		for e+1 < NumSlots && m.owner[e+1] == g {
			e++
		}
		out = append(out, Range{Start: s, End: e, Group: int(g)})
		s = e + 1
	}
	return out
}

// CopyInto refreshes a client-side copy of the table (owner slice,
// address slice) and returns the epoch the copy corresponds to. The
// destination slices must have the map's dimensions.
func (m *Map) CopyInto(owner []uint16, addrs []string) uint64 {
	copy(owner, m.owner)
	copy(addrs, m.addrs)
	return m.epoch
}

// ---- redirect error grammar ---------------------------------------------

// CrossSlotMessage is the error a multi-key command spanning slots gets —
// cross-group fan-out is the client's job, mirroring Redis Cluster.
const CrossSlotMessage = "CROSSSLOT Keys in request don't hash to the same slot"

// MovedMessage formats a MOVED redirect: the slot's owner is (stably)
// another group, reachable at addr:port.
func MovedMessage(slot int, addr string, port int) string {
	return fmt.Sprintf("MOVED %d %s:%d", slot, addr, port)
}

// AskMessage formats an ASK redirect: the key's slot is mid-migration and
// this key has already moved (or never existed here) — retry once at the
// target, prefixed with ASKING, without refreshing the routing table.
func AskMessage(slot int, addr string, port int) string {
	return fmt.Sprintf("ASK %d %s:%d", slot, addr, port)
}

// TryAgainMessage is the error a multi-key command gets when its keys are
// split across the two sides of a migrating slot — some already moved,
// some still at the source. The client retries the whole command shortly;
// the split is transient by construction (the mover drains the slot).
const TryAgainMessage = "TRYAGAIN Multiple keys request during rehashing of slot"

// RedirectKind distinguishes the two redirect verbs a cluster node emits.
type RedirectKind int

const (
	// RedirectNone: the message is not a redirect.
	RedirectNone RedirectKind = iota
	// RedirectMoved: permanent — the client should refresh its map.
	RedirectMoved
	// RedirectAsk: one-shot during migration — retry at the target with
	// ASKING, do NOT refresh the map (ownership has not changed yet).
	RedirectAsk
)

// ParseRedirect decodes a MOVED or ASK error message into its slot and
// target address. ok is false for any other error text.
func ParseRedirect(msg string) (slot int, addr string, port int, ok bool) {
	kind, slot, addr, port := ParseRedirectKind(msg)
	return slot, addr, port, kind != RedirectNone
}

// ParseRedirectKind decodes a redirect error message, additionally
// reporting which verb it carried — clients treat MOVED (refresh the map)
// and ASK (one-shot, no refresh) differently. Only what MovedMessage and
// AskMessage write parses: a slot and a port in canonical decimal (no sign,
// no leading zero) within range, and a non-empty host with no space in it.
// Anything else — trailing tokens included — returns RedirectNone.
func ParseRedirectKind(msg string) (kind RedirectKind, slot int, addr string, port int) {
	var rest string
	switch {
	case strings.HasPrefix(msg, "MOVED "):
		kind, rest = RedirectMoved, msg[len("MOVED "):]
	case strings.HasPrefix(msg, "ASK "):
		kind, rest = RedirectAsk, msg[len("ASK "):]
	default:
		return RedirectNone, 0, "", 0
	}
	slotText, target, _ := strings.Cut(rest, " ")
	colon := strings.LastIndexByte(target, ':')
	if colon <= 0 || strings.IndexByte(target[:colon], ' ') >= 0 {
		return RedirectNone, 0, "", 0
	}
	slot, okSlot := decimal(slotText, NumSlots-1)
	port, okPort := decimal(target[colon+1:], 65535)
	if !okSlot || !okPort || port == 0 {
		return RedirectNone, 0, "", 0
	}
	return kind, slot, target[:colon], port
}

// decimal parses s as a canonical decimal number no greater than max: digits
// only, and no leading zero unless s is "0".
func decimal(s string, max int) (int, bool) {
	if s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		if n = n*10 + int(s[i]-'0'); n > max {
			return 0, false
		}
	}
	return n, true
}
