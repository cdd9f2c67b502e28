package slots

import (
	"fmt"
	"testing"
)

// TestCRC16GoldenVectors pins the table against the CRC-16/XMODEM
// reference values Redis Cluster uses (the "123456789" check value plus
// slot numbers published in the Redis Cluster spec).
func TestCRC16GoldenVectors(t *testing.T) {
	if got := CRC16([]byte("123456789")); got != 0x31C3 {
		t.Fatalf("CRC16(123456789) = %#04x, want 0x31C3", got)
	}
	if got := CRC16(nil); got != 0 {
		t.Fatalf("CRC16(empty) = %#04x, want 0", got)
	}
	// Slot values from the Redis Cluster specification.
	cases := map[string]int{
		"foo":   12182,
		"bar":   5061,
		"hello": 866,
	}
	for key, want := range cases {
		if got := Slot([]byte(key)); got != want {
			t.Fatalf("Slot(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestHashTagExtraction covers the exact Redis hashtag edge cases: plain
// tags, empty {}, unterminated braces, nested braces, and multiple tags.
func TestHashTagExtraction(t *testing.T) {
	cases := []struct{ key, tag string }{
		{"{user1000}.following", "user1000"},
		{"{user1000}.followers", "user1000"},
		{"foo{}{bar}", "foo{}{bar}"}, // first {} is empty: whole key
		{"foo{{bar}}zap", "{bar"},    // first { ... first }: "{bar"
		{"foo{bar}{zap}", "bar"},     // only the first tag counts
		{"{}", "{}"},                 // empty tag: whole key
		{"{abc", "{abc"},             // unterminated: whole key
		{"no-braces", "no-braces"},
		{"", ""},
		{"}{x}", "x"}, // '}' before any '{' is ignored
	}
	for _, c := range cases {
		if got := string(HashTag([]byte(c.key))); got != c.tag {
			t.Fatalf("HashTag(%q) = %q, want %q", c.key, got, c.tag)
		}
	}
	// Same tag ⇒ same slot, and it equals the bare tag's slot.
	if Slot([]byte("{user1000}.following")) != Slot([]byte("{user1000}.followers")) {
		t.Fatal("hashtag keys did not co-locate")
	}
	if Slot([]byte("{user1000}.following")) != Slot([]byte("user1000")) {
		t.Fatal("hashtag slot differs from the bare tag's slot")
	}
}

// TestEvenSplitCoversEverySlot: the default assignment covers the slot
// space exactly once for every group count the bench sweeps.
func TestEvenSplitCoversEverySlot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		ranges := EvenSplit(n)
		if len(ranges) != n {
			t.Fatalf("EvenSplit(%d) produced %d ranges", n, len(ranges))
		}
		if err := ValidateRanges(ranges, n); err != nil {
			t.Fatalf("EvenSplit(%d): %v", n, err)
		}
	}
}

// TestValidateRangesRejectsBadMaps: gaps, overlaps, out-of-space and
// out-of-group ranges are all configuration errors.
func TestValidateRangesRejectsBadMaps(t *testing.T) {
	bad := [][]Range{
		{{Start: 0, End: NumSlots - 2, Group: 0}},                               // gap
		{{Start: 0, End: NumSlots - 1, Group: 0}, {Start: 5, End: 5, Group: 1}}, // overlap
		{{Start: 0, End: NumSlots, Group: 0}},                                   // out of space
		{{Start: 0, End: NumSlots - 1, Group: 2}},                               // unknown group
		{{Start: 10, End: 5, Group: 0}},                                         // inverted
	}
	for i, ranges := range bad {
		if err := ValidateRanges(ranges, 2); err == nil {
			t.Fatalf("case %d: bad ranges validated", i)
		}
	}
}

// TestMapEpochMonotonicity: every topology mutation bumps the epoch, it
// never goes backwards, and CopyInto reports the epoch its copy matches —
// the invariant the clients' staleness detection rides on across
// failovers (promote bumps, restore bumps again).
func TestMapEpochMonotonicity(t *testing.T) {
	m, err := NewMap(2, nil, []string{"g0.master", "g1.master"})
	if err != nil {
		t.Fatal(err)
	}
	last := m.Epoch()
	if last == 0 {
		t.Fatal("initial epoch must be nonzero")
	}
	bump := func(label string, do func()) {
		do()
		if m.Epoch() <= last {
			t.Fatalf("%s: epoch %d did not advance past %d", label, m.Epoch(), last)
		}
		last = m.Epoch()
	}
	bump("promote", func() { m.SetAddr(1, "g1.slave0") }) // failover promotion
	bump("restore", func() { m.SetAddr(1, "g1.master") }) // master restore
	bump("re-promote", func() { m.SetAddr(1, "g1.slave1") })
	bump("reshard", func() {
		if err := m.Assign(0, 10, 1); err != nil {
			t.Fatalf("Assign: %v", err)
		}
	})
	bump("migrating", func() {
		if err := m.SetMigrating(20, 1); err != nil {
			t.Fatalf("SetMigrating: %v", err)
		}
	})
	bump("importing", func() {
		if err := m.SetImporting(20, 0); err != nil {
			t.Fatalf("SetImporting: %v", err)
		}
	})
	bump("stable", func() { m.ClearMigration(20) })

	owner := make([]uint16, NumSlots)
	addrs := make([]string, m.Groups())
	if got := m.CopyInto(owner, addrs); got != last {
		t.Fatalf("CopyInto epoch %d, want %d", got, last)
	}
	if addrs[1] != "g1.slave1" || int(owner[5]) != 1 {
		t.Fatalf("copy diverged: addrs=%v owner[5]=%d", addrs, owner[5])
	}
}

// TestMapOwnerAndRanges: the slot→group mapping matches the installed
// ranges and Ranges() reconstructs contiguous runs.
func TestMapOwnerAndRanges(t *testing.T) {
	m, err := NewMap(3, nil, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range EvenSplit(3) {
		if m.Owner(r.Start) != r.Group || m.Owner(r.End) != r.Group {
			t.Fatalf("range %+v not honored", r)
		}
	}
	rs := m.Ranges()
	if err := ValidateRanges(rs, 3); err != nil {
		t.Fatalf("Ranges() inconsistent: %v", err)
	}
	if len(rs) != 3 {
		t.Fatalf("expected 3 contiguous runs, got %d: %v", len(rs), rs)
	}
}

// TestAssignValidation: out-of-range slots, unknown groups and inverted
// ranges are rejected with a typed error and leave the table untouched —
// Assign used to write through whatever indexes it was handed.
func TestAssignValidation(t *testing.T) {
	m, err := NewMap(2, nil, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	epoch, c0, c1 := m.Epoch(), m.Count(0), m.Count(1)
	cases := []struct {
		name              string
		start, end, group int
	}{
		{"negative start", -1, 5, 0},
		{"end past space", 0, NumSlots, 0},
		{"start past space", NumSlots, NumSlots + 1, 0},
		{"inverted range", 10, 5, 0},
		{"negative group", 0, 5, -1},
		{"unknown group", 0, 5, 2},
		{"huge group", 0, 5, 1 << 20},
	}
	for _, c := range cases {
		err := m.Assign(c.start, c.end, c.group)
		if err == nil {
			t.Fatalf("%s: Assign(%d,%d,%d) accepted", c.name, c.start, c.end, c.group)
		}
		var ae *AssignError
		if !errorsAs(err, &ae) {
			t.Fatalf("%s: error %T is not *AssignError", c.name, err)
		}
		if m.Epoch() != epoch || m.Count(0) != c0 || m.Count(1) != c1 {
			t.Fatalf("%s: rejected Assign mutated the table", c.name)
		}
	}
	// The happy path still works and maintains the counts.
	if err := m.Assign(0, 99, 1); err != nil {
		t.Fatalf("valid Assign: %v", err)
	}
	if m.Count(0) != c0-100 || m.Count(1) != c1+100 {
		t.Fatalf("counts after Assign: %d/%d", m.Count(0), m.Count(1))
	}
	// SetMigrating/SetImporting validate the same way.
	if err := m.SetMigrating(NumSlots, 0); err == nil {
		t.Fatal("SetMigrating accepted an out-of-range slot")
	}
	if err := m.SetImporting(0, 2); err == nil {
		t.Fatal("SetImporting accepted an unknown group")
	}
}

// errorsAs is errors.As for the one target type the tests need (keeps the
// package's import list tiny).
func errorsAs(err error, target **AssignError) bool {
	ae, ok := err.(*AssignError)
	if ok {
		*target = ae
	}
	return ok
}

// TestMigrationMarks: the marks are per-slot, independent, cleared by the
// ownership flip, and invisible on untouched slots.
func TestMigrationMarks(t *testing.T) {
	m, err := NewMap(2, nil, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Migrating(5); ok {
		t.Fatal("fresh map reports a migrating slot")
	}
	if err := m.SetMigrating(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SetImporting(5, 0); err != nil {
		t.Fatal(err)
	}
	if g, ok := m.Migrating(5); !ok || g != 1 {
		t.Fatalf("Migrating(5) = %d,%t", g, ok)
	}
	if g, ok := m.Importing(5); !ok || g != 0 {
		t.Fatalf("Importing(5) = %d,%t", g, ok)
	}
	if _, ok := m.Migrating(6); ok {
		t.Fatal("mark leaked to a neighboring slot")
	}
	// The flip clears both marks on the moved slots.
	if err := m.Assign(5, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Migrating(5); ok {
		t.Fatal("Assign left the migrating mark")
	}
	if _, ok := m.Importing(5); ok {
		t.Fatal("Assign left the importing mark")
	}
	// ClearMigration on a stable slot is a no-op (no epoch bump).
	e := m.Epoch()
	m.ClearMigration(7)
	if m.Epoch() != e {
		t.Fatal("ClearMigration bumped the epoch on a stable slot")
	}
}

// TestFragmentedRangesRoundTrip: after migrations a group legitimately
// owns non-contiguous runs; Ranges() must render each run exactly once,
// in slot order, and the result must survive ValidateRanges and rebuild
// an identical map.
func TestFragmentedRangesRoundTrip(t *testing.T) {
	m, err := NewMap(2, nil, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	// Punch three group-1 holes into group 0's half, including the very
	// first slot and a single-slot fragment.
	for _, r := range []Range{{0, 0, 1}, {100, 199, 1}, {4000, 4000, 1}} {
		if err := m.Assign(r.Start, r.End, r.Group); err != nil {
			t.Fatal(err)
		}
	}
	rs := m.Ranges()
	if err := ValidateRanges(rs, 2); err != nil {
		t.Fatalf("fragmented Ranges() does not round-trip: %v", err)
	}
	// 0-0(g1), 1-99(g0), 100-199(g1), 200-3999(g0), 4000-4000(g1),
	// 4001-8191(g0), 8192-16383(g1) — seven runs, strictly ordered.
	if len(rs) != 7 {
		t.Fatalf("expected 7 runs, got %d: %v", len(rs), rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Start != rs[i-1].End+1 {
			t.Fatalf("runs not contiguous in slot order: %v", rs)
		}
		if rs[i].Group == rs[i-1].Group {
			t.Fatalf("adjacent runs with one group not coalesced: %v", rs)
		}
	}
	rebuilt, err := NewMap(2, rs, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < NumSlots; s++ {
		if rebuilt.Owner(s) != m.Owner(s) {
			t.Fatalf("rebuilt map diverges at slot %d", s)
		}
	}
	if m.Count(0) != 8192-102 { // even split gave g0 8192 slots; 102 moved
		t.Fatalf("count(0) = %d, want %d", m.Count(0), 8192-102)
	}
	if m.Count(0)+m.Count(1) != NumSlots {
		t.Fatalf("counts do not sum to the slot space: %d+%d", m.Count(0), m.Count(1))
	}
}

// TestRedirectGrammar: MOVED/ASK round-trip through ParseRedirect, and
// non-redirect errors do not parse.
func TestRedirectGrammar(t *testing.T) {
	msg := MovedMessage(12182, "g1.master", 6379)
	if msg != "MOVED 12182 g1.master:6379" {
		t.Fatalf("MovedMessage = %q", msg)
	}
	slot, addr, port, ok := ParseRedirect(msg)
	if !ok || slot != 12182 || addr != "g1.master" || port != 6379 {
		t.Fatalf("ParseRedirect(%q) = %d %q %d %t", msg, slot, addr, port, ok)
	}
	slot, addr, port, ok = ParseRedirect(AskMessage(7, "x", 6380))
	if !ok || slot != 7 || addr != "x" || port != 6380 {
		t.Fatalf("ASK parse = %d %q %d %t", slot, addr, port, ok)
	}
	// ParseRedirectKind distinguishes the verbs (the client's one-shot vs
	// refresh decision rides on this).
	if k, _, _, _ := ParseRedirectKind(MovedMessage(1, "a", 1)); k != RedirectMoved {
		t.Fatalf("MOVED kind = %d", k)
	}
	if k, s, a, p := ParseRedirectKind(AskMessage(7, "x", 6380)); k != RedirectAsk || s != 7 || a != "x" || p != 6380 {
		t.Fatalf("ASK kind = %d %d %q %d", k, s, a, p)
	}
	for _, bad := range []string{
		"ERR something else",
		"MOVED",                               // no payload
		"MOVED ",                              // empty payload
		"MOVED x y:1",                         // non-numeric slot
		"MOVED -1 a:1",                        // negative slot
		fmt.Sprintf("MOVED %d a:1", NumSlots), // slot past the space
		fmt.Sprintf("MOVED %d noport", 5),     // no colon
		fmt.Sprintf("MOVED %d :", NumSlots+5), // empty host and port
		"MOVED 5 a:",                          // missing port
		"MOVED 5 :6379",                       // missing host
		"MOVED 5 a:x",                         // non-numeric port
		"MOVED 5 a:-1",                        // negative port (used to parse!)
		"MOVED 5 a:0",                         // port zero
		"MOVED 5 a:70000",                     // port out of range
		"MOVED 5 a:6379 extra",                // trailing tokens
		"ASK 5 a:6379 extra",                  // trailing tokens (ASK)
		"ASKED 5 a:6379",                      // near-miss verb
		"moved 5 a:6379",                      // wrong case
		"MOVED 1 a b:80",                      // space in the host (used to parse!)
		"MOVED +5 h:1",                        // signed slot (used to parse!)
		"MOVED 05 h:1",                        // leading zero on the slot (used to parse!)
		"MOVED 1 h:+80",                       // signed port (used to parse!)
		"MOVED 1 h:080",                       // leading zero on the port
		"MOVED  5 h:1",                        // empty slot
	} {
		if _, _, _, ok := ParseRedirect(bad); ok {
			t.Fatalf("ParseRedirect(%q) accepted garbage", bad)
		}
		if k, _, _, _ := ParseRedirectKind(bad); k != RedirectNone {
			t.Fatalf("ParseRedirectKind(%q) = %d, want RedirectNone", bad, k)
		}
	}
}

// FuzzParseRedirect: a message ParseRedirectKind accepts is exactly what
// MovedMessage or AskMessage writes for the slot, host and port it returns.
func FuzzParseRedirect(f *testing.F) {
	for _, seed := range []string{
		MovedMessage(12182, "g1.master", 6379), AskMessage(0, "x", 1), "MOVED 1 a:b:80",
		"MOVED 1 a b:80", "MOVED +5 h:1", "MOVED 05 h:1", "MOVED 1 h:+80", "ERR x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		kind, slot, addr, port := ParseRedirectKind(msg)
		var again string
		switch kind {
		case RedirectNone:
			return
		case RedirectMoved:
			again = MovedMessage(slot, addr, port)
		case RedirectAsk:
			again = AskMessage(slot, addr, port)
		}
		if again != msg {
			t.Fatalf("%q parsed as %d %d %q %d, which encodes as %q", msg, kind, slot, addr, port, again)
		}
	})
}
