package server

import (
	"strconv"
	"testing"

	"skv/internal/resp"
	"skv/internal/sim"
)

// TestTrackingEvictionPushesInvalidate fills the in-band interest table past
// its 65 536-key bound from one tracking connection. Admitting the last key
// evicts the oldest, and the server must push an invalidation for it: the
// client holds that key in its cache and would otherwise serve it stale
// forever.
func TestTrackingEvictionPushesInvalidate(t *testing.T) {
	w := newWorld(17)
	srv := w.server("s", 6379)
	c := w.dial(t, srv)
	if v := c.do(t, "CLIENT", "TRACKING", "ON"); !v.IsOK() {
		t.Fatalf("CLIENT TRACKING ON: %s", v.String())
	}
	const keys, burst = 65536 + 1, 4096
	before := len(c.got)
	for i := 0; i < keys; i += burst {
		var pipe []byte
		for k := i; k < min(i+burst, keys); k++ {
			pipe = append(pipe, resp.EncodeCommand("GET", "key:"+strconv.Itoa(k))...)
		}
		c.sendPipe(50*sim.Millisecond, pipe)
	}
	var pushed []string
	replies := 0
	for _, v := range c.got[before:] {
		if v.IsPush() {
			pushed = append(pushed, string(v.Array[1].Str))
		} else {
			replies++
		}
	}
	if replies != keys {
		t.Fatalf("%d replies to %d GETs", replies, keys)
	}
	if len(pushed) != 1 || pushed[0] != "key:0" {
		t.Fatalf("invalidation pushes %q, want exactly one, for key:0", pushed)
	}
	if n := srv.TrackingLen(); n != keys-1 {
		t.Fatalf("interest table holds %d keys, want its bound %d", n, keys-1)
	}
}
