package tracking

import (
	"strings"

	"skv/internal/resp"
	"skv/internal/store"
)

// Redirect says what a connection does with "CLIENT TRACKING ON REDIRECT
// <name>".
type Redirect uint8

const (
	// RejectRedirect answers a syntax error: the table already lives where
	// the pushes start (a NIC-served connection).
	RejectRedirect Redirect = iota
	// IgnoreRedirect tracks in-band anyway: there is no offload layer to
	// forward interest to (the baselines, a promoted slave before its
	// Nic-KV wiring exists).
	IgnoreRedirect
	// ForwardRedirect hands the connection's interest to the offload layer,
	// which keys it under <name> (SKV Host-KV → Nic-KV).
	ForwardRedirect
)

// Conn is one connection's CLIENT TRACKING state; the zero value is off.
type Conn struct {
	// Name is the connection's subscriber name while tracking is on: its
	// in-band name, or the REDIRECT target. Empty while off.
	Name string
	// Redirect marks interest that goes to the offload layer's table
	// under Name instead of the local one.
	Redirect bool
}

// On reports whether tracking is on.
func (c *Conn) On() bool { return c.Name != "" }

// Tracks reports whether cmd takes interest in its keys on this connection:
// tracking is on and cmd is a keyed read. Interest is recorded at admission,
// before the read is routed, so it exists before any later write's
// invalidation fires.
func (c *Conn) Tracks(cmd *store.Command) bool {
	return c.On() && cmd != nil && !cmd.Write && !cmd.Server && cmd.FirstKey > 0
}

// Command answers one CLIENT command on c and returns the reply. Only the
// TRACKING subcommand is modelled: "CLIENT TRACKING ON [REDIRECT <name>]" and
// "CLIENT TRACKING OFF". local is the connection's in-band subscriber name
// and redirect what REDIRECT does here. arm runs when tracking turns on
// in-band, with c already set; OFF hands drop to Off.
//
// Re-negotiation: interest belongs to the connection, as in Redis. An ON
// that asks for the mode and target already in force changes nothing and
// keeps the interest; one that asks for another (in-band ↔ REDIRECT, or a
// new target) while tracking is on is refused, since the interest would
// strand in the other table. OFF first, then ON in the new mode.
func (c *Conn) Command(argv [][]byte, local string, redirect Redirect, arm func(), drop func(Conn)) []byte {
	if len(argv) < 3 || !strings.EqualFold(string(argv[1]), "tracking") {
		return resp.AppendError(nil, "ERR unknown CLIENT subcommand")
	}
	switch strings.ToLower(string(argv[2])) {
	case "on":
		want := Conn{Name: local}
		if len(argv) == 5 && redirect != RejectRedirect && strings.EqualFold(string(argv[3]), "redirect") {
			if redirect == ForwardRedirect && len(argv[4]) > 0 {
				want = Conn{Name: string(argv[4]), Redirect: true}
			}
		} else if len(argv) != 3 {
			break
		}
		switch {
		case *c == want:
		case c.On():
			return resp.AppendError(nil, "ERR You can't switch REDIRECT on/off or change its target before disabling tracking for this client")
		default:
			*c = want
			if !want.Redirect {
				arm()
			}
		}
		return resp.AppendSimple(nil, "OK")
	case "off":
		c.Off(drop)
		return resp.AppendSimple(nil, "OK")
	}
	return resp.AppendError(nil, "ERR syntax error in CLIENT TRACKING")
}

// Off turns tracking off (CLIENT TRACKING OFF or disconnect), handing drop
// the state it held so the table holding the interest forgets it. A no-op
// while off.
func (c *Conn) Off(drop func(Conn)) {
	if c.On() {
		old := *c
		*c = Conn{}
		drop(old)
	}
}
