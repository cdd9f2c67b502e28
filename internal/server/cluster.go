package server

// Cluster-mode admission: when a server is one node of a multi-master
// hash-slot cluster (Options.Cluster non-nil), every keyed command is
// checked against the shared epoch-versioned routing table before it is
// routed or executed. Keys spanning slots are rejected with CROSSSLOT
// (cross-group fan-out is the client's job, mirroring the single-master
// fan-in semantics of the sharded dispatch plane); keys owned by another
// replication group are redirected with MOVED. The check applies to every
// node of the group — master and slaves alike serve only their group's
// slots — and runs at admission, before the shard plane, so redirects
// re-sequence through the same reply path as write-gate errors.
//
// The CLUSTER command (SLOTS / INFO / KEYSLOT) exposes the minimal
// topology surface slot-aware clients need.

import (
	"fmt"
	"strconv"
	"strings"

	"skv/internal/metrics"
	"skv/internal/resp"
	"skv/internal/slots"
	"skv/internal/store"
)

// ClusterRouting attaches a server to a multi-master hash-slot cluster:
// the shared routing table, the replication group this node belongs to,
// and the client port MOVED redirects should name. All nodes of a
// deployment share one *slots.Map by reference; topology layers (the
// cluster builder) mutate it on failover, and every node observes the
// new epoch immediately — modeling the gossip-converged steady state
// rather than the convergence protocol itself.
type ClusterRouting struct {
	// Self is this node's replication group index.
	Self int
	// Map is the shared authoritative slot table.
	Map *slots.Map
	// Port is the client port redirects advertise.
	Port int
}

// clusterInstruments are the admission-plane redirect counters.
type clusterInstruments struct {
	moved     *metrics.Counter
	crossSlot *metrics.Counter
	asked     *metrics.Counter
	tryAgain  *metrics.Counter
	imported  *metrics.Counter
}

func newClusterInstruments(reg *metrics.Registry) *clusterInstruments {
	return &clusterInstruments{
		moved:     reg.Counter("server.cluster.moved"),
		crossSlot: reg.Counter("server.cluster.crossslot"),
		asked:     reg.Counter("server.cluster.asked"),
		tryAgain:  reg.Counter("server.cluster.tryagain"),
		imported:  reg.Counter("server.cluster.imported"),
	}
}

// slotCheck validates a keyed command against the slot table. It returns
// nil when this node may admit the command — it owns every key's slot, or
// the slot is importing here and the client prefixed ASKING — or the
// redirect/error reply to emit instead of executing. The caller has
// already charged SlotCheckCPU on the admitting core.
func (s *Server) slotCheck(c *client, cmd *store.Command, argv [][]byte) []byte {
	asking := c.asking
	c.asking = false // one-shot, consumed by this command
	slot := -1
	cross := false
	cmd.EachKey(argv, func(k []byte) {
		ks := slots.Slot(k)
		if slot == -1 {
			slot = ks
		} else if ks != slot {
			cross = true
		}
	})
	if slot == -1 {
		return nil // too few args: the store replies with an arity error
	}
	if cross {
		s.clusterStats.crossSlot.Inc()
		return resp.AppendError(nil, slots.CrossSlotMessage)
	}
	cr := s.cluster
	if g := cr.Map.Owner(slot); g != cr.Self {
		// A slot mid-import is served here for clients that were ASK-
		// redirected by the migrating owner, even though the table still
		// names the source as owner.
		if asking {
			if _, importing := cr.Map.Importing(slot); importing {
				s.clusterStats.imported.Inc()
				return nil
			}
		}
		s.clusterStats.moved.Inc()
		return resp.AppendError(nil, slots.MovedMessage(slot, cr.Map.Addr(g), cr.Port))
	}
	return nil
}

// migrationDataCmd reports whether a command belongs to the mover's data
// plane. DUMP and MIGRATEDEL answer key absence directly (nil / :0) —
// redirecting them with ASK would deadlock the mover against itself —
// and RESTORE targets keys the importing side does not own yet.
func migrationDataCmd(cmd *store.Command) bool {
	switch cmd.Name {
	case "dump", "restore", "migratedel":
		return true
	}
	return false
}

// migrationCheck is the execution-time half of the ASK protocol, called
// with the command about to run against the store (on the dispatch proc
// or on the key's shard). When every key of a MIGRATING
// slot is still present the command serves locally; when every key is
// absent the keys have moved (or never existed — indistinguishable, and
// the target answers both correctly) and the client is ASK-redirected to
// the import target; a half-present multi-key command gets TRYAGAIN until
// the mover drains the stragglers. Runs at execution, not admission,
// because presence can change while a command waits in a shard FIFO. Slots
// without migration state take the zero-cost early return, keeping the
// no-migration pipeline byte-identical.
func (s *Server) migrationCheck(cmd *store.Command, dbi int, argv [][]byte) []byte {
	cr := s.cluster
	if cr == nil || cmd == nil || cmd.Server || cmd.FirstKey <= 0 {
		return nil
	}
	slot := -1
	cmd.EachKey(argv, func(k []byte) {
		if slot == -1 {
			slot = slots.Slot(k)
		}
	})
	if slot == -1 {
		return nil
	}
	target, migrating := cr.Map.Migrating(slot)
	if !migrating || cr.Map.Owner(slot) != cr.Self {
		return nil
	}
	if migrationDataCmd(cmd) {
		return nil
	}
	present, absent := 0, 0
	cmd.EachKey(argv, func(k []byte) {
		if s.store.Has(dbi, string(k)) {
			present++
		} else {
			absent++
		}
	})
	if absent == 0 {
		return nil // fully here: serve at the source
	}
	if present == 0 {
		s.clusterStats.asked.Inc()
		return resp.AppendError(nil, slots.AskMessage(slot, cr.Map.Addr(target), cr.Port))
	}
	s.clusterStats.tryAgain.Inc()
	return resp.AppendError(nil, slots.TryAgainMessage)
}

// cmdCluster implements the minimal CLUSTER surface. Like Redis, KEYSLOT
// and INFO answer on any node; SLOTS reports the routing table (empty
// when cluster support is disabled).
func (s *Server) cmdCluster(c *client, argv [][]byte) {
	if len(argv) < 2 {
		s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster' command"))
		return
	}
	switch strings.ToLower(string(argv[1])) {
	case "keyslot":
		if len(argv) != 3 {
			s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster|keyslot' command"))
			return
		}
		s.reply(c, resp.AppendInt(nil, int64(slots.Slot(argv[2]))))
	case "slots":
		if s.cluster == nil {
			s.reply(c, resp.AppendArrayHeader(nil, 0))
			return
		}
		var b []byte
		ranges := s.cluster.Map.Ranges()
		b = resp.AppendArrayHeader(b, len(ranges))
		for _, r := range ranges {
			b = resp.AppendArrayHeader(b, 3)
			b = resp.AppendInt(b, int64(r.Start))
			b = resp.AppendInt(b, int64(r.End))
			b = resp.AppendArrayHeader(b, 2)
			b = resp.AppendBulkString(b, s.cluster.Map.Addr(r.Group))
			b = resp.AppendInt(b, int64(s.cluster.Port))
		}
		s.reply(c, b)
	case "info":
		var b strings.Builder
		if s.cluster == nil {
			b.WriteString("cluster_enabled:0\r\ncluster_state:ok\r\ncluster_slots_assigned:0\r\ncluster_known_nodes:1\r\ncluster_size:0\r\ncluster_current_epoch:0\r\n")
		} else {
			fmt.Fprintf(&b, "cluster_enabled:1\r\ncluster_state:ok\r\ncluster_slots_assigned:%d\r\ncluster_known_nodes:%d\r\ncluster_size:%d\r\ncluster_current_epoch:%d\r\ncluster_my_group:%d\r\n",
				slots.NumSlots, s.cluster.Map.Groups(), s.cluster.Map.Groups(), s.cluster.Map.Epoch(), s.cluster.Self)
		}
		s.reply(c, resp.AppendBulkString(nil, b.String()))
	case "setslot":
		s.cmdClusterSetSlot(c, argv)
	case "getkeysinslot":
		if s.cluster == nil {
			s.reply(c, resp.AppendError(nil, "ERR This instance has cluster support disabled"))
			return
		}
		if len(argv) != 4 {
			s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster|getkeysinslot' command"))
			return
		}
		slot, err1 := strconv.Atoi(string(argv[2]))
		count, err2 := strconv.Atoi(string(argv[3]))
		if err1 != nil || err2 != nil || slot < 0 || slot >= slots.NumSlots || count < 0 {
			s.reply(c, resp.AppendError(nil, "ERR Invalid slot or count"))
			return
		}
		keys := s.store.KeysWhere(c.db, count, func(k string) bool {
			return slots.Slot([]byte(k)) == slot
		})
		b := resp.AppendArrayHeader(nil, len(keys))
		for _, k := range keys {
			b = resp.AppendBulkString(b, k)
		}
		s.reply(c, b)
	case "countkeysinslot":
		if s.cluster == nil {
			s.reply(c, resp.AppendError(nil, "ERR This instance has cluster support disabled"))
			return
		}
		if len(argv) != 3 {
			s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster|countkeysinslot' command"))
			return
		}
		slot, err := strconv.Atoi(string(argv[2]))
		if err != nil || slot < 0 || slot >= slots.NumSlots {
			s.reply(c, resp.AppendError(nil, "ERR Invalid slot"))
			return
		}
		n := len(s.store.KeysWhere(c.db, 0, func(k string) bool {
			return slots.Slot([]byte(k)) == slot
		}))
		s.reply(c, resp.AppendInt(nil, int64(n)))
	default:
		s.reply(c, resp.AppendError(nil, fmt.Sprintf("ERR Unknown CLUSTER subcommand or wrong number of arguments for '%s'", string(argv[1]))))
	}
}

// cmdClusterSetSlot drives a slot's migration state machine:
//
//	CLUSTER SETSLOT <slot> IMPORTING <source-group>  (run at the target)
//	CLUSTER SETSLOT <slot> MIGRATING <target-group>  (run at the source)
//	CLUSTER SETSLOT <slot> NODE <group>              (the atomic ownership flip)
//	CLUSTER SETSLOT <slot> STABLE                    (abort: clear both marks)
//
// Groups stand in for Redis's node IDs — the simulated control plane
// addresses replication groups, not individual nodes. All four mutate the
// shared epoch-versioned table, so every node of the deployment observes
// the new state at once (the converged-gossip modeling assumption). In
// sharded mode the dispatch plane runs SETSLOT as a barrier: the flip
// never lands while commands for the slot sit in a shard FIFO.
func (s *Server) cmdClusterSetSlot(c *client, argv [][]byte) {
	if s.cluster == nil {
		s.reply(c, resp.AppendError(nil, "ERR This instance has cluster support disabled"))
		return
	}
	if len(argv) < 4 {
		s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster|setslot' command"))
		return
	}
	slot, err := strconv.Atoi(string(argv[2]))
	if err != nil || slot < 0 || slot >= slots.NumSlots {
		s.reply(c, resp.AppendError(nil, "ERR Invalid slot"))
		return
	}
	cr := s.cluster
	group := -1
	sub := strings.ToLower(string(argv[3]))
	if sub != "stable" {
		if len(argv) != 5 {
			s.reply(c, resp.AppendError(nil, "ERR wrong number of arguments for 'cluster|setslot' command"))
			return
		}
		group, err = strconv.Atoi(string(argv[4]))
		if err != nil {
			s.reply(c, resp.AppendError(nil, "ERR Invalid group"))
			return
		}
	}
	switch sub {
	case "migrating":
		if cr.Map.Owner(slot) != cr.Self {
			s.reply(c, resp.AppendError(nil, fmt.Sprintf("ERR I'm not the owner of hash slot %d", slot)))
			return
		}
		err = cr.Map.SetMigrating(slot, group)
	case "importing":
		if cr.Map.Owner(slot) == cr.Self {
			s.reply(c, resp.AppendError(nil, fmt.Sprintf("ERR I'm already the owner of hash slot %d", slot)))
			return
		}
		err = cr.Map.SetImporting(slot, group)
	case "node":
		err = cr.Map.Assign(slot, slot, group)
	case "stable":
		cr.Map.ClearMigration(slot)
	default:
		s.reply(c, resp.AppendError(nil, "ERR Invalid CLUSTER SETSLOT action or number of arguments"))
		return
	}
	if err != nil {
		s.reply(c, resp.AppendError(nil, "ERR "+err.Error()))
		return
	}
	s.reply(c, resp.AppendSimple(nil, "OK"))
}
