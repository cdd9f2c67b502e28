package cluster

import (
	"errors"
	"testing"

	"skv/internal/consistency"
	"skv/internal/core"
)

// TestConsistencyConfigValidate is the negative table for the consistency
// plane's Config surface: every meaningless combination is rejected with
// its typed sentinel (matchable via errors.Is), and the sensible ones pass.
func TestConsistencyConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want error // nil = must validate clean; non-nil = errors.Is target
		bad  bool  // must fail, no specific sentinel
	}{
		{
			name: "quorum larger than the slave count",
			cfg:  Config{Slaves: 2, Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 3}},
			want: ErrQuorumTooLarge,
		},
		{
			name: "quorum equal to the slave count is fine",
			cfg:  Config{Slaves: 2, Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}},
		},
		{
			name: "quorum on a slave-less topology",
			cfg:  Config{Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 1}},
			want: ErrQuorumNoSlaves,
		},
		{
			name: "all on a slave-less topology",
			cfg:  Config{Consistency: ConsistencyOpts{Level: consistency.All}},
			want: ErrQuorumNoSlaves,
		},
		{
			// A negative count builds no slave, and "all" of none never
			// releases a write.
			name: "all with a negative slave count",
			cfg:  Config{Kind: KindSKV, Slaves: -1, Consistency: ConsistencyOpts{Level: consistency.All}},
			bad:  true,
		},
		{
			name: "async with a negative slave count",
			cfg:  Config{Kind: KindSKV, Slaves: -1},
			bad:  true,
		},
		{
			name: "quorum against per-group replicas on a multi-master deployment",
			cfg: Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 3, SlavesPerMaster: 1},
				Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}},
			want: ErrQuorumTooLarge,
		},
		{
			name: "multi-master quorum within the group size is fine",
			cfg: Config{Kind: KindSKV, Cluster: ClusterOpts{Masters: 3, SlavesPerMaster: 2},
				Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: 2}},
		},
		{
			name: "W set while the level is async",
			cfg:  Config{Slaves: 2, Consistency: ConsistencyOpts{Quorum: 1}},
			want: ErrQuorumWithoutLevel,
		},
		{
			name: "W set while the level is all",
			cfg:  Config{Slaves: 2, Consistency: ConsistencyOpts{Level: consistency.All, Quorum: 1}},
			want: ErrQuorumWithoutLevel,
		},
		{
			name: "negative W",
			cfg:  Config{Slaves: 2, Consistency: ConsistencyOpts{Level: consistency.Quorum, Quorum: -1}},
			bad:  true,
		},
		{
			name: "SKV.WriteConsistency set directly instead of the cluster field",
			cfg:  Config{Kind: KindSKV, Slaves: 1, SKV: core.Config{WriteConsistency: consistency.All}},
			bad:  true,
		},
		{
			name: "all with slaves needs no W",
			cfg:  Config{Slaves: 3, Consistency: ConsistencyOpts{Level: consistency.All}},
		},
		{
			name: "async legacy zero value",
			cfg:  Config{Slaves: 2},
		},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.want != nil:
			if !errors.Is(err, tc.want) {
				t.Errorf("%s: err = %v, want errors.Is(%v)", tc.name, err, tc.want)
			}
		case tc.bad:
			if err == nil {
				t.Errorf("%s: validated clean, want an error", tc.name)
			}
		default:
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
		}
	}
	// The sentinels are distinct — a sweep can branch on exactly one.
	if errors.Is(ErrQuorumTooLarge, ErrQuorumNoSlaves) || errors.Is(ErrQuorumNoSlaves, ErrQuorumWithoutLevel) {
		t.Fatal("consistency sentinels alias each other")
	}
}
