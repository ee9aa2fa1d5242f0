// Package shard defines the sharded audit plane's topology: how a request
// stream is partitioned across N collector shards, and how N per-shard
// audits compose back into one verdict about the whole deployment.
//
// The partition is by locality key. Every request input carries (or is) a
// key — a page id, a stack digest, a tenant — and the shard map assigns
// each key to exactly one shard by stable hash. The assignment is a pure
// function of the request contents, so it is deterministic and replayable:
// anyone holding the shard map and the traces can recompute, request by
// request, which shard every request belonged on. That recomputation is
// the first half of the cross-shard soundness check (CheckRouting); the
// second half is the deferred merge check over per-shard carries
// (merge.go), which proves no two shards claim the same state.
//
// The map itself is evidence: WriteMap persists it as shardmap.json in the
// topology root, next to the per-shard epoch-log directories, so an
// offline auditor reconstructs the exact routing the gateway used.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"karousos.dev/karousos/internal/iofault"
	"karousos.dev/karousos/internal/trace"
	"karousos.dev/karousos/internal/value"
)

// Map is the shard topology: how many shards exist and how a request's
// locality key is extracted. It is written once when a topology is created
// and never changes for the lifetime of the logs it routes — resharding is
// a new topology, not a mutation, because the assignment of every past
// request must stay recomputable.
type Map struct {
	// Shards is the shard count; RIDs and epoch logs are per shard.
	Shards int `json:"shards"`
	// KeyFields names the input fields tried, in order, as the locality
	// key: the first field present in a map-shaped input wins. An input
	// missing every field (or not map-shaped) hashes whole — still
	// deterministic, just without cross-request locality.
	KeyFields []string `json:"keyFields,omitempty"`
	// SharedKeyPrefixes exempt store-key prefixes from the cross-shard
	// conflict check: keys every shard writes by design (per-shard
	// replicated config, counters) rather than partitioned state.
	SharedKeyPrefixes []string `json:"sharedKeyPrefixes,omitempty"`
}

// Validate rejects unusable topologies.
func (m Map) Validate() error {
	if m.Shards < 1 {
		return fmt.Errorf("shard: map needs at least 1 shard, has %d", m.Shards)
	}
	return nil
}

// LocalityKey extracts the portion of a request input that determines its
// shard: the first present KeyFields entry of a map-shaped input, or the
// whole input when none applies.
func (m Map) LocalityKey(input value.V) value.V {
	obj, ok := input.(map[string]value.V)
	if !ok {
		return input
	}
	for _, f := range m.KeyFields {
		if v, present := obj[f]; present {
			return v
		}
	}
	return input
}

// ShardOf assigns a request input to its shard: the FNV-1a digest of the
// normalized locality key, reduced mod Shards. Stable across processes and
// runs — value.Digest hashes the canonical encoding.
func (m Map) ShardOf(input value.V) int {
	return int(value.Digest(value.Normalize(m.LocalityKey(input))) % uint64(m.Shards))
}

// SharedKey reports whether a store key is exempt from the cross-shard
// conflict check.
func (m Map) SharedKey(key string) bool {
	for _, p := range m.SharedKeyPrefixes {
		if len(key) >= len(p) && key[:len(p)] == p {
			return true
		}
	}
	return false
}

// CheckRouting re-derives every REQ's shard assignment from the trusted
// trace and returns an error naming the first request that does not belong
// on shard s. This is the routing half of cross-shard soundness: each
// shard's audit proves that shard executed *its* trace correctly, and
// CheckRouting proves its trace holds exactly the requests the map sends
// there — a gateway (or a server smuggling requests between shards) cannot
// move state across the partition unobserved.
func (m Map) CheckRouting(s int, tr *trace.Trace) error {
	if s < 0 || s >= m.Shards {
		return fmt.Errorf("shard: shard %d out of range of %d-shard map", s, m.Shards)
	}
	for _, e := range tr.Events {
		if e.Kind != trace.Req {
			continue
		}
		if got := m.ShardOf(e.Data); got != s {
			return fmt.Errorf("shard: request %s belongs on shard %d, found in shard %d's trace", e.RID, got, s)
		}
	}
	return nil
}

// Dir returns shard s's epoch-log directory under the topology root.
func Dir(root string, s int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%02d", s))
}

// Dirs returns every shard's epoch-log directory under root, in shard
// order.
func (m Map) Dirs(root string) []string {
	out := make([]string, m.Shards)
	for s := range out {
		out[s] = Dir(root, s)
	}
	return out
}

// MapFile is the shard map's filename inside the topology root.
const MapFile = "shardmap.json"

// WriteMap persists the topology manifest. It is pinned at topology
// creation (iofault.PinJSON): a restart on the same root must bring the
// same map, because auditors and re-audits read it back so routing is
// checked against the map that actually served, not a reconstruction.
func WriteMap(fsys iofault.FS, root string, m Map) error {
	if fsys == nil {
		fsys = iofault.OS
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return err
	}
	return iofault.PinJSON(fsys, filepath.Join(root, MapFile), m)
}

// ReadMap loads and validates the topology manifest from a topology root.
func ReadMap(root string) (Map, error) {
	blob, err := os.ReadFile(filepath.Join(root, MapFile))
	if err != nil {
		return Map{}, err
	}
	var m Map
	if err := json.Unmarshal(blob, &m); err != nil {
		return Map{}, fmt.Errorf("shard: bad %s: %w", MapFile, err)
	}
	if err := m.Validate(); err != nil {
		return Map{}, err
	}
	return m, nil
}
