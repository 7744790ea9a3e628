package cluster

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync/atomic"
)

// replicaGroup is the serving unit for one strip of the partition: a set
// of interchangeable replicas, each advertising the same dataset
// fingerprint and shard range (validated at bootstrap). Calls route to
// the healthiest replica — breaker state first, then observed p95
// latency — and fail over through the rest of the group before the strip
// is declared lost, so a single dead replica never degrades an answer.
type replicaGroup struct {
	replicas []*shardClient
	rr       atomic.Uint64 // rotation cursor breaking health ties
}

// parseGroupSpecs splits coordinator URL specs into replica groups:
// groups are comma-separated at the CLI (already split by the caller),
// replicas within a group are separated by "|", e.g. "urlA|urlB".
func parseGroupSpecs(specs []string) ([][]string, error) {
	groups := make([][]string, 0, len(specs))
	for _, spec := range specs {
		var group []string
		for _, u := range strings.Split(spec, "|") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u // bare host:port is the common CLI spelling
			}
			group = append(group, u)
		}
		if len(group) == 0 {
			return nil, errors.New("cluster: empty replica group in shard URL list")
		}
		groups = append(groups, group)
	}
	if len(groups) == 0 {
		return nil, errors.New("cluster: no shard URLs")
	}
	return groups, nil
}

// healthRank orders breaker states healthiest-first: a closed circuit
// beats a half-open one probing its way back, which beats an open one
// that would fail fast anyway.
func healthRank(s breakerState) int {
	switch s {
	case breakerClosed:
		return 0
	case breakerHalfOpen:
		return 1
	default:
		return 2
	}
}

// ranked returns the replicas in routing order: breaker state first,
// then p95 latency, with replicas lacking a latency window tried before
// measured ones (they need samples before they can compete, which also
// spreads cold-start load). Replicas of comparable health — p95 within
// 25% of each other — keep a rotating round-robin order so steady-state
// load spreads across the group instead of pinning to one replica.
func (g *replicaGroup) ranked() []*shardClient {
	n := len(g.replicas)
	if n == 1 {
		return g.replicas
	}
	out := make([]*shardClient, n)
	start := int(g.rr.Add(1) % uint64(n))
	for i := range out {
		out[i] = g.replicas[(start+i)%n]
	}
	sort.SliceStable(out, func(a, b int) bool {
		sa, pa, ka := out[a].health()
		sb, pb, kb := out[b].health()
		if ra, rb := healthRank(sa), healthRank(sb); ra != rb {
			return ra < rb
		}
		if ka != kb {
			return !ka
		}
		if !ka {
			return false // both unmeasured: keep the rotation order
		}
		// Prefer a clearly faster replica; within 25% they are peers and
		// the rotation order stands.
		return pa*4 < pb*3
	})
	return out
}

// call sends one request to the healthiest replica, failing over through
// the rest of the group on shard-side failures. A terminal 4xx returns
// immediately — it is deterministic for the query, and every replica
// would answer the same — and only when every replica has failed is the
// strip reported lost. Every endpoint, POST included, is a pure function
// of the dataset, the query and the body, so replaying the same request
// on the next replica is safe.
func (g *replicaGroup) call(ctx context.Context, method, pathQuery string, body []byte, accept string) (reply, error) {
	var lastErr error
	for _, r := range g.ranked() {
		rep, err := r.call(ctx, method, pathQuery, body, accept)
		if err == nil {
			return rep, nil
		}
		if terminal(err) != nil {
			return reply{}, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return reply{}, lastErr
		}
	}
	return reply{}, lastErr
}

// admitting reports whether any replica's breaker would let a call
// through right now.
func (g *replicaGroup) admitting() bool {
	for _, r := range g.replicas {
		if state, _ := r.breaker.snapshot(); state != breakerOpen {
			return true
		}
	}
	return false
}

// names joins the group's replica URLs for topology-facing surfaces
// (X-LD-Shards-Failed, error messages).
func (g *replicaGroup) names() string {
	urls := make([]string, len(g.replicas))
	for i, r := range g.replicas {
		urls[i] = r.base
	}
	return strings.Join(urls, "|")
}
