// Package cluster is the horizontal tier over internal/server: a
// coordinator fronting N replica groups, each group a set of
// interchangeable shard servers owning the same contiguous strip of the
// SNP index range over the same genotype matrix (identical dataset
// fingerprints, validated at bootstrap). Ownership goes by a pair's
// smaller index, which partitions the n(n−1)/2 pair set disjointly and
// completely across strips, so pair lookups route to one group and
// region/top queries scatter-gather with no overlap to deduplicate.
// Within a group, each call routes to the healthiest replica — breaker
// state first, then observed p95 latency — and fails over through the
// rest before the strip is declared lost. Every replica call runs
// through a resilient client: per-attempt timeout, bounded
// exponential-backoff retry on transport errors and 5xx, a hedged second
// request once the first outlives the replica's recent latency
// percentile, and a per-replica circuit breaker that fails fast while a
// replica is down. Identical in-flight pair/region/top requests coalesce
// into one shard fan-out, and complete responses land in a
// fingerprint-keyed, byte-budgeted LRU result cache (responses are
// immutable for a fixed dataset, so entries live until the coordinator
// is rebootstrapped). Only when a whole replica group is lost do
// scatter-gathered responses degrade instead of failing: the coordinator
// answers from the surviving strips with partial: true and an
// X-LD-Shards-Failed header.
package cluster

import (
	"fmt"
	"sort"

	"ldgemm/internal/server"
)

// partition maps SNP rows to owning shards. ranges[i] is the strip owned
// by shard i (after construction, sorted, disjoint, and covering [0, n)
// exactly).
type partition struct {
	ranges []server.Window
	n      int
}

// newPartition validates that the advertised strips tile [0, n) exactly.
// order maps each range back to its shard index: ranges are sorted here,
// but shard identity must follow the sort.
func newPartition(ranges []server.Window, n int) (partition, []int, error) {
	if len(ranges) == 0 {
		return partition{}, nil, fmt.Errorf("cluster: no shards")
	}
	order := make([]int, len(ranges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranges[order[a]].Lo < ranges[order[b]].Lo })
	sorted := make([]server.Window, len(ranges))
	next := 0
	for k, idx := range order {
		r := ranges[idx]
		if r.Lo != next || r.Hi <= r.Lo {
			return partition{}, nil, fmt.Errorf(
				"cluster: shard strips do not tile the index range: strip [%d,%d) after row %d", r.Lo, r.Hi, next)
		}
		sorted[k] = r
		next = r.Hi
	}
	if next != n {
		return partition{}, nil, fmt.Errorf("cluster: shard strips cover [0,%d) of %d SNPs", next, n)
	}
	return partition{ranges: sorted, n: n}, order, nil
}

// overlapping returns the shard indices whose strips intersect rows
// [lo, hi), in ascending strip order.
func (p partition) overlapping(lo, hi int) []int {
	var out []int
	for s, r := range p.ranges {
		if r.Lo < hi && r.Hi > lo {
			out = append(out, s)
		}
	}
	return out
}
