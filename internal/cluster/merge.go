package cluster

import (
	"container/heap"
	"encoding/json"
	"fmt"

	"ldgemm/internal/core"
	"ldgemm/internal/server"
)

// The coordinator's half of a query definition's merge rule: decodeStrip
// parses one strip's 200 body (concurrently, as answers arrive) into the
// part the rule combines, and mergeStrips combines the parts, in strip
// order, into the payload a single node would have produced.

// sparsePart is one strip's answered window and vector segment.
type sparsePart struct {
	rows server.Window
	seg  []float64
}

func decodeStrip(rule server.Merge, q server.Query, body []byte) (any, error) {
	switch rule {
	case server.MergeStack:
		var resp server.RegionResponse
		err := json.Unmarshal(body, &resp)
		return resp.Values, err
	case server.MergeKWay:
		var resp server.TopResponse
		err := json.Unmarshal(body, &resp)
		return resp.Pairs, err
	case server.MergeConcat:
		rows, seg, err := q.(server.SparseQuery).Segment(body)
		return sparsePart{rows, seg}, err
	}
	return body, nil // MergeNone: the bytes themselves are relayed
}

// mergeStrips combines per-strip parts; parts[k] is nil for a lost strip
// (only under rules that allow a partial answer).
func mergeStrips(rule server.Merge, q server.Query, rows server.Window, strips []server.Window, parts []any, partial bool) (any, error) {
	switch rule {
	case server.MergeStack:
		values := make([][]float64, rows.Hi-rows.Lo)
		for k, part := range parts {
			if part != nil {
				copy(values[strips[k].Lo-rows.Lo:], part.([][]float64))
			}
		}
		resp := q.(server.RegionQuery).Response(rows, values)
		resp.Partial = partial
		return resp, nil
	case server.MergeKWay:
		k := q.(server.TopQuery).K
		lists := make([][]server.PairResponse, 0, len(parts))
		for _, part := range parts {
			if part != nil {
				lists = append(lists, part.([]server.PairResponse))
			}
		}
		return server.TopResponse{K: k, Partial: partial, Pairs: mergeTop(k, lists)}, nil
	case server.MergeConcat:
		out := make([]float64, rows.Hi-rows.Lo)
		for k, part := range parts {
			p := part.(sparsePart)
			if p.rows != strips[k] || len(p.seg) != strips[k].Hi-strips[k].Lo {
				return nil, fmt.Errorf("strip [%d,%d) answered window [%d,%d) with %d rows",
					strips[k].Lo, strips[k].Hi, p.rows.Lo, p.rows.Hi, len(p.seg))
			}
			copy(out[strips[k].Lo-rows.Lo:], p.seg)
		}
		return q.(server.SparseQuery).Response(rows, out), nil
	}
	return nil, fmt.Errorf("no merge rule %d", rule)
}

// mergeHeap is a k-way merge frontier over per-shard rankings: one cursor
// per non-empty list, ordered by the strength of the pair it points at.
type mergeHeap struct {
	lists [][]server.PairResponse
	head  []int // heap of list indices
	pos   []int // cursor into each list
}

func (h *mergeHeap) Len() int { return len(h.head) }
func (h *mergeHeap) Less(a, b int) bool {
	la, lb := h.head[a], h.head[b]
	pa, pb := h.lists[la][h.pos[la]], h.lists[lb][h.pos[lb]]
	return core.RanksBefore(pa.R2, pa.I, pa.J, pb.R2, pb.I, pb.J)
}
func (h *mergeHeap) Swap(a, b int) { h.head[a], h.head[b] = h.head[b], h.head[a] }
func (h *mergeHeap) Push(x any)    { h.head = append(h.head, x.(int)) }
func (h *mergeHeap) Pop() any {
	x := h.head[len(h.head)-1]
	h.head = h.head[:len(h.head)-1]
	return x
}

// mergeTop streams the k strongest pairs out of per-shard rankings, each
// already in canonical order (core.RanksBefore). Because shard strips partition the pair
// set disjointly, no deduplication is needed: every pair appears in
// exactly one list.
func mergeTop(k int, lists [][]server.PairResponse) []server.PairResponse {
	h := &mergeHeap{lists: lists, pos: make([]int, len(lists))}
	for i, l := range lists {
		if len(l) > 0 {
			h.head = append(h.head, i)
		}
	}
	heap.Init(h)
	out := make([]server.PairResponse, 0, k)
	for len(out) < k && h.Len() > 0 {
		l := h.head[0]
		out = append(out, h.lists[l][h.pos[l]])
		if h.pos[l]++; h.pos[l] < len(h.lists[l]) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}
