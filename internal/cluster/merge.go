package cluster

import (
	"container/heap"
	"encoding/json"
	"fmt"

	"ldgemm/internal/core"
	"ldgemm/internal/server"
)

// The coordinator's half of a query definition's merge rule: decodeStrip
// checks one strip's 200 body (concurrently, as answers arrive) and keeps
// the part the rule combines, and mergeStrips combines the parts, in strip
// order, into the payload a single node would have produced.
//
// MergeStack and MergeConcat combine float arrays, which a strip carries
// raw (server/wire.go): its head, then its floats' bits. decodeStrip reads
// them into their rows of one pooled buffer of the whole answer, and
// mergeStrips spells that buffer once, through the node's own encoder, so a
// float is formatted once, by the coordinator, and a square region spells
// its mirrored half once even when two strips computed it. MergeKWay
// decodes its JSON rankings to compare them.

// floatPayload is q's float payload over rows: vals holds its rows × width
// floats row-major, and each row of a null window (counted from rows.Lo)
// is spelled null.
func floatPayload(q server.Query, rows server.Window, vals []float64, null []server.Window) server.FloatPayload {
	switch q := q.(type) {
	case server.RegionQuery:
		return q.Stacked(rows, vals, null)
	case server.SparseQuery:
		return q.Response(rows, vals)
	}
	panic(fmt.Sprintf("cluster: %T has no float payload", q))
}

// floatWidth is the floats in each row of q's float payload.
func floatWidth(q server.Query) int {
	switch q := q.(type) {
	case server.RegionQuery:
		return q.End - q.Start
	case server.SparseQuery:
		return 1
	}
	panic(fmt.Sprintf("cluster: %T has no float payload", q))
}

// stripFloats is strip's rows of vals, the float answer over rows.
func stripFloats(vals []float64, rows, strip server.Window, width int) []float64 {
	return vals[(strip.Lo-rows.Lo)*width : (strip.Hi-rows.Lo)*width]
}

// decodeStrip checks a strip's 200 body under rule. A float strip's body,
// sent as contentType, is read into dst, the strip's rows of the answer,
// which is then its part.
func decodeStrip(rule server.Merge, q server.Query, strip server.Window, contentType string, body []byte, dst []float64) (any, error) {
	switch rule {
	case server.MergeStack, server.MergeConcat:
		if contentType != server.OctetStream {
			return nil, fmt.Errorf("strip reply is %s, not %s", contentType, server.OctetStream)
		}
		return dst, server.ReadRaw(body, floatPayload(q, strip, dst, nil))
	case server.MergeKWay:
		var resp server.TopResponse
		err := json.Unmarshal(body, &resp)
		return resp.Pairs, err
	}
	return body, nil // MergeNone: the bytes themselves are relayed
}

// mergeStrips combines per-strip parts; parts[k] is nil for a lost strip
// (only under rules that allow a partial answer). vals is the float
// answer's buffer, which the float parts are rows of.
func mergeStrips(rule server.Merge, q server.Query, rows server.Window, strips []server.Window, parts []any, vals []float64) *server.Response {
	var lost []server.Window // counted from rows.Lo
	for k, part := range parts {
		if part == nil {
			lost = append(lost, server.Window{Lo: strips[k].Lo - rows.Lo, Hi: strips[k].Hi - rows.Lo})
		}
	}
	if rule == server.MergeKWay {
		k := q.(server.TopQuery).K
		lists := make([][]server.PairResponse, 0, len(parts))
		for _, part := range parts {
			if part != nil {
				lists = append(lists, part.([]server.PairResponse))
			}
		}
		return server.OK(server.TopResponse{K: k, Partial: len(lost) > 0, Pairs: mergeTop(k, lists)})
	}
	return server.OKShared(floatPayload(q, rows, vals, lost))
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
