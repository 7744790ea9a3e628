package cluster

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"

	"ldgemm/internal/core"
	"ldgemm/internal/server"
)

// The coordinator's half of a query definition's merge rule: decodeStrip
// checks one strip's 200 body (concurrently, as answers arrive) and keeps
// the part the rule combines, and mergeStrips combines the parts, in strip
// order, into the payload a single node would have produced.
//
// MergeStack and MergeConcat combine float arrays, and a float is
// formatted once, by the shard that computed it (server/wire.go): the part
// is the strip's array bytes, validated and spliced, never converted.
// MergeKWay has to compare values, so it alone decodes.

// stripShape is what q's float payload over rows looks like: its JSON up
// to the array, and the length of each array row (0 when the array is a
// flat vector).
func stripShape(q server.Query, rows server.Window, partial bool) (head []byte, width int) {
	b := make([]byte, 0, 128) // a head is about 80 bytes
	switch q := q.(type) {
	case server.RegionQuery:
		resp := q.Response(rows)
		resp.Partial = partial
		return resp.AppendHead(b), q.End - q.Start
	case server.SparseQuery:
		return q.Response(rows, nil).AppendHead(b), 0
	}
	panic(fmt.Sprintf("cluster: %T has no float payload", q))
}

func decodeStrip(rule server.Merge, q server.Query, strip server.Window, body []byte) (any, error) {
	switch rule {
	case server.MergeStack, server.MergeConcat:
		head, width := stripShape(q, strip, false)
		return scanStrip(body, head, strip.Hi-strip.Lo, width)
	case server.MergeKWay:
		var resp server.TopResponse
		err := json.Unmarshal(body, &resp)
		return resp.Pairs, err
	}
	return body, nil // MergeNone: the bytes themselves are relayed
}

// scanStrip is the one pass a strip's float payload gets: body must be
// exactly head — the envelope echoing the asked region, measure and row
// window, not partial — then an array of n rows, each an array of width
// JSON numbers (or n bare numbers when width is 0), then "}\n" and nothing
// more. It returns the bytes between the array's brackets, which are what
// mergeStrips splices. Everything encoding/json would refuse is refused
// here, so a body that fails is a lost strip exactly as a decode error was.
func scanStrip(body, head []byte, n, width int) ([]byte, error) {
	if !bytes.HasPrefix(body, head) {
		return nil, fmt.Errorf("strip reply does not open with %s", head)
	}
	i := server.ScanFloatArray(body, len(head), n, width)
	if i < 0 || string(body[i:]) != "}\n" {
		return nil, fmt.Errorf("strip reply is not %d rows of %d numbers and nothing else", n, max(width, 1))
	}
	return body[len(head)+1 : i-1], nil
}

// mergeStrips combines per-strip parts; parts[k] is nil for a lost strip
// (only under rules that allow a partial answer).
func mergeStrips(rule server.Merge, q server.Query, rows server.Window, strips []server.Window, parts []any, partial bool) *server.Response {
	if rule == server.MergeKWay {
		k := q.(server.TopQuery).K
		lists := make([][]server.PairResponse, 0, len(parts))
		for _, part := range parts {
			if part != nil {
				lists = append(lists, part.([]server.PairResponse))
			}
		}
		return server.OK(server.TopResponse{K: k, Partial: partial, Pairs: mergeTop(k, lists)})
	}
	// MergeStack, MergeConcat: the coordinator's envelope around the strips'
	// array bytes in strip order, null for each row of a lost strip.
	head, _ := stripShape(q, rows, partial)
	size := len(head) + len("[]}\n")
	for k, part := range parts {
		if part != nil {
			size += len(part.([]byte)) + 1
		} else {
			size += len("null,") * (strips[k].Hi - strips[k].Lo)
		}
	}
	b := append(append(make([]byte, 0, size), head...), '[')
	for k, part := range parts {
		if k > 0 {
			b = append(b, ',')
		}
		if part != nil {
			b = append(b, part.([]byte)...)
			continue
		}
		for r := range strips[k].Hi - strips[k].Lo {
			if r > 0 {
				b = append(b, ',')
			}
			b = append(b, "null"...)
		}
	}
	return &server.Response{Status: http.StatusOK, Body: append(b, "]}\n"...)}
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
