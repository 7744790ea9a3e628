package server

import (
	"context"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/ldsparse"
)

// sparseOp executes a sparse operator over output rows [Lo, Hi) and
// returns the payload with the pooled segment it holds. It runs behind the
// heavy-request limiter and the request deadline like the dense queries.
func (s *Server) sparseOp(ctx context.Context, q SparseQuery, rows Window) (FloatPayload, []float64, error) {
	op := s.sparse.MatVecRange
	if q.Op == "score" {
		op = s.sparse.ScoreRange
	}
	seg, err := sparseCompute(ctx, q.Vec, func() ([]float64, error) { return op(q.Vec, rows.Lo, rows.Hi) })
	if err != nil {
		return nil, nil, err
	}
	s.metrics.sparseServed.Add(1)
	return q.Response(rows, seg), seg, nil
}

// sparseCompute runs one sparse operator over vec under the request
// context: a cancelled or timed-out request stops waiting (computeError
// maps the context error to 499/504) even though the tile walk itself —
// bounded by store size, not SNP² — finishes in the background. That walk
// is vec's last reader, so it is what hands vec back to bufpool.Floats.
func sparseCompute(ctx context.Context, vec []float64, f func() ([]float64, error)) ([]float64, error) {
	type result struct {
		v   []float64
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		bufpool.Floats.Put(vec)
		ch <- result{v, err}
	}()
	select {
	case res := <-ch:
		return res.v, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SparseInfo summarizes the loaded sparse store for /api/info.
type SparseInfo struct {
	Stat      string  `json:"stat"`
	Threshold float64 `json:"threshold"`
	Banded    bool    `json:"banded"`
	Band      int     `json:"band,omitempty"`
	NNZ       int64   `json:"nnz"`
}

func sparseInfo(s *ldsparse.Store) *SparseInfo {
	return &SparseInfo{
		Stat: s.Stat().String(), Threshold: s.Threshold(),
		Banded: s.Banded(), Band: s.Band(), NNZ: s.NNZ(),
	}
}
