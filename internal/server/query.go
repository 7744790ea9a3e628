package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"ldgemm/internal/bufpool"
	"ldgemm/internal/core"
)

// Query definitions. Every LD query is the same dense operation over a
// row window × column window of one bit matrix, so every endpoint is
// defined once, here, and both tiers serve it from that definition:
//
//	parse → window → execute | scatter → encode
//
// A definition is a typed query parsed and validated from the request, the
// row window it covers and how that narrows to a strip, one canonical
// spelling, and a response type with the rule that merges per-strip
// answers. A node executes the query over the rows it owns; a coordinator
// sends each overlapping strip the canonical spelling narrowed to that
// strip's rows and merges by the rule. The canonical spelling is also the
// coordinator's coalesce and result-cache key, so two spellings of one
// request share one entry by construction.

// Limits is what a tier validates queries against.
type Limits struct {
	SNPs int
	// MaxRegionSNPs and MaxTopK are a node's caps. A coordinator leaves
	// them zero — not enforced — because the caps are its shards'
	// configuration: a shard's 4xx verdict is relayed verbatim.
	MaxRegionSNPs, MaxTopK int
	// Sparse reports whether the sparse operators are live.
	Sparse bool
}

// Window is a half-open row range [Lo, Hi).
type Window struct{ Lo, Hi int }

// Intersect returns the rows both windows hold; empty when Lo >= Hi.
func (w Window) Intersect(o Window) Window {
	return Window{Lo: max(w.Lo, o.Lo), Hi: min(w.Hi, o.Hi)}
}

// Query is one parsed, validated request.
type Query interface {
	// Rows is the row window the query covers — the client's rows=a:b,
	// or by default every row the query can touch — and whether the
	// client spelled it. Ownership goes by a pair's smaller index, so
	// windows partition every query disjointly across strips.
	Rows() (w Window, explicit bool)
	// Path is the canonical spelling of the query narrowed to rows w.
	Path(w Window) string
	// Body is the canonical request body of a POST query, nil for a GET.
	Body() []byte
}

// rowWindow is the part every query type embeds: its row window, and no
// body.
type rowWindow struct {
	rows     Window
	explicit bool
}

func (rw rowWindow) Rows() (Window, bool) { return rw.rows, rw.explicit }
func (rw rowWindow) Body() []byte         { return nil }

// Merge is the rule that combines per-strip answers into the response.
type Merge int

const (
	// MergeNone: one strip answers and its bytes are relayed verbatim.
	MergeNone Merge = iota
	// MergeStack: strips' matrix rows stack; a lost strip leaves null
	// rows under partial: true.
	MergeStack
	// MergeKWay: strips' rankings merge k-way in canonical pair order; a
	// lost strip leaves a partial ranking.
	MergeKWay
	// MergeConcat: strips' vector segments concatenate. A flat vector
	// cannot mark holes, so a lost strip fails the request.
	MergeConcat
)

// PartialOK reports whether an answer missing a strip is still an answer.
func (m Merge) PartialOK() bool { return m == MergeStack || m == MergeKWay }

// Definition is one endpoint.
type Definition struct {
	Method, Path string
	// Parse builds the typed query, or the rejection to send instead.
	Parse func(r *http.Request, lim Limits) (Query, *Response)
	Merge Merge
	// AnyShard marks answers that need no row ownership: every node
	// holds the full matrix, so a shard serves the query whatever its
	// strip and a coordinator forwards it to any healthy replica. Such a
	// query's window is never consulted.
	AnyShard bool
	// Heavy marks queries that run the LD kernels; a node admits them
	// through its in-flight limiter.
	Heavy bool
}

// Definitions is the query surface of both tiers.
var Definitions = []Definition{
	{Method: http.MethodGet, Path: "/api/freq", Parse: parseFreq, AnyShard: true},
	{Method: http.MethodGet, Path: "/api/ld", Parse: parsePair},
	{Method: http.MethodGet, Path: "/api/ld/region", Parse: parseRegion, Merge: MergeStack, Heavy: true},
	{Method: http.MethodGet, Path: "/api/ld/top", Parse: parseTop, Merge: MergeKWay, Heavy: true},
	{Method: http.MethodPost, Path: "/api/sparse/matvec", Parse: parseSparse("matvec"), Merge: MergeConcat, Heavy: true},
	{Method: http.MethodPost, Path: "/api/sparse/score", Parse: parseSparse("score"), Merge: MergeConcat, Heavy: true},
	{Method: http.MethodGet, Path: "/api/prune", Parse: parsePrune, AnyShard: true, Heavy: true},
	{Method: http.MethodGet, Path: "/api/blocks", Parse: parseBlocks, AnyShard: true, Heavy: true},
	{Method: http.MethodGet, Path: "/api/omega", Parse: parseOmega, AnyShard: true, Heavy: true},
}

// Executor answers a parsed query: a node computes, a coordinator
// scatters and merges. raw reports that the request asked for a float
// payload's raw spelling (Accept: application/octet-stream): a node answers
// a float payload so, a coordinator answers its clients in JSON whatever
// they accept.
type Executor func(ctx context.Context, d *Definition, q Query, raw bool) *Response

// NewMux builds the routes both tiers serve from the same code: the
// liveness probe, the JSON 404/405 fallbacks, /debug/vars, and per
// definition parse → exec → encode, behind the admit middleware when the
// definition is Heavy and the tier has one. The tier adds what only it
// knows (/readyz, /api/info).
func NewMux(lim Limits, m *Metrics, exec Executor, admit func(http.Handler) http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/", handleFallback)
	mux.HandleFunc("GET /debug/vars", m.ServeVars)
	for i := range Definitions {
		d := &Definitions[i]
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			q, rejection := d.Parse(r, lim)
			if rejection != nil {
				rejection.Write(w)
				return
			}
			resp := exec(r.Context(), d, q, r.Header.Get("Accept") == OctetStream)
			resp.Write(w)
			resp.release()
		})
		if d.Heavy && admit != nil {
			h = admit(h)
		}
		mux.Handle(d.Method+" "+d.Path, h)
		if d.Method == http.MethodPost {
			// The vector rides in the body. The methodless registration
			// catches every other verb with a proper 405 + Allow — the
			// bare "/" catch-all would otherwise 404 a GET here.
			mux.HandleFunc(d.Path, postOnly)
		}
	}
	return mux
}

// params reads query parameters and keeps the first rejection, so a
// parser reads and checks everything in the order errors should surface
// and returns once.
type params struct {
	v         url.Values
	rejection *Response
}

func (p *params) reject(status int, format string, args ...any) {
	if p.rejection == nil {
		p.rejection = Errorf(status, format, args...)
	}
}

func (p *params) fail(format string, args ...any) {
	p.reject(http.StatusBadRequest, format, args...)
}

// int parses a required integer parameter.
func (p *params) int(name string) int {
	if p.v.Get(name) == "" {
		p.fail("missing parameter %q", name)
		return 0
	}
	return p.intOr(name, 0)
}

// intOr parses an optional integer parameter.
func (p *params) intOr(name string, def int) int {
	v := p.v.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail("parameter %q: %v", name, err)
	}
	return n
}

// floatOr parses an optional float parameter.
func (p *params) floatOr(name string, def float64) float64 {
	v := p.v.Get(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail("parameter %q: %v", name, err)
	}
	return f
}

// snp checks a SNP index against the dataset.
func (p *params) snp(name string, i int, lim Limits) {
	if i < 0 || i >= lim.SNPs {
		p.fail("%s=%d outside 0..%d", name, i, lim.SNPs-1)
	}
}

const rowsParam = "rows"

// rows parses the optional rows=a:b window. Absent, the query covers its
// whole domain; present, the window must be non-empty and inside the
// domain, which the rejection names by formatting its bounds with outside.
func (p *params) rows(domain Window, outside string) rowWindow {
	v := p.v.Get(rowsParam)
	if v == "" {
		return rowWindow{rows: domain}
	}
	a, b, found := strings.Cut(v, ":")
	if !found {
		p.fail("parameter %q must be a:b, got %q", rowsParam, v)
	}
	lo, errLo := strconv.Atoi(a)
	hi, errHi := strconv.Atoi(b)
	if err := cmp.Or(errLo, errHi); err != nil {
		p.fail("parameter %q: %v", rowsParam, err)
	}
	if lo < domain.Lo || hi <= lo || hi > domain.Hi {
		p.fail("rows [%d,%d) outside "+outside, lo, hi, domain.Lo, domain.Hi)
	}
	return rowWindow{rows: Window{Lo: lo, Hi: hi}, explicit: true}
}

// FreqQuery is /api/freq: one SNP's derived-allele frequency.
type FreqQuery struct {
	I int
	rowWindow
}

func parseFreq(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := FreqQuery{I: p.int("i")}
	p.snp("i", q.I, lim)
	return q, p.rejection
}

func (q FreqQuery) Path(Window) string { return fmt.Sprintf("/api/freq?i=%d", q.I) }

// PairQuery is /api/ld: full statistics of one pair. Its window is the
// single row that owns the pair, the smaller index.
type PairQuery struct {
	I, J int
	rowWindow
}

func parsePair(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := PairQuery{I: p.int("i"), J: p.int("j")}
	p.snp("i", q.I, lim)
	p.snp("j", q.J, lim)
	q.rows = Window{Lo: min(q.I, q.J), Hi: min(q.I, q.J) + 1}
	return q, p.rejection
}

func (q PairQuery) Path(Window) string { return fmt.Sprintf("/api/ld?i=%d&j=%d", q.I, q.J) }

// RegionQuery is /api/ld/region: rows × all columns of the dense matrix
// over SNPs [Start, End), rows defaulting to the whole region.
type RegionQuery struct {
	Start, End int
	Measure    string // canonical: r2, d, or dprime
	rowWindow
}

func parseRegion(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := RegionQuery{Start: p.int("start"), End: p.int("end"), Measure: p.v.Get("measure")}
	if q.Start < 0 || q.End <= q.Start || q.End > lim.SNPs {
		p.fail("invalid region [%d,%d) of %d SNPs", q.Start, q.End, lim.SNPs)
	}
	if width := q.End - q.Start; lim.MaxRegionSNPs > 0 && width > lim.MaxRegionSNPs {
		p.reject(http.StatusUnprocessableEntity, "region width %d exceeds cap %d", width, lim.MaxRegionSNPs)
	}
	if q.Measure == "" {
		q.Measure = "r2"
	}
	if q.measure() == 0 {
		p.fail("unknown measure %q", q.Measure)
	}
	q.rowWindow = p.rows(Window{Lo: q.Start, Hi: q.End}, "region [%d,%d)")
	return q, p.rejection
}

// measure maps the canonical name to the core flag; 0 when unknown.
func (q RegionQuery) measure() core.Measure {
	switch q.Measure {
	case "r2":
		return core.MeasureR2
	case "d":
		return core.MeasureD
	case "dprime":
		return core.MeasureDPrime
	}
	return 0
}

func (q RegionQuery) Path(w Window) string {
	return fmt.Sprintf("/api/ld/region?start=%d&end=%d&measure=%s&rows=%d:%d", q.Start, q.End, q.Measure, w.Lo, w.Hi)
}

// RegionResponse is the /api/ld/region payload: a dense row-major matrix
// for SNPs [Start, End). Under a row window narrower than the region
// Values holds only rows [RowStart, RowEnd) × columns [Start, End).
// Partial is set only by a cluster coordinator whose gather lost one or
// more shards; the missing rows are null.
type RegionResponse struct {
	Start    int         `json:"start"`
	End      int         `json:"end"`
	Measure  string      `json:"measure"`
	RowStart int         `json:"row_start,omitempty"`
	RowEnd   int         `json:"row_end,omitempty"`
	Partial  bool        `json:"partial,omitempty"`
	Values   [][]float64 `json:"values"`
}

// Response is the envelope of rows, its Values unset. A window covering
// every region row is the plain square response, so a one-strip cluster
// answers like a single node.
func (q RegionQuery) Response(rows Window) RegionResponse {
	resp := RegionResponse{Start: q.Start, End: q.End, Measure: q.Measure}
	if rows != (Window{Lo: q.Start, Hi: q.End}) {
		resp.RowStart, resp.RowEnd = rows.Lo, rows.Hi
	}
	return resp
}

// TopQuery is /api/ld/top: the K strongest pairs whose smaller index lies
// in the window, which defaults to every row.
type TopQuery struct {
	K int
	rowWindow
}

func parseTop(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := TopQuery{K: p.intOr("k", 20)}
	if lim.MaxTopK > 0 && (q.K < 1 || q.K > lim.MaxTopK) {
		p.fail("k=%d outside 1..%d", q.K, lim.MaxTopK)
	}
	q.rowWindow = p.rows(Window{Hi: lim.SNPs}, "%d..%d")
	return q, p.rejection
}

func (q TopQuery) Path(w Window) string {
	return fmt.Sprintf("/api/ld/top?k=%d&rows=%d:%d", q.K, w.Lo, w.Hi)
}

// TopResponse is the /api/ld/top payload. Partial is set only by a
// cluster coordinator whose gather lost one or more shards: the ranking
// is then missing that strip's pairs.
type TopResponse struct {
	K       int            `json:"k"`
	Partial bool           `json:"partial,omitempty"`
	Pairs   []PairResponse `json:"pairs"`
}

// SparseQuery is POST /api/sparse/matvec and /api/sparse/score: output
// rows of R·x, or of the Σ_j stat(i,j)·z[j]² aggregate, over a
// threshold-pruned CSR tile store. The vector rides in the body; the
// window defaults to every row. The store's fold order is deterministic
// per row, so strips' segments concatenate bit-identically to one node's
// vector.
type SparseQuery struct {
	Op  string // matvec or score
	Vec []float64
	rowWindow
}

// MatVecRequest is the /api/sparse/matvec request body.
type MatVecRequest struct {
	X []float64 `json:"x"`
}

// ScoreRequest is the /api/sparse/score request body: per-SNP z-scores.
type ScoreRequest struct {
	Z []float64 `json:"z"`
}

func parseSparse(op string) func(*http.Request, Limits) (Query, *Response) {
	return func(r *http.Request, lim Limits) (Query, *Response) {
		if !lim.Sparse {
			return nil, Errorf(http.StatusNotFound, "no sparse store loaded")
		}
		// The vector is ~20 bytes/entry as JSON; 64 bytes/entry of headroom
		// bounds hostile bodies without rejecting any legitimate vector.
		body, err := readBody(r, int64(lim.SNPs)*64+4096)
		if err != nil {
			return nil, Errorf(http.StatusRequestEntityTooLarge, "%v", err)
		}
		// Neither reader keeps a byte of the body, nor does any error text.
		defer bufpool.Bytes.Put(body)
		q := SparseQuery{Op: op}
		if vec, ok := parseVector(body, sparseKey[q.Op], lim.SNPs); ok {
			vectorsScanned.Add(1)
			q.Vec = vec
		} else {
			vectorsJSON.Add(1)
			if op == "score" {
				var req ScoreRequest
				err = json.Unmarshal(body, &req)
				q.Vec = req.Z
			} else {
				var req MatVecRequest
				err = json.Unmarshal(body, &req)
				q.Vec = req.X
			}
		}
		p := params{v: r.URL.Query()}
		if err != nil {
			p.fail("request body: %v", err)
		}
		if len(q.Vec) != lim.SNPs {
			p.fail("vector holds %d entries, dataset has %d SNPs", len(q.Vec), lim.SNPs)
		}
		q.rowWindow = p.rows(Window{Hi: lim.SNPs}, "%d..%d")
		return q, p.rejection
	}
}

// readBody drains the request body under a hard byte cap, into one buffer
// of the declared Content-Length, from bufpool.Bytes, when there is one
// inside the cap.
func readBody(r *http.Request, limit int64) (b []byte, err error) {
	defer r.Body.Close()
	body := http.MaxBytesReader(nil, r.Body, limit)
	if n := r.ContentLength; 0 <= n && n <= limit {
		b = bufpool.Bytes.Get(int(n))
		_, err = io.ReadFull(body, b)
	} else {
		b, err = io.ReadAll(body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, err
	}
	return b, nil
}

// sparseKey is the one field of each operator's request body.
var sparseKey = map[string]string{"matvec": "x", "score": "z"}

func (q SparseQuery) Path(w Window) string {
	return fmt.Sprintf("/api/sparse/%s?rows=%d:%d", q.Op, w.Lo, w.Hi)
}

// Body is the decoded vector re-encoded as encoding/json writes the request
// struct, so every shard sees the same bytes however the client spelled its
// JSON. Entries decoded from JSON are finite, so encoding cannot fail.
func (q SparseQuery) Body() []byte {
	b := make([]byte, 0, 8+len(q.Vec)*(maxFloatLen+1))
	b, _ = appendFloats(append(append(append(b, `{"`...), sparseKey[q.Op]...), `":`...), q.Vec)
	return append(b, '}')
}

// MatVecResponse is the /api/sparse/matvec payload: Y holds output rows
// [RowStart, RowEnd) of R·x (the full range when no window was asked).
type MatVecResponse struct {
	RowStart int       `json:"row_start"`
	RowEnd   int       `json:"row_end"`
	Y        []float64 `json:"y"`
}

// ScoreResponse is the /api/sparse/score payload: Scores[k] is the
// Σ_j stat(i,j)·z[j]² aggregate for SNP i = RowStart+k.
type ScoreResponse struct {
	RowStart int       `json:"row_start"`
	RowEnd   int       `json:"row_end"`
	Scores   []float64 `json:"scores"`
}

// Response wraps the output segment of rows in the operator's payload.
func (q SparseQuery) Response(rows Window, seg []float64) FloatPayload {
	if q.Op == "score" {
		return ScoreResponse{RowStart: rows.Lo, RowEnd: rows.Hi, Scores: seg}
	}
	return MatVecResponse{RowStart: rows.Lo, RowEnd: rows.Hi, Y: seg}
}

// PruneQuery is /api/prune: window/step/r² LD pruning of the whole matrix.
type PruneQuery struct {
	Window, Step int
	R2           float64
	rowWindow
}

func parsePrune(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := PruneQuery{Window: p.intOr("window", 50), Step: p.intOr("step", 5), R2: p.floatOr("r2", 0.5)}
	if q.Window < 2 || q.Step < 1 || q.Step > q.Window {
		p.fail("invalid window/step %d/%d", q.Window, q.Step)
	}
	if q.R2 <= 0 || q.R2 > 1 {
		p.fail("r2 threshold %v outside (0,1]", q.R2)
	}
	return q, p.rejection
}

func (q PruneQuery) Path(Window) string {
	return fmt.Sprintf("/api/prune?window=%d&step=%d&r2=%s", q.Window, q.Step, formatFloat(q.R2))
}

// BlocksQuery is /api/blocks: haplotype blocks of the whole matrix.
type BlocksQuery struct {
	DPrime, Frac float64
	rowWindow
}

func parseBlocks(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := BlocksQuery{DPrime: p.floatOr("dprime", 0.8), Frac: p.floatOr("frac", 0.9)}
	if q.DPrime <= 0 || q.DPrime > 1 || q.Frac <= 0 || q.Frac > 1 {
		p.fail("dprime %v and frac %v must lie in (0,1]", q.DPrime, q.Frac)
	}
	return q, p.rejection
}

func (q BlocksQuery) Path(Window) string {
	return fmt.Sprintf("/api/blocks?dprime=%s&frac=%s", formatFloat(q.DPrime), formatFloat(q.Frac))
}

// OmegaQuery is /api/omega: the ω selective-sweep scan of the whole matrix.
type OmegaQuery struct {
	Grid, MinEach, MaxEach int
	rowWindow
}

func parseOmega(r *http.Request, lim Limits) (Query, *Response) {
	p := params{v: r.URL.Query()}
	q := OmegaQuery{Grid: p.intOr("grid", 50), MinEach: p.intOr("min_each", 2), MaxEach: p.intOr("max_each", 100)}
	if q.Grid < 1 || q.MinEach < 2 || q.MaxEach < q.MinEach {
		p.fail("invalid scan: grid=%d min_each=%d max_each=%d", q.Grid, q.MinEach, q.MaxEach)
	}
	if lim.SNPs < 2*q.MinEach {
		p.fail("%d SNPs is too few for min_each=%d", lim.SNPs, q.MinEach)
	}
	return q, p.rejection
}

func (q OmegaQuery) Path(Window) string {
	return fmt.Sprintf("/api/omega?grid=%d&min_each=%d&max_each=%d", q.Grid, q.MinEach, q.MaxEach)
}

// formatFloat spells a float so that parsing it back yields the same bits.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
