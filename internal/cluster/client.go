package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"ldgemm/internal/bufpool"
)

// HTTPError is a non-200 shard response. Status < 500 is terminal — the
// shard is healthy and the request itself was rejected — and is relayed
// to the client verbatim; 5xx is a shard failure and retried.
type HTTPError struct {
	Status int
	Body   []byte
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("shard returned %d: %s", e.Status, e.Body)
}

// errShardDown is returned without touching the network while a shard's
// circuit breaker is open.
var errShardDown = errors.New("cluster: shard circuit open")

// latencyRing keeps the most recent successful round-trip times of one
// shard; its p95 ranks the replicas of a group (replicaGroup.ranked).
type latencyRing struct {
	mu   sync.Mutex
	buf  [64]time.Duration
	n    int // valid entries
	next int
}

// rankMinSamples gates latency ranking: until a shard has this many
// observed round trips there is no percentile worth ranking on.
const rankMinSamples = 16

func (l *latencyRing) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of the recorded window, or false while
// the window holds fewer than rankMinSamples entries.
func (l *latencyRing) quantile(q float64) (time.Duration, bool) {
	l.mu.Lock()
	n := l.n
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	l.mu.Unlock()
	if n < rankMinSamples {
		return 0, false
	}
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	idx := int(q * float64(n-1))
	return tmp[idx], true
}

// shardClient is the resilient HTTP client for one shard: each attempt is
// one HTTP request under the per-attempt timeout, transport errors and 5xx
// are retried with bounded exponential backoff, and the circuit breaker
// fails the whole call fast while the shard is down. A slow shard is
// routed around, not duplicated: its replica group ranks replicas on the
// latency ring and fails over through them.
type shardClient struct {
	base    string // http://host:port, no trailing slash
	hc      *http.Client
	cfg     Config
	breaker *breaker
	lat     *latencyRing
	m       *shardMetrics
}

func newShardClient(base string, hc *http.Client, cfg Config, m *shardMetrics) *shardClient {
	return &shardClient{
		base: base, hc: hc, cfg: cfg,
		breaker: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
		lat:     &latencyRing{},
		m:       m,
	}
}

// health summarizes the routing signals this client already collects:
// the breaker state and the recent p95 round-trip latency (known=false
// until the ring holds enough samples). Replica groups rank on it to
// pick the healthiest replica for each call.
func (c *shardClient) health() (state breakerState, p95 time.Duration, known bool) {
	state, _ = c.breaker.snapshot()
	p95, known = c.lat.quantile(0.95)
	return state, p95, known
}

// reply is a shard's 200: its body and the media type it declared.
type reply struct {
	body        []byte
	contentType string
}

// call runs one logical request — pathQuery is e.g. "/api/ld?i=3&j=5",
// reqBody a JSON POST body or nil, accept the Accept header or "" — and
// returns the 200 reply. Every endpoint is a pure function of the dataset,
// the query and the body, so POSTs ride the same retry and failover
// machinery as GETs: a replayed request answers identically. The breaker
// is consulted once per call and fed one outcome per attempt, so a string
// of failed retries trips it as fast as a string of failed calls.
func (c *shardClient) call(ctx context.Context, method, pathQuery string, reqBody []byte, accept string) (reply, error) {
	if !c.breaker.allow() {
		c.m.fastFails.Add(1)
		return reply{}, fmt.Errorf("%w: %s", errShardDown, c.base)
	}
	backoff := c.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.m.retries.Add(1)
			select {
			case <-ctx.Done():
				return reply{}, ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		rep, err := c.do(ctx, method, pathQuery, reqBody, accept)
		if err == nil {
			c.breaker.record(true)
			return rep, nil
		}
		var he *HTTPError
		if errors.As(err, &he) && he.Status < 500 {
			// The shard answered deliberately: healthy for the breaker,
			// pointless to retry.
			c.breaker.record(true)
			return reply{}, err
		}
		if ctx.Err() != nil {
			// The caller went away, so the failure says nothing about the
			// shard: hand a half-open probe slot back instead of feeding
			// the cancellation into the breaker, or a burst of abandoned
			// requests would trip the circuit against a healthy shard.
			c.breaker.neutral()
			return reply{}, err
		}
		c.breaker.record(false)
		c.m.failures.Add(1)
		lastErr = err
		if attempt == c.cfg.Retries {
			return reply{}, lastErr
		}
	}
}

const maxBackoff = time.Second

// do performs one HTTP round trip under the per-attempt timeout. reqBody
// is shared and read-only: each attempt wraps it in its own reader, so a
// retry re-sends the identical bytes.
func (c *shardClient) do(ctx context.Context, method, pathQuery string, reqBody []byte, accept string) (reply, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+pathQuery, rd)
	if err != nil {
		return reply{}, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	c.m.requests.Add(1)
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		// Not a successful round trip: a shard failing fast with 5xx must
		// not drag its p95 down, or a partially broken replica would rank
		// as the fastest of its group (and a 4xx says nothing about how
		// long real answers take either).
		return reply{}, &HTTPError{Status: resp.StatusCode, Body: body}
	}
	c.lat.add(time.Since(start))
	return reply{body: body, contentType: resp.Header.Get("Content-Type")}, nil
}

// maxPresizedBody caps the buffer readBody allocates on a shard's word:
// the widest region a default shard answers is a few megabytes.
const maxPresizedBody = 16 << 20

// readBody reads a reply into one buffer of its declared length — nodes
// declare it (server.Response.Write) — instead of io.ReadAll's doubling;
// an undeclared or implausible length falls back to io.ReadAll. The buffer
// is taken from bufpool.Bytes: scatter hands a strip's body back once it
// has decoded it, and any body handed on whole instead — relayed,
// forwarded, a terminal 4xx — is never released.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxPresizedBody {
		return io.ReadAll(resp.Body)
	}
	body := bufpool.Bytes.Get(int(resp.ContentLength))
	_, err := io.ReadFull(resp.Body, body)
	return body, err
}
