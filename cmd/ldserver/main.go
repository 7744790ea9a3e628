// Command ldserver serves LD queries over a loaded genomic dataset: the
// backend a GWAS browser or analysis notebook would hit instead of
// recomputing LD locally.
//
// Usage:
//
//	ldserver -in data.ldgm -addr :8080
//
// Every LD request runs the host's one driver configuration (cache
// blocking and micro-kernel); -threads sets only its worker count, and
// -max-region caps the width of a dense region (at least 1).
//
// With -store pointing at an `ldstore build` output for the same dataset,
// the /api/ld, /api/ld/region, and /api/ld/top endpoints serve precomputed
// tiles of joint counts, read in place from the mapped file and converted
// to whichever measure a request asks for, instead of running the kernels
// per request; a store built from a different dataset is rejected at
// startup by its fingerprint. With -sparse-store pointing at a pruned store (`ldstore
// build` with -threshold or -band, LDSS), the POST /api/sparse/matvec and
// /api/sparse/score operator endpoints come up too, under the same
// fingerprint check. Each flag takes only its own kind of store.
//
// Endpoints (GET unless noted, JSON):
//
//	/api/info                         dataset dimensions and summary
//	/api/freq?i=N                     allele frequency of SNP N
//	/api/ld?i=N&j=M                   full pair statistics + significance
//	/api/ld/region?start=A&end=B      dense matrix (&measure=r2|d|dprime)
//	/api/ld/top?k=K                   strongest associations
//	/api/prune?window=&step=&r2=      LD pruning
//	/api/blocks?dprime=&frac=         haplotype blocks
//	/api/omega?grid=&min_each=&max_each=   selective-sweep scan
//	/api/sparse/matvec                POST {"x": [...]}: sparse R·v
//	/api/sparse/score                 POST {"z": [...]}: Σ stat·z² scores
//	/debug/vars                       ops metrics (expvar JSON)
//
// Request lifecycle: every request runs under -request-timeout (the
// kernel drivers observe the deadline through context cancellation and
// abort mid-computation), at most -max-inflight heavy requests compute
// concurrently (excess requests are shed with 503 + Retry-After), and
// SIGINT/SIGTERM drain in-flight requests for up to -grace before the
// process exits. With -admin set, net/http/pprof and a second /debug/vars
// are served on a separate listener that is never exposed to clients.
//
// Cluster modes: `-shard-range a:b` runs this server as a cluster shard
// owning SNP rows [a, b) — it answers only queries whose smaller index
// falls in its strip (421 otherwise) and advertises the range on
// /api/info. `-coordinator urlA|urlB,urlC` runs a coordinator instead
// of a server: no dataset is loaded; comma-separated groups own the
// strips, and `|`-separated URLs within a group are interchangeable
// replicas of the same strip (identical shard ranges and dataset
// fingerprints, validated at bootstrap). Pair lookups route to the
// healthiest replica of the owning group and region/top queries
// scatter-gather across the strips, failing over within each group
// before degrading; -shard-timeout, -retries, -retry-backoff,
// -breaker-failures, and -breaker-cooldown tune the resilient shard
// client, which sends one request per attempt, and -result-cache bounds
// the fingerprint-keyed result cache. All replicas must be reachable
// when the coordinator boots.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ldgemm/internal/cluster"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/seqio"
	"ldgemm/internal/server"
)

func main() {
	app, err := setup(os.Args[1:], os.Stderr)
	if err != nil {
		log.Fatalf("ldserver: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := app.run(ctx); err != nil && err != http.ErrServerClosed {
		log.Fatalf("ldserver: %v", err)
	}
}

// app is a configured ldserver: the main API server plus the optional
// admin (pprof/metrics) server, ready to run until a signal drains it.
type app struct {
	srv    *http.Server
	admin  *http.Server         // nil unless -admin was given
	store  *ldstore.Store       // nil unless -store was given; closed after drain
	sparse *ldstore.Store       // nil unless -sparse-store was given; closed after drain
	coord  *cluster.Coordinator // nil unless -coordinator was given
	grace  time.Duration
}

// openStore opens the store at path for -store (complete) or
// -sparse-store (pruned). A store of the other kind, or built for a
// different dataset, is refused: a stale store silently serving wrong
// statistics would be worse than no store, so startup fails rather than
// quietly falling back.
func openStore(what, path string, pruned bool, fp uint64) (*ldstore.Store, error) {
	s, err := ldstore.Open(path, ldstore.Options{})
	if err != nil {
		return nil, err
	}
	switch {
	case s.Pruned() != pruned && pruned:
		err = fmt.Errorf("%s %s is a complete store; -sparse-store takes a pruned one (ldstore build -threshold or -band)", what, path)
	case s.Pruned() != pruned:
		err = fmt.Errorf("%s %s is a pruned store; pass it as -sparse-store", what, path)
	case s.Fingerprint() != fp:
		err = fmt.Errorf("%s %s was built for a different dataset (fingerprint %016x, dataset %016x)", what, path, s.Fingerprint(), fp)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// setup parses flags, loads the dataset, and returns the ready app;
// separated from main so tests can drive the full configuration path
// without binding a socket.
func setup(args []string, stderr io.Writer) (*app, error) {
	fs := flag.NewFlagSet("ldserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "dataset path (.ldgm or .ms, optionally gzipped; required)")
	addr := fs.String("addr", ":8080", "listen address")
	maxRegion := fs.Int("max-region", 512, "cap on dense region width (at least 1)")
	threads := fs.Int("threads", 0, "LD kernel threads (0 = GOMAXPROCS)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second,
		"per-request deadline; in-flight kernels are cancelled when it expires (0 = none)")
	maxInFlight := fs.Int("max-inflight", 0,
		"cap on concurrently-computing heavy requests; excess get 503 (0 = unlimited)")
	adminAddr := fs.String("admin", "",
		"admin listen address for /debug/pprof and /debug/vars (empty = disabled)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain window after SIGINT/SIGTERM")
	accessLog := fs.Bool("access-log", true, "emit one structured (JSON) log line per request")
	storePath := fs.String("store", "",
		"complete store (ldstore build output) backing the LD endpoints (empty = compute on the fly)")
	sparsePath := fs.String("sparse-store", "",
		"pruned store (ldstore build -threshold/-band output) backing the /api/sparse operator endpoints")
	shardRange := fs.String("shard-range", "",
		"owned SNP row range a:b when running as a cluster shard (empty = unsharded)")
	coordinator := fs.String("coordinator", "",
		"comma-separated shard groups (replicas |-separated within a group); run as a cluster coordinator instead of serving a dataset")
	shardTimeout := fs.Duration("shard-timeout", 30*time.Second,
		"coordinator: deadline for each shard request (one request per attempt)")
	retries := fs.Int("retries", 2, "coordinator: re-attempts after a failed shard call (0 = none)")
	retryBackoff := fs.Duration("retry-backoff", 25*time.Millisecond,
		"coordinator: sleep before the first retry, doubling up to 1s")
	breakerFailures := fs.Int("breaker-failures", 5,
		"coordinator: consecutive shard failures that open its circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second,
		"coordinator: how long an open breaker fails fast before probing the shard again")
	resultCache := fs.Int64("result-cache", 64<<20,
		"coordinator: byte budget for the fingerprint-keyed result cache (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *coordinator != "" {
		if *in != "" || *storePath != "" || *sparsePath != "" || *shardRange != "" {
			return nil, fmt.Errorf("-coordinator is mutually exclusive with -in, -store, -sparse-store, and -shard-range")
		}
		ccfg := cluster.Config{
			ShardTimeout: *shardTimeout, Retries: *retries, RetryBackoff: *retryBackoff,
			BreakerFailures: *breakerFailures, BreakerCooldown: *breakerCooldown, ResultCacheBytes: *resultCache,
		}
		if *retries == 0 {
			ccfg.Retries = -1 // the flag's 0 means "no retries", not "default"
		}
		if *resultCache == 0 {
			ccfg.ResultCacheBytes = -1 // likewise: 0 at the CLI disables the cache
		}
		co, err := cluster.New(context.Background(), strings.Split(*coordinator, ","), ccfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "ldserver: coordinating %d shard groups; listening on %s\n",
			len(strings.Split(*coordinator, ",")), *addr)
		a := &app{grace: *grace, coord: co, srv: newHTTPServer(*addr, co, *reqTimeout)}
		if *adminAddr != "" {
			a.admin = newHTTPServer(*adminAddr, adminMux(co.VarsHandler()), 0)
		}
		return a, nil
	}
	if *in == "" {
		fs.Usage()
		return nil, fmt.Errorf("-in is required")
	}
	if *maxRegion < 1 {
		// Like a -shard-range typo: refuse to start rather than serve with
		// a cap the operator did not ask for.
		return nil, fmt.Errorf("-max-region %d: want at least 1", *maxRegion)
	}
	g, err := seqio.LoadMatrix(*in)
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		MaxRegionSNPs: *maxRegion, Threads: *threads,
		RequestTimeout: *reqTimeout, MaxInFlight: *maxInFlight,
	}
	if *shardRange != "" {
		lo, hi, err := parseShardRange(*shardRange, g.SNPs)
		if err != nil {
			return nil, err
		}
		cfg.ShardStart, cfg.ShardEnd = lo, hi
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(stderr, nil))
	}
	var st, sp *ldstore.Store
	if *storePath != "" {
		if st, err = openStore("store", *storePath, false, g.Fingerprint()); err != nil {
			return nil, err
		}
		cfg.Store = st
		fmt.Fprintf(stderr, "ldserver: tile store %s: %d tiles of counts, %d×%d\n",
			*storePath, st.Info().Tiles, st.SNPs(), st.Samples())
	}
	if *sparsePath != "" {
		if sp, err = openStore("sparse store", *sparsePath, true, g.Fingerprint()); err != nil {
			if st != nil {
				st.Close()
			}
			return nil, err
		}
		cfg.Sparse = sp
		info := sp.Info()
		fmt.Fprintf(stderr, "ldserver: sparse store %s: %d entries of %s at threshold %g (density %.4f), resident=%t (%d bytes)\n",
			*sparsePath, info.NNZ, info.Stat, info.Threshold, info.Density, info.Resident, info.ResidentBytes)
	}
	s := server.New(g, cfg)
	fmt.Fprintf(stderr, "ldserver: loaded %d SNPs × %d sequences; listening on %s\n",
		g.SNPs, g.Samples, *addr)

	a := &app{grace: *grace, store: st, sparse: sp, srv: newHTTPServer(*addr, s, *reqTimeout)}
	if *adminAddr != "" {
		a.admin = newHTTPServer(*adminAddr, adminMux(s.VarsHandler()), 0)
	}
	return a, nil
}

// parseShardRange parses the -shard-range a:b flag against the loaded
// dataset. A CLI typo should refuse to start, not silently clamp.
func parseShardRange(s string, snps int) (lo, hi int, err error) {
	a, b, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, fmt.Errorf("-shard-range: want a:b, got %q", s)
	}
	if lo, err = strconv.Atoi(a); err != nil {
		return 0, 0, fmt.Errorf("-shard-range: %v", err)
	}
	if hi, err = strconv.Atoi(b); err != nil {
		return 0, 0, fmt.Errorf("-shard-range: %v", err)
	}
	if lo < 0 || hi <= lo || hi > snps {
		return 0, 0, fmt.Errorf("-shard-range [%d,%d) outside dataset rows 0..%d", lo, hi, snps)
	}
	return lo, hi, nil
}

// newHTTPServer wraps a handler in an http.Server with conservative edge
// timeouts: ReadHeaderTimeout defeats slowloris handshakes, and the write
// timeout leaves room past the per-request deadline so timeout responses
// are still delivered instead of the connection being cut mid-body.
func newHTTPServer(addr string, h http.Handler, reqTimeout time.Duration) *http.Server {
	write := 5 * time.Minute
	if reqTimeout > 0 {
		write = reqTimeout + 30*time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      write,
		IdleTimeout:       2 * time.Minute,
	}
}

// adminMux serves the operator-only surface: pprof profiles and the
// metric tree, on a listener separate from client traffic.
func adminMux(vars http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/vars", vars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run serves until the context is cancelled (SIGINT/SIGTERM), then drains
// in-flight requests for up to the grace window.
func (a *app) run(ctx context.Context) error {
	errc := make(chan error, 2)
	go func() { errc <- a.srv.ListenAndServe() }()
	if a.admin != nil {
		go func() { errc <- a.admin.ListenAndServe() }()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), a.grace)
	defer cancel()
	if a.admin != nil {
		a.admin.Shutdown(sctx)
	}
	err := a.srv.Shutdown(sctx)
	if a.store != nil {
		a.store.Close()
	}
	if a.sparse != nil {
		a.sparse.Close()
	}
	if a.coord != nil {
		a.coord.Close()
	}
	return err
}
