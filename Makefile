# Formatting gate: gofmt must have nothing to say about any file.
.PHONY: fmt-check
fmt-check:
	test -z "$$(gofmt -l .)"

# Tier-1: everything must build and every test pass.
.PHONY: verify
verify:
	go build ./...
	go test ./...

# Build every program under examples/ and run it. `go build ./...` only
# compiles them; running them exercises their own checks (fingerprint:
# the planted analogs are recovered; longrange: the planted interaction is
# the top hit; sweepdetect: the ω peak lands on the planted sweep), each a
# log.Fatal that fails the target. Their output is discarded.
.PHONY: examples
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go build -o "$$dir/" ./examples/... && \
	for ex in "$$dir"/*; do \
		echo "examples/$$(basename "$$ex")"; \
		"$$ex" >/dev/null || exit 1; \
	done

# Build-tag gate: the AVX-512 micro-kernel and the SIMD popcount tiers are
# amd64-only files; a non-amd64 target must still build from what is left
# (offline, standard library only). vet compiles the tests too, so the
# non-amd64 stubs and the host-keyed route tests of the three kernel
# packages must build there as well, as must experiments' list of Section
# V loops, none of which runs off amd64. The store build's writeback hint is a
# Linux call with a no-op twin elsewhere; the darwin line compiles that
# twin, and the windows lines the tile store's no-mmap fallback, read into
# one buffer instead of mapped, vetted with its tests beside bitmat's
# windowed .ldbm reads. The 386 lines are the 32-bit gate: an int is 32 bits
# there, so a constant past 2³¹ compared against an int fails to compile,
# and vet holds the tests to the same rule.
.PHONY: build-arm64
build-arm64:
	GOOS=linux GOARCH=arm64 go build ./...
	GOOS=linux GOARCH=arm64 go vet ./internal/popcount ./internal/kernel ./internal/blis ./internal/experiments
	GOOS=darwin GOARCH=arm64 go build ./...
	GOOS=windows GOARCH=arm64 go build ./internal/ldstore/...
	GOOS=windows GOARCH=amd64 go vet ./internal/ldstore/... ./internal/bitmat/...
	GOOS=linux GOARCH=386 go build ./...
	GOOS=linux GOARCH=386 go vet ./...

# Race tier: vet (asmdecl holds the assembly tile's frame to its Go
# declaration) plus the race detector on the concurrency-bearing packages
# (the parallel blis driver — four workers streaming panels through their
# strips in TestEpilogueContractFourWorkers — the pack kernels it calls from
# many goroutines, the one LD store package (internal/ldstore), complete and
# pruned stores alike, whose queries share each tile's first-touch check
# (TestFirstTouchConcurrent) and race Close (TestQueryRacingClose) and whose
# build is a three-stage pipeline, three stripe buffers handed from the
# scan to the writer and back, tested under injected faults — a pruned build
# with four kept stripes in flight and a complete one with four counts stripes,
# each stopped by a writer fault and by a cancel with no panel read left
# running (TestKeptBuildStopsAtFourThreads, TestCountBuildStopsAtFourThreads)
# — a selection scan on four driver workers, each with its own heap
# (TestSelectScanMatchesVisitor), a float scan with up to four stripes in
# flight, each on up to four driver workers, whose visitor keeps
# unsynchronized state (TestStreamStripesInFlight), the HTTP server that shares the
# arena pool, the region encoder's pooled offset scratch and the in-flight
# semaphore across requests (TestConcurrentRegionRequests), concurrent matvecs in both body spellings
# over the request-vector counters (TestSparseVectorCounters), the
# scatter-gather cluster coordinator, the ldserver lifecycle, and ldstore's
# per-chromosome builds — TestBuildSplitChromParallel runs up to three
# store builds at once over the shared arena pool and the process-wide
# counters), and ldsparse, whose tests reach the pruned store through its
# aliases. The
# server and cluster tests run with poisoned releases here
# (bufpool.PoisonForTest in their TestMain): a recycled reply, result
# float, request vector, tile payload or strip body is overwritten when it
# goes back and is the next buffer of its class handed out, and a double
# release panics — so TestWireStability, TestClusterBitIdentity,
# TestReplicaFailoverBitIdentity, TestClusterSparseBitIdentity,
# TestCoalesceConcurrentIdentical, TestConcurrentRegionRequests and
# TestStoreRegionBitIdentical fail on any read after a release.
.PHONY: verify-race
verify-race:
	go vet ./...
	go test -race ./internal/blis/... ./internal/core/... ./internal/kernel/... ./internal/popcount/... ./internal/ldstore/... ./internal/ldsparse/... ./internal/server/... ./internal/cluster/... ./cmd/ldserver/... ./cmd/ldstore/...

# Cluster tier: the httptest cluster end to end — bit-identity, error
# parity and wire stability against a single node (including replica
# failover), shard-kill → partial degradation, breaker trip/recover,
# retry, one request per shard attempt, keep-alive connection reuse,
# singleflight coalescing, and the fingerprint-keyed result cache. The
# whole package runs: a -run list would silently skip any test named
# outside it.
.PHONY: verify-cluster
verify-cluster:
	go test -race -count=1 ./internal/cluster/

# Short fuzz smoke. The LD store's tile container: one open target and one
# checkpoint-manifest target, each run against every store kind (dense counts at
# both widths, pruned, banded pruned); hostile and truncated files must
# error, never panic or over-allocate. The float wire: the node's encoder
# against encoding/json on any float64 bits — in rows, in vectors, and in
# square replies whose lower half may be copied from the upper — and the
# coordinator's binary strip decoder on any bytes as a shard's raw reply —
# what it accepts is exactly the asked head and 8 bytes for each of the
# strip's floats, all finite, and merges alone to the node encoder's
# spelling of them (FuzzSpliceScan) — and a sparse operator's request body,
# scanned or handed to encoding/json, against encoding/json alone, and the
# reader under that scan — one number walked and converted — against the
# plain grammar's end index (scanNumber, in the tests) and
# strconv.ParseFloat's bits on any bytes. Last, the
# fused epilogue's AVX-512 row kernels against their Go loops, bit for bit, on
# any counts, frequencies and row length (CI runs this too), and the kept
# epilogue's fused r² keep kernel against converting with scalarR2Exact, then
# keeping: the same kept columns and counts on any counts, frequencies,
# threshold and row length; and the counts epilogue's fused narrow-and-max
# kernel against its Go loop: the same narrowed counts and the same bits for
# every tile's maximum on any counts ≤ N, frequencies, N ≤ 65 535, row
# length and tile edges; and the selection epilogue's fused kernel against
# converting with scalarR2Fast, then selecting: the same candidate columns and
# r² bits and the same below-cut count on any counts, frequencies, floor, cut
# and row length. Each target minimizes a new input for at most a second, so
# it fuzzes for its whole budget (minimizing under the default 60 s limit
# used up most of a 10 s budget).
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/ldstore -run=Fuzz -fuzz=FuzzOpen -fuzztime=20s -fuzzminimizetime=1s
	go test ./internal/ldstore -run=Fuzz -fuzz=FuzzManifest -fuzztime=20s -fuzzminimizetime=1s
	go test ./internal/server -run=Fuzz -fuzz=FuzzWireFloat -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/cluster -run=Fuzz -fuzz=FuzzSpliceScan -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/server -run=Fuzz -fuzz=FuzzParseVector -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/server -run=Fuzz -fuzz=FuzzReadNumber -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/core -run=Fuzz -fuzz=FuzzEpilogueRow -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/core -run=Fuzz -fuzz=FuzzKeepRow -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/core -run=Fuzz -fuzz=FuzzSelectRow -fuzztime=10s -fuzzminimizetime=1s
	go test ./internal/core -run=Fuzz -fuzz=FuzzCountsRow -fuzztime=10s -fuzzminimizetime=1s

# The benchmark/ module is its own Go module, so tier-1 `go test ./...`
# never enters it: compile and smoke-test it against this tree, so an API
# break shows up here and not first at the benchmark gate.
.PHONY: bench-compile
bench-compile:
	cd benchmark && go vet . && go test -count=1 .

# run_listed PKG,RUN runs `go test PKG -run RUN` after checking every
# |-separated name in RUN against `go test -list`: a -run name that matches
# no test passes silently, so a renamed test would drop out of a target
# unnoticed. Here it fails the target instead.
run_listed = listed=$$(go test -list . $(1) | grep '^Test'); \
	for name in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$listed" | grep -Eq "$$name" || { echo "$(1): -run name $$name matches no test" >&2; exit 1; }; \
	done; \
	go test $(1) -count=1 -run '$(2)'

# Placement report: where the linker put the hot assembly loops, as the
# address and its offset in a 64-byte line, in cmd/ldbench and in the
# benchmark's own binary (benchmark/, which runs the ledger's workloads). The
# compute workloads have read bimodal with no change on their path when
# code linked in front of these moved them by a few hundred bytes; a change
# that claims no move on them shows here whether their kernels moved. A
# kernel a binary does not link is reported so.
placement_syms = tileRow8x8VPOPCNTQ rowR2FastAVX512 rowR2ExactAVX512 selectR2FastAVX512 countsR2Max16AVX512
.PHONY: placement
placement:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go build -o "$$dir/ldbench" ./cmd/ldbench && \
	(cd benchmark && go build -o "$$dir/benchmark" .) && \
	for bin in ldbench benchmark; do \
		go tool nm "$$dir/$$bin" > "$$dir/nm"; \
		for sym in $(placement_syms); do \
			addr=$$(awk -v s="$$sym" '$$3 ~ "\\." s "(\\.abi0)?$$" { print $$1 }' "$$dir/nm"); \
			if [ -z "$$addr" ]; then echo "$$bin $$sym (not linked)"; \
			else echo "$$bin $$sym 0x$$addr mod 64 = $$((0x$$addr % 64))"; fi; \
		done; \
	done

# Non-test source lines (.go and .s) per directory and in total, over the
# files git tracks; benchmark/ (its own module) is counted apart. ROADMAP's
# "least code" tallies come from this one command.
.PHONY: loc
loc:
	@git ls-files -- '*.go' '*.s' | grep -v '_test\.go$$' | xargs wc -l | awk '\
		$$2 == "total" { next } \
		{ dir = $$2; sub(/\/[^\/]*$$/, "", dir); if (dir == $$2) dir = "."; \
		  lines[dir] += $$1; if (dir ~ /^benchmark(\/|$$)/) bench += $$1; else total += $$1 } \
		END { for (d in lines) if (d !~ /^benchmark(\/|$$)/) printf "%7d  %s\n", lines[d], d | "sort -k2"; \
		      close("sort -k2"); printf "%7d  total, benchmark/ apart\n%7d  benchmark/ (its own module)\n", total, bench }'

# Kernel-dispatch tests: the AVX-512 tile against the generic kernel — one
# tile per call, then its row entry (a row of tiles per call, storing and
# adding, with and without a destination hint, canary cells around the
# destination, Row at one tile ≡ Fn) and both wrappers' extent checks
# (skipped with a message where the host cannot run it). Then tiny shapes
# through every route — the host default and the Go 4x4 below and above
# CSAMinWords, so the scalar kernel, the batched SIMD family and the tile —
# and the masked entry points, which take the default kernel's route over
# interleaved rows whatever kernel and blocking the config names, their
# runs on MaskedTile's grid — asserted bit-identical to the scalar oracle,
# under the host default and again as on a host without the tile; the
# route table pinned row by row through the driver's variant stats; every
# fused driver on all-ones recycled count scratch and strips, which nothing
# clears, and the row-run contract in both orders (one slab: streamed panel
# by panel; several: after the last), on one worker and on four. Then the
# fused epilogue's AVX-512 row kernels against their Go loops, bit for bit
# (the vector half skipped with a message without AVX-512F), the kept
# epilogue's r² skip at its edges (τ at each value and one ulp either side,
# a monomorphic column, τ = 0, subnormal τ, τ above every value, every tail
# length) and its fused keep kernel's whole-vector stores held inside
# their room, the counts epilogue's fused kernel at its edges (every run
# length 0–40, a monomorphic column, N = 65 535 and 65 536, a diagonal
# cell kept out of its tile's maximum), the selection epilogue's fused kernel
# at its edges (every row length 0–17, counts at 0 and N, floors at ±Inf,
# NaN and a tie, cuts at 0 and subnormal, its stores held inside their
# room), the destination hint shown
# unobservable in Matrix, Cross and
# Stream, and KeepCounts shown inert (copying the counts out changes no
# measure bit, exact or fast r²). Section V's seven loops against
# popcount.AndCount at every length to 1024 words (each one the host
# lacks skipped by name). Every name must match a test (run_listed). Cheap enough for the verify tier.
.PHONY: bench-kernel
bench-kernel:
	@$(call run_listed,./internal/kernel,TestVectorTile)
	@$(call run_listed,./internal/core,TestEpilogueRows|TestKeepRowEdges|TestKeepR2ExactStaysInRoom|TestSelectRowEdges|TestCountsRowEdges|TestDestHintUnobservable|TestDenseEpilogueDest|TestKeepCountsInert)
	@$(call run_listed,./internal/experiments,TestSectionVKernels)
	@$(call run_listed,./internal/blis,TestGemmStrategiesMatchScalarOracle|TestSyrkStrategiesMatchScalarOracle|TestMaskedStrategiesMatchScalarOracle|TestMaskedEvenTileAnyConfig|TestDispatchRoutes|TestAutoDispatchPicksByK|TestPlainKernelResolution|TestPortableRoute|TestEpilogueIgnoresScratchContents|TestGemmEpilogueCoversEachCellOnce|TestSyrkEpilogueUpperTriangle|TestEpilogueContractFourWorkers|TestSmallCallRunsOnCaller)

# One iteration each of the Go micro-benchmarks, so they keep compiling
# and running in CI. The float wire: a node encoding an 80 × 80 region
# into a pooled reply and releasing it (the square a single node answers
# with, and a 40-row strip of it: ns/float, MB/s), one 128-wide region
# through the node's mux, computed and from a tile store (B/op: what a
# request allocates with its floats, reply and tile payloads recycled),
# the float writer beside strconv.AppendFloat on r²-shaped and
# matvec-shaped values (ns/float), a coordinator checking and decoding the
# two raw strips of an 80 × 80 region and spelling the answer once. One
# pass of the small-k stream (8192 SNPs × 512 samples), which prints
# what the fused epilogue costs per pair, and one of its large-k twin (1024 SNPs × 65 536 samples), one pass of the
# Section VII gaps ablation (512 × 4096: plain Syrk, MaskedSyrk, and
# MaskedSyrk as on a host without the vector tile), one pass of the dense
# store build's out-of-core scan (4096 × 2048, stripes of 128 against
# 256-SNP panels) at 1 and 2 threads,
# which must read alike, and one call of each of its row conversions (D, fast and
# exact r², Go loop and AVX-512 row kernel, 512 and 3840 cells, ns/cell on
# L2-resident operands), and of the selection row (converted and selected,
# Go loop and fused kernel). Then the sparse
# operator path: one matvec over the ledger's 4096-SNP banded pruned store,
# resident and laid out per call (entries/s, allocs/op), and the complete
# store's reads on the ledger's dense store — an 80 × 80 region, a far pair
# and a 128-row top, on first-touch and on checked tiles (B/op, allocs/op), its 4096-float
# request body through the vector scanner (MB/s, ns/float), and the number
# reader beside scanNumber + strconv.ParseFloat on r²-shaped, matvec-shaped,
# exponent-form and 8-digit literals (ns/float). Then one call each of
# the micro-kernel rows (portable 4x4, per-cell vector, AVX-512 tile at kc
# 8/32/256, Gtriples/s and ns/tile; then the tile's row entry at kc 8/256,
# 1/16/256 tiles per call, storing and adding — the per-call floor and
# what one call per row of tiles leaves of it — and at kc 8/32 with and
# without a destination hint). Last, one store build per kind (complete,
# banded pruned) × checkpoint on/off through the three-stage build pipeline from a
# windowed .ldbm: pairs/s, MB/s written, commits per build against its 16
# stripes, driver calls per build (one a stripe: equal to stripes/op), scan
# wait, the stripe workers' prefetcher stall, B/op. Then both cohort
# generators (BenchmarkMosaic at 1024 × 65 536, BenchmarkMosaicStream at
# 16 384 × 2048 through 1024-SNP windows): ns/op and bits/s. Then
# Section V's seven loops over 1024 L1-resident words: ns a word.
.PHONY: bench-smoke
bench-smoke:
	go test ./internal/server -run '^$$' -bench 'BenchmarkEncodeRegion|BenchmarkServeRegion|BenchmarkAppendFloat' -benchtime 1x -benchmem
	go test ./internal/cluster -run '^$$' -bench BenchmarkScatterRegion -benchtime 1x -benchmem
	go test . -run '^$$' -bench 'BenchmarkStreamSmallK|BenchmarkStreamLargeK|BenchmarkStreamSource|BenchmarkMaskedLD' -benchtime 1x
	go test ./internal/core -run '^$$' -bench BenchmarkEpilogueRow -benchtime 1x
	go test ./internal/ldstore -run '^$$' -bench 'BenchmarkMatVec|BenchmarkStoreRead' -benchtime 1x -benchmem
	go test ./internal/server -run '^$$' -bench 'BenchmarkParseVector|BenchmarkReadNumber' -benchtime 1x -benchmem
	go test ./internal/kernel -run '^$$' -bench BenchmarkMicroKernel -benchtime 1x
	go test ./internal/ldstore -run '^$$' -bench BenchmarkBuildFile -benchtime 1x -benchmem
	go test ./internal/popsim -run '^$$' -bench BenchmarkMosaic -benchtime 1x
	go test ./internal/experiments -run '^$$' -bench BenchmarkSectionV -benchtime 1x
