# Tier-1 verification for the coleader repository. `make check` is the
# gate every PR must pass; CI runs it plus the race and fuzz targets.

GO ?= go

.PHONY: check fmt vet lint lint-bench build test race fuzz-smoke bench modelcheck-smoke fault-smoke fault-verify-smoke shard-smoke batch-smoke bench-harness-test

# check chains the full tier-1 verify: formatting, vet, the oblint
# model-invariant analyzer, build, and tests.
check: fmt vet lint build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs oblint over the whole module; it must exit 0. The follow-up
# invocations prove the analyzer itself is alive by requiring a nonzero
# exit from the named check on each known-violating fixture package
# (fixture:check pairs; xblock exercises the cross-package call graph).
lint:
	$(GO) run ./cmd/oblint ./...
	@for fc in \
		det:det-time \
		statesnap:state-snapshot \
		staterestore:state-restore \
		staterestore:state-skew \
		statekey:state-key \
		xblock:handler-block \
		dynblock:handler-block \
		concleak:conc-goroutine-leak \
		chandir:conc-chan-direction \
		conclock:conc-lock-order; do \
		dir=internal/lint/testdata/src/fixt/$${fc%%:*}; chk=$${fc##*:}; \
		if $(GO) run ./cmd/oblint -check $$chk $$dir >/dev/null 2>&1; then \
			echo "oblint failed to flag $$dir under $$chk"; exit 1; \
		fi; \
	done
	@dir=internal/lint/testdata/src/fixt/dyntaint; \
	if $(GO) run ./cmd/oblint -check oblivious-taint -oblivious coleader/$$dir $$dir >/dev/null 2>&1; then \
		echo "oblint failed to flag $$dir under oblivious-taint"; exit 1; \
	fi

# lint-bench times a cold oblint run (fresh cache: full source
# type-checking) against a warm one (content-hash cache replay) on a
# prebuilt binary, proves the two produce byte-identical findings, and
# records both wall times as a benchmark family in BENCH_sim.json so the
# analyzer's own performance is ratcheted like the simulator's. The
# devirtualization site counts from the cold run's -json output ride
# along as custom metrics (resolved-sites / overapprox-sites /
# unresolvable-sites), so CI can ratchet the call graph's residual blind
# spots downward alongside the wall times. Override the entry label for
# CI comparison runs:
#   make lint-bench LINT_BENCH_LABEL=lint-ci
LINT_BENCH_LABEL ?= lint
lint-bench:
	@mkdir -p bin
	$(GO) build -o bin/oblint ./cmd/oblint
	@rm -rf .oblint-bench-cache
	@t0=$$(date +%s%N); \
	./bin/oblint -cache-dir .oblint-bench-cache -cache-stats -json ./... > .oblint-bench-cold.json; \
	t1=$$(date +%s%N); \
	./bin/oblint -cache-dir .oblint-bench-cache -cache-stats -json ./... > .oblint-bench-warm.json; \
	t2=$$(date +%s%N); \
	echo "cold (cache empty): $$(( (t1 - t0) / 1000000 )) ms"; \
	echo "warm (cache full):  $$(( (t2 - t1) / 1000000 )) ms"; \
	printf 'BenchmarkOblintColdModule 1 %d ns/op\nBenchmarkOblintWarmModule 1 %d ns/op\n' \
		$$(( t1 - t0 )) $$(( t2 - t1 )) > .oblint-bench-times.txt
	@cmp .oblint-bench-cold.json .oblint-bench-warm.json && echo "cold and warm findings are byte-identical"
	@res=$$(grep -o '"resolvedSites": *[0-9]*' .oblint-bench-cold.json | grep -o '[0-9]*$$'); \
	ova=$$(grep -o '"overApproxSites": *[0-9]*' .oblint-bench-cold.json | grep -o '[0-9]*$$'); \
	unr=$$(grep -o '"unresolvableSites": *[0-9]*' .oblint-bench-cold.json | grep -o '[0-9]*$$'); \
	echo "devirt: $$res resolved, $$ova over-approx, $$unr unresolvable"; \
	printf 'BenchmarkOblintDevirt 1 %d resolved-sites %d overapprox-sites %d unresolvable-sites\n' \
		"$$res" "$$ova" "$$unr" >> .oblint-bench-times.txt
	$(GO) run ./cmd/benchjson -in .oblint-bench-times.txt -out BENCH_sim.json \
		-label "$(LINT_BENCH_LABEL)" -note "oblint whole-module wall time + devirt site counts"
	@rm -rf .oblint-bench-cache .oblint-bench-cold.json .oblint-bench-warm.json .oblint-bench-times.txt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (the live runtime and
# simulator are the concurrency-bearing packages, but everything runs).
race:
	$(GO) test -race ./...

# bench runs the root-package simulator benchmarks (bench_test.go) and
# records the parsed results (time/op, allocs/op, custom metrics such as
# pulses/op) into BENCH_sim.json under BENCH_LABEL, replacing any
# existing entry with that label. Override for quick CI runs:
#   make bench BENCHTIME=100ms BENCH_LABEL=ci
BENCHTIME ?= 1x
BENCH_LABEL ?= post
BENCH_NOTE ?= benchtime $(BENCHTIME)
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -timeout 40m . \
		| tee .bench-out.txt
	@grep -q '^PASS' .bench-out.txt  # tee masks go test's exit; a killed run must not record
	$(GO) run ./cmd/benchjson -in .bench-out.txt -out BENCH_sim.json \
		-label "$(BENCH_LABEL)" -note "$(BENCH_NOTE)"
	@rm -f .bench-out.txt

# bench-harness-test runs the repository benchmark harness's own tests.
# perfbench/_harness is a Go module of its own (replace -> ../..), so
# `make test` never reaches it; it wraps engine internals, so an engine
# change that breaks it shows up here rather than at benchmark time.
bench-harness-test:
	cd perfbench/_harness && $(GO) test ./...

# modelcheck-smoke proves the parallel explorer's determinism contract on
# a real instance: the -json reports of a sequential and a 4-worker run
# must be byte-for-byte identical (counters, verdict, witness — nothing
# may depend on worker count). An audited run certifies the fingerprint
# memo collision-free on the same instance.
modelcheck-smoke:
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -json -workers 1 > .modelcheck-w1.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -json -workers 4 > .modelcheck-w4.json
	cmp .modelcheck-w1.json .modelcheck-w4.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 5,1,4,2 -audit-collisions >/dev/null
	@echo "modelcheck reports identical at workers=1 and workers=4; audit clean"
	@rm -f .modelcheck-w1.json .modelcheck-w4.json

# fault-smoke proves the fault plane's determinism contract end to end:
# two ringsim runs with identical (seed, fault-seed, classes, budget) must
# produce byte-identical output — same outcome, same injection log — and
# the fault-bearing packages must be race-clean.
fault-smoke:
	$(GO) run ./cmd/ringsim -algo alg1 -ids 4,9,2,7 -sched random -seed 3 \
		-faults all -fault-seed 11 -fault-budget 4 > .fault-run-a.txt
	$(GO) run ./cmd/ringsim -algo alg1 -ids 4,9,2,7 -sched random -seed 3 \
		-faults all -fault-seed 11 -fault-budget 4 > .fault-run-b.txt
	cmp .fault-run-a.txt .fault-run-b.txt
	$(GO) test -race ./internal/fault/... ./internal/live/...
	@echo "faulted replays byte-identical; fault and live packages race-clean"
	@rm -f .fault-run-a.txt .fault-run-b.txt

# fault-verify-smoke proves the fault-aware explorer's determinism
# contract: a finite exhaustive census (loss+crash+corrupt, the
# conserving classes) and a budget-aborted divergent census (dup) must
# both emit byte-identical -json reports at workers=1 and workers=4 —
# partial reports included, via the canonical sequential fallback — and
# the crash-then-heal supervisor must be race-clean.
fault-verify-smoke:
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash,corrupt \
		-json -workers 1 > .fverify-w1.json
	$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults loss,crash,corrupt \
		-json -workers 4 > .fverify-w4.json
	cmp .fverify-w1.json .fverify-w4.json
	-$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults dup -max-states 20000 \
		-json -workers 1 > .fverify-div-w1.json
	-$(GO) run ./cmd/modelcheck -algo alg2 -ids 3,1,2 -faults dup -max-states 20000 \
		-json -workers 4 > .fverify-div-w4.json
	cmp .fverify-div-w1.json .fverify-div-w4.json
	grep -q '"ok": false' .fverify-div-w1.json  # the divergent census must abort on budget
	$(GO) test -race -run 'TestSupervisor|TestStallReport|TestErrTimeout' ./internal/live/
	@echo "fault-aware reports identical at workers=1 and workers=4 (finite and budget-aborted); supervisor race-clean"
	@rm -f .fverify-w1.json .fverify-w4.json .fverify-div-w1.json .fverify-div-w4.json

# shard-smoke proves the sharded engine's determinism contract end to
# end: two parallel runs with identical parameters — randomized
# scheduler, geometric IDs, flat bank, 7 arcs — must produce
# byte-identical output regardless of how the OS interleaves the arc
# workers, and the sharded/flat paths must be race-clean. The
# event-level equivalence against the sequential engine is the
# TestShardedMatchesSequentialReference differential inside the race
# run.
shard-smoke:
	$(GO) run ./cmd/ringsim -algo alg1 -n 20000 -idgen geometric -shards 7 -flat \
		-sched random -seed 3 2>/dev/null > .shard-run-a.txt
	$(GO) run ./cmd/ringsim -algo alg1 -n 20000 -idgen geometric -shards 7 -flat \
		-sched random -seed 3 2>/dev/null > .shard-run-b.txt
	cmp .shard-run-a.txt .shard-run-b.txt
	$(GO) test -race -run 'Shard|Flat' ./internal/sim/
	@echo "sharded replays byte-identical; sharded/flat paths race-clean"
	@rm -f .shard-run-a.txt .shard-run-b.txt

# batch-smoke proves the batch fast path's determinism contract: two
# identical batched runs — Heaviest scheduler, consecutive IDs, flat
# bank, sequential engine — must be byte-identical (including the
# transition/coalescing counts), and the batch path must be race-clean.
# The event-level equivalence against the run-expanded sequential
# reference is the TestBatchedMatchesExpandedReference differential
# inside the race run.
batch-smoke:
	$(GO) run ./cmd/ringsim -algo alg2 -n 4096 -idgen consecutive -flat -batch \
		-sched heaviest -seed 3 2>/dev/null > .batch-run-a.txt
	$(GO) run ./cmd/ringsim -algo alg2 -n 4096 -idgen consecutive -flat -batch \
		-sched heaviest -seed 3 2>/dev/null > .batch-run-b.txt
	cmp .batch-run-a.txt .batch-run-b.txt
	$(GO) test -race -run 'Batch' ./internal/sim/
	@echo "batched replays byte-identical; batch path race-clean"
	@rm -f .batch-run-a.txt .batch-run-b.txt

# fuzz-smoke gives every fuzz target a short budget; used by CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzAlg2Election -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzAlg3Election -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzChunkAssembler -fuzztime=10s ./internal/defective
	$(GO) test -run='^$$' -fuzz=FuzzFrameCodec -fuzztime=10s ./internal/defective
