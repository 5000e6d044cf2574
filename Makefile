# Development entry points. `make test` is the tier-1 gate: build + vet +
# qrec-lint + full suite under the race detector.

GO ?= go

.PHONY: test test-short loc golden chaos chaos-gw chaos-membership bench bench-json fuzz fuzz-short build vet lint lint-fix-list lint-fixtures

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project static analysis (internal/lint): determinism, map-order,
# pool-lifecycle, float-equality, durability and concurrency (lock
# balance, goroutine leaks, context threading, atomic mixing) rules.
# Non-zero exit on findings; part of the tier-1 gate via scripts/test.sh.
lint:
	$(GO) run ./cmd/qrec-lint ./...

# Triage mode: print findings without failing, for incremental cleanup.
lint-fix-list:
	$(GO) run ./cmd/qrec-lint -list ./...

# Just the golden-fixture harness: every analyzer against its
# testdata/src/<rule> package, the //lint:ignore suppression proofs, and
# the meta-test that refuses fixture-less analyzers. Fast inner loop for
# analyzer development; the full gate runs these too.
lint-fixtures:
	$(GO) test -run 'Fixture|TestIgnoreSuppression|TestDirectiveHygiene|TestEveryAnalyzerHasFixtures' ./internal/lint

test:
	./scripts/test.sh

test-short:
	./scripts/test.sh -short

# Non-test Go lines per package of the root module, then the total.
# `go list ./...` stays inside the module, so testdata/ and the nested
# perfbench module are not counted.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		while read -r pkg files; do \
			[ -n "$$files" ] && printf '%7d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
		done | awk '{ print; total += $$1 } END { printf "%7d  total\n", total }'

# Golden paper-output check: a small seeded qrec-experiments run (greedy,
# beam, diverse-beam and sampling decoding on the transformer and ConvS2S)
# must match testdata/golden_experiments.txt byte for byte. Refactors of
# the inference path prove "same behaviour" with it. About 45 s on 2
# CPUs, so it is not part of `make test`.
golden:
	$(GO) run ./cmd/qrec-experiments -exp table5,fig12,table6 -train-pairs 400 -eval-pairs 30 -epochs 2 \
		| cmp - testdata/golden_experiments.txt

# Overload/chaos suite in isolation: the serving stack at 4x saturation
# with injected slow/failing/panicking model paths, under the race
# detector. Also runs as part of `make test` (the suite needs no trained
# model, so it is cheap).
chaos:
	$(GO) test -race -count=1 -v -run 'Chaos|Overload|Admission|Breaker|Limiter|Shed' \
		./internal/server ./internal/servepool ./internal/overload

# Gateway chaos suite: real replicas on real listeners killed and
# restarted at 4x saturation while a model push hot-swaps the fleet,
# under the race detector. Also part of `make test` (no trained model
# needed, so it runs in -short too).
chaos-gw:
	$(GO) test -race -count=1 -v -run 'Chaos' ./internal/gateway

# Membership chaos in isolation: a replica joins through the authed admin
# API and another is drained out mid-run at 4x saturation, then the
# gateway is killed and rejoins its persisted fleet view — every request
# terminal (200/429/503+Retry-After), under the race detector. Also part
# of `make test` and `make chaos-gw` (the run matcher catches it).
chaos-membership:
	$(GO) test -race -count=1 -v -run 'ChaosMembership' ./internal/gateway

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Kernel + training benchmarks recorded as JSON (BENCH_kernels.json,
# BENCH_train.json) for cross-PR comparison.
bench-json:
	./scripts/bench.sh

# Each fuzz target runs briefly; raise FUZZTIME for a real campaign.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/sqllex
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz FuzzTokenizeRoundTrip -fuzztime $(FUZZTIME) ./internal/tokenizer
	$(GO) test -run '^$$' -fuzz FuzzParseDifferential -fuzztime $(FUZZTIME) ./internal/sqlparse/difftest
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz FuzzMembershipDecode -fuzztime $(FUZZTIME) ./internal/gateway

# All fuzz targets at 10s each — a smoke pass for CI and pre-commit.
fuzz-short:
	$(MAKE) fuzz FUZZTIME=10s
