# OFMF build and reproduction targets.

GO ?= go

.PHONY: all build vet fmtcheck test race fuzzsmoke bench benchab loc microbench benchcheck chaossmoke replsmoke cover reproduce examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file is gofmt's output (untracked build trees such as
# .bench_build/ are not the repo's to format).
fmtcheck:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every fuzz target in the module for FUZZTIME (go test -fuzz takes one
# target of one package at a time). Their seed corpora already run as
# plain tests; this is the few seconds of mutation on top.
FUZZTIME ?= 10s
fuzzsmoke:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done; \
	done

# Recorded numbers have one route: the four BENCHMARK.json workloads,
# each through bench/run.sh (ofmfbench drives a real `ofmf` over a
# socket against a same-session baseline; see bench/README.md). Takes
# minutes and is noisy on shared runners, so CI does not run it.
bench:
	bash bench/run.sh --workload read_tree --seed 1 --seconds 15
	bash bench/run.sh --workload write_events --seed 1 --seconds 15
	bash bench/run.sh --workload compose_cycle --seed 1 --seconds 15
	bash bench/run.sh --workload repl_semisync --seed 1 --seconds 15

# A perf PR's evidence: N alternating base/head pairs of one workload
# with medians, quartiles and wins per end-to-end metric, e.g.
# `make benchab BASE=HEAD~1 W=read_tree`. Prints; records nothing.
benchab:
	bash scripts/benchab.sh $(BASE) $(W)

# A simplicity PR's tally: Go lines added/removed since BASE, split into
# non-test internal/+cmd/, tests and bench/, and the flag count at both
# refs, e.g. `make loc BASE=HEAD~1`. Prints; records nothing.
loc:
	bash scripts/loc.sh $(BASE)

# Every Go micro-benchmark in the module. Prints; records nothing.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The benchmark lives in its own module (bench/), which `go build ./...`
# and `go test ./...` at the root never see. Its layer ladder imports
# ofmf/internal/..., so build and smoke-test it here: an API change that
# breaks it should fail this gate, not the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Smoke-run the fleet chaos harness under the race detector: 100
# emulated agents through every scripted scenario (crash/restart,
# partition + link flap, heartbeat/registration storm, OFMF
# kill/recover with WAL replay), with end-state invariant checks —
# ghost/duplicate sources, event-count conservation, liveness vs
# ground truth, WAL sequence integrity. Deterministic (-seed 42); a
# violation exits non-zero.
chaossmoke:
	$(GO) run -race ./cmd/ofmfchaos -agents 100 -seed 42 -scenario all

# Replication failover gate under the race detector: a 1-leader /
# 2-replica in-process cluster loses its leader while four writers
# POST through whichever node answers. A replica must promote into a
# higher epoch, clients must be carried to it, every acknowledged
# (201) write must survive, and the survivors' trees must converge
# byte-identically.
replsmoke:
	$(GO) test -race -count=1 -run 'TestReplSmoke' ./internal/store/repl

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Regenerate every table and figure of the paper's evaluation.
reproduce:
	$(GO) run ./cmd/expbench -exp all

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/memory-failover
	$(GO) run ./examples/storage-compose
	$(GO) run ./examples/burstbuffer
	$(GO) run ./examples/fabric-failover
	$(GO) run ./examples/composable-batch

clean:
	$(GO) clean ./...
	rm -rf .bench_build bench/out coverage.out
