# OFMF build and reproduction targets.

GO ?= go

.PHONY: all build vet test race bench bench-full benchcheck loadsmoke chaossmoke replsmoke cover reproduce examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke-run the store/serving hot-path benches (one iteration each): a
# fast CI gate that the benchmarked paths still build and execute.
# Compare numbers against BENCH_store.json with a real -benchtime.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkOFMFScale|BenchmarkStorePutSubtree|BenchmarkAblationStoreRead' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkStorePutParallel|BenchmarkStoreMixedParallel' -benchtime=1x -benchmem ./internal/store
	$(GO) test -run '^$$' -bench 'BenchmarkWAL' -benchtime=1x -benchmem ./internal/store/persist
	$(GO) test -run '^$$' -bench 'BenchmarkEventFanout' -benchtime=1x -benchmem ./internal/events
	$(GO) test -run '^$$' -bench 'BenchmarkLivenessSweep' -benchtime=1x -benchmem ./internal/service

bench-full:
	$(GO) test -bench=. -benchmem ./...

# The benchmark lives in its own module (bench/), which `go build ./...`
# and `go test ./...` at the root never see. Its layer ladder imports
# ofmf/internal/..., so build and smoke-test it here: an API change that
# breaks it should fail this gate, not the next benchmark run.
benchcheck:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Smoke-run the serving-path load harness against the in-process
# testbed: a 2s window whose output is validated (every class saw
# traffic, percentiles are sane, the results file round-trips). The
# write-heavy mix on a sharded store stresses the write path the
# sharding work targets; the events mix adds webhook subscriptions and
# SSE streams over the same churn so event-plane regressions (fan-out,
# marshal-once delivery) fail the gate too. Real baselines go to
# BENCH_serving.json via a plain `go run ./cmd/ofmfload`.
loadsmoke:
	$(GO) run ./cmd/ofmfload -smoke -mix write-heavy -shards 8 -out /tmp/ofmfload-smoke.json
	$(GO) run ./cmd/ofmfload -smoke -mix events -shards 8 -subs 32 -sse 2 -out /tmp/ofmfload-events.json

# Smoke-run the fleet chaos harness under the race detector: 100
# emulated agents through every scripted scenario (crash/restart,
# partition + link flap, heartbeat/registration storm, OFMF
# kill/recover with WAL replay), with end-state invariant checks —
# ghost/duplicate sources, event-count conservation, liveness vs
# ground truth, WAL sequence integrity. Deterministic (-seed 42); a
# violation exits non-zero. Full-scale baselines go to
# BENCH_serving.json via `go run ./cmd/ofmfchaos -agents 10000 -seed 42
# -scenario all -out BENCH_serving.json`.
chaossmoke:
	$(GO) run -race ./cmd/ofmfchaos -agents 100 -seed 42 -scenario all -smoke -out /tmp/ofmfchaos-smoke.json

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
