# Tier-1 gate: everything CI (and the next PR) runs.
.PHONY: check build vet lint test race bench benchgate fuzz

check: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# Domain-invariant static analysis: DS-id propagation, sim determinism,
# control-plane discipline, MMIO error flow. See LINTING.md.
lint:
	go run ./cmd/pardlint ./...

test:
	go test ./...

# Race pass over the packages that spawn goroutines (TCP console, the
# shard runtime's worker pool, the telemetry HTTP surface) and the
# event engine plus fabric/cluster planes they serialize into.
race:
	go test -race ./pard/... ./internal/sim/... ./internal/telemetry/... ./internal/cluster/... ./internal/fabric/...

bench:
	go test -bench=. -benchmem

# Trajectory-regression gate: re-measure the engine and hot-path
# micro-benchmarks and compare against the committed BENCH.json —
# >10% ns/op regression or any allocs/op increase fails. Also holds,
# on hosts with >= 4 CPUs, the 1.8x rack speedup floor at 4 shards
# (fewer CPUs log an explicit skip). Regenerate the baseline with
# `go run ./cmd/pardbench -run all -scale quick -shards 1,2,4 -json BENCH.json`.
benchgate:
	go run ./cmd/benchgate -baseline BENCH.json

# Policy-language parser fuzzing: no panics on arbitrary input, and
# parse -> print -> parse is a fixpoint — for both per-server policies
# and cluster intent blocks. CI runs a 30s smoke of each; crank
# FUZZTIME for longer local campaigns.
FUZZTIME ?= 30s
fuzz:
	go test ./internal/policy -fuzz FuzzParsePolicy -fuzztime $(FUZZTIME)
	go test ./internal/policy -fuzz FuzzParseIntent -fuzztime $(FUZZTIME)
