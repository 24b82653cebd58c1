# Reproduction of "Compiler Optimization of Memory-Resident Value
# Communication Between Speculative Threads" (CGO 2004).

GO ?= go

.PHONY: all build vet lint test test-short race diff fuzz-smoke bench bench-smoke bench-sim bench-check loc profile verify-fuzz chaos crash scenario-smoke cluster-smoke figs csv serve clean

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (docs/lint.md): determinism (D001),
# key-purity (K001), seam-bypass (S001), journal-order (J001) and
# lock-hygiene (L001) rules over the whole tree. Zero findings gate:
# any unsuppressed finding (or unused/malformed suppression) fails.
lint:
	$(GO) run ./cmd/tlslint ./...

# Full test suite, including the reproduction regression tests and the
# property tests over random programs (a few minutes).
test:
	$(GO) test ./...

# Quick tests only (skips the full reproduction and property runs).
test-short:
	$(GO) test -short ./...

# Concurrency-sensitive packages under the race detector: the software
# TLS runtime, the job engine, the artifact store, and the concurrent
# (benchmark × policy) fan-out over a shared Run.
race:
	$(GO) test -race ./internal/tlsrt/ ./internal/jobs/ ./internal/store/ ./internal/fault/ ./internal/resilience/ ./internal/parallel/ ./internal/scenario/ ./internal/cluster/
	$(GO) test -race -run 'TestConcurrentSimulate|TestPrewarmMatchesSequential|TestPrepareWorkloadsReportsFirstError|TestConcurrentBuildsShareNoPooledObjects' .

# Differential determinism suites under the race detector: two compiles
# of one program running at once must produce byte-identical artifacts
# (compiler internals over shared pools), and so must the job engine at
# every -j (benchmark-level fingerprints, figures, golden files) and at
# every point of the GOMAXPROCS {1,8} x engine -j {1,8} cross-product
# (TestParallelDiffMatrix — scheduler-dimension invariance on top of
# worker-count invariance).
diff:
	$(GO) test -race -short -run 'TestParallelDiff' ./internal/core/
	$(GO) test -race -short -run 'TestParallelDiff|TestGolden' .

# Fuzz smoke: feed mutated scenario YAML through the parser, the
# reflective decoder and validation for a short, fixed time (Parse must
# never panic; an accepted scenario must marshal). A crash is saved
# under internal/scenario/testdata/fuzz/ and replays as a regression
# test in every later `go test`.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/scenario/

# Long fuzz-verify run: compile 200 generated programs and statically
# verify the synchronization of every binary (see docs/verify.md).
VERIFY_FUZZ_N ?= 200
verify-fuzz:
	VERIFY_FUZZ_N=$(VERIFY_FUZZ_N) $(GO) test -run TestProgenVerifyFuzz ./internal/verify/

# Fault-injection suite for the daemon: disk faults, panicking/slow
# jobs, breaker trip/recovery, admission shed, graceful drain — all
# under the race detector (see docs/tlsd.md, "Operations").
chaos:
	$(GO) test -race -run 'Chaos|GracefulDrain|WriteErrors' ./cmd/tlsd/

# Kill-9 harness for the daemon: re-execs tlsd as a child process,
# SIGKILLs it at every durability-sensitive point (mid-journal-append,
# between temp write and rename, mid-job), restarts it over the same
# cache dir, and asserts convergence and crash-loop poisoning (see
# docs/tlsd.md, "Crash recovery").
crash:
	$(GO) test -race -run 'TestCrash' ./cmd/tlsd/

# Scenario smoke: type-check every scenario, then run the CI chaos
# scenario twice with the same seed — race-enabled binaries, real tlsd
# child processes, real SIGKILL + crash recovery — and byte-compare
# the two reports' deterministic sections (the determinism contract of
# docs/scenarios.md). scenario-report.json is the archived evidence.
SCENARIO_SEED ?= 42
scenario-smoke:
	mkdir -p bin
	$(GO) build -race -o bin/tlsd ./cmd/tlsd
	$(GO) build -race -o bin/tlssim ./cmd/tlssim
	bin/tlssim validate scenarios/*.yaml
	bin/tlssim run scenarios/chaos-short.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o scenario-report.json -det scenario-det-a.json
	bin/tlssim run scenarios/chaos-short.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det scenario-det-b.json
	cmp scenario-det-a.json scenario-det-b.json

# Cluster smoke: the self-healing proof. A 3-node
# consistent-hash tlsd cluster is SIGKILLed at its key-owner mid-burst,
# twice at a fixed seed with race-enabled binaries; the run passes only
# if the successor adopts every journaled-pending job (zero lost, zero
# double-executed — per-key execution counters), the fleet reconverges,
# and the two reports' deterministic sections compare byte-identical.
# The elastic-membership proof then rolls a 5-node cluster under a
# 1000-client fleet — rolling restart of every node, a sixth node
# joining, an original node decommissioning — twice at the same seed,
# asserting zero lost jobs, exactly-once execution, post-roll replica
# convergence, and byte-identical deterministic sections. The
# false-death proof slows one node's peer links past dead_after while
# it is executing journaled work: its peers adopt that work while it
# keeps running, and the execution lease still lets each key run once.
# The four report files are the archived evidence.
cluster-smoke:
	mkdir -p bin
	$(GO) build -race -o bin/tlsd ./cmd/tlsd
	$(GO) build -race -o bin/tlssim ./cmd/tlssim
	bin/tlssim validate scenarios/cluster-kill9-adoption.yaml scenarios/cluster-partition.yaml scenarios/cluster-rolling.yaml scenarios/cluster-false-death.yaml
	bin/tlssim run scenarios/cluster-kill9-adoption.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-report.json -det cluster-det-a.json
	bin/tlssim run scenarios/cluster-kill9-adoption.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det cluster-det-b.json
	cmp cluster-det-a.json cluster-det-b.json
	bin/tlssim run scenarios/cluster-partition.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-partition-report.json
	bin/tlssim run scenarios/cluster-rolling.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-rolling-report.json -det cluster-rolling-det-a.json
	bin/tlssim run scenarios/cluster-rolling.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det cluster-rolling-det-b.json
	cmp cluster-rolling-det-a.json cluster-rolling-det-b.json
	bin/tlssim run scenarios/cluster-false-death.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -o cluster-false-death-report.json -det cluster-false-death-det-a.json
	bin/tlssim run scenarios/cluster-false-death.yaml --seed $(SCENARIO_SEED) -tlsd bin/tlsd -q -det cluster-false-death-det-b.json
	cmp cluster-false-death-det-a.json cluster-false-death-det-b.json

# One benchmark per paper figure/table plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# CI canary: time the tlsbench-shaped pipeline on three benchmarks at
# job-engine -j1 and -j4 and fail if -j4 is more than 10% slower than
# -j1 (a parallelism regression; see TestPipelineParallelCanary).
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run '^TestPipelineParallelCanary$$' -short -v .

# The simulator's hot path in isolation: BenchmarkSimulator (parser,
# policy U) five times, reporting ns/op, allocs/op and allocs/event (see
# docs/perf.md for the recorded numbers).
bench-sim:
	$(GO) test -run '^$$' -bench '^BenchmarkSimulator$$' -benchmem -count 5 .

# The repository benchmark's correctness gates: one short run of each
# perfbench workload (perfbench/README.md). perfbench exits 0 even when
# its output checks fail, so this fails unless each run's result line
# (its last) reports "correct":true and "failed":0.
bench-check:
	@for w in figures compile serve; do \
		line=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "bench-check: $$w: output checks failed" >&2; exit 1;; esac; \
		case "$$line" in *'"failed":0,'*|*'"failed":0}'*) ;; *) echo "bench-check: $$w: operations failed" >&2; exit 1;; esac; \
	done

# Non-test Go lines per package, perfbench/ and testdata/ excluded,
# then the total: the code-size figure reported next to perf numbers.
loc:
	@find . -path ./perfbench -prune -o -path '*/testdata' -prune -o -path './.*' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# CPU and heap profiles of the two hot paths (compiler pipeline on the
# largest workload, raw simulator throughput). Inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`; the live daemon
# equivalent is `tlsd -pprof` (see docs/perf.md).
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCompilePipeline|BenchmarkSimulator' -benchtime 10x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	@echo "wrote cpu.prof and mem.prof; inspect with: go tool pprof cpu.prof"

# Regenerate every figure and table of the paper.
figs:
	$(GO) run ./cmd/tlsbench

# Figures as CSV (e.g. FIG=10).
FIG ?= 10
csv:
	$(GO) run ./cmd/tlsbench -fig $(FIG) -format csv

# The HTTP simulation service (content-addressed store + job engine).
ADDR ?= :8149
serve:
	$(GO) run ./cmd/tlsd -addr $(ADDR)

clean:
	$(GO) clean ./...
