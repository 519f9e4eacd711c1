GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test test-perfbench vet lint race race-core race-server chaos chaos-cluster e2e-smoke e2e-cluster bench bench-core fuzz-smoke profile-artifact bench-smoke check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository benchmark's own tests (perfbench is a separate module).
# TestReferenceTableCurrent fails if a change moves any simulated result
# the benchmark's reference table records.
test-perfbench:
	cd perfbench && $(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt cleanliness, then staticcheck when available (CI
# installs it), vet-only otherwise so the target works in hermetic
# environments.
lint: vet
	test -z "$$(gofmt -l .)"
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck not installed; ran go vet only" \
		     "(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

race:
	$(GO) test -race ./...

# The observability core under the race detector: the stats registry,
# trace ring, the pipeline (profiler/audit hooks included), and the sampled
# path's foundations — immutable simpoint plans/checkpoints are shared across
# concurrent restores, so funcsim + simpoint belong under -race too.
race-core:
	$(GO) test -race ./internal/stats ./internal/trace ./internal/pipeline \
		./internal/funcsim ./internal/simpoint

# The service layer under the race detector: queue, worker pool, cache,
# dedup, the HTTP/streaming handlers, and the span flight recorder all share
# state across goroutines.
race-server:
	$(GO) test -race ./internal/server/... ./internal/otrace

# Chaos drill: the fault-injection framework's own tests, the client's
# retry/backoff/resubmission suite, and the chaos + deadline + cache-race
# suites, all under the race detector — injected faults and latency fire on
# the production goroutines, so -race is part of the assertion.
chaos:
	$(GO) test -race -count=1 ./internal/faults ./internal/server/client
	$(GO) test -race -count=1 -run 'Chaos|Deadline|Cache' ./internal/server

# Cluster chaos drill: the consistent-hash ring property suite and the
# coordinator's fault-point scenarios (peer-cache misses, dying forwards,
# hedge suppression, probe failures, seeded bit-identity) under -race — the
# coordinator's peer table and counters are all cross-goroutine state.
chaos-cluster:
	$(GO) test -race -count=1 ./internal/cluster

# Full-stack service smoke: build specmpkd, submit an experiment through
# specmpk-bench -remote twice, assert a cache hit, SIGKILL the daemon under a
# live client and require recovery-by-resubmission, and drain on SIGTERM.
e2e-smoke:
	sh scripts/e2e_smoke.sh

# Full-stack cluster e2e: three clustered daemons, exactly-once placement
# with a warm peer-cache pass, daemon-side forwarding with a merged
# cross-node Perfetto trace, hedging past a latency-faulted node, and a
# SIGKILL mid-sweep that must recover via failover + resubmission with
# output bit-identical to a pristine single-node run.
e2e-cluster:
	sh scripts/e2e_cluster.sh

# The profile/differential experiment as machine-readable JSON; CI uploads
# it as a build artifact so every push carries a browsable per-PC profile.
profile-artifact:
	$(GO) run ./cmd/specmpk-bench -workloads 520.omnetpp_r \
		-modes serialized,specmpk -json profile > profile.json

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Hot-path micro-benchmarks only: the cost of one Machine.Step, of a whole
# bounded Run, and of building a Machine, with allocs/op (the zero-alloc
# claim is visible as "0 allocs/op" on the Step rows; the New row's B/op is
# the per-machine memory). Much faster than the full bench sweep.
bench-core:
	$(GO) test -bench='MachineStep|MachineRun|New' -benchmem -run=^$$ \
		./internal/pipeline

# The repository benchmark (perfbench, BENCHMARK.json) as a smoke: a short
# run of each workload through the full service stack. perfbench's own
# checks — funcsim instruction counts, CPI-stack sums, byte-identical
# repeats — decide "correct"; the target fails unless the run's last line
# reports "correct":true and "failed":0.
bench-smoke:
	@set -e; for w in figsweep-full service-mixed sampled-sweep; do \
		last=$$(bash perfbench/run.sh --workload $$w --seconds 3 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*) ;; *) echo "bench-smoke: $$w: not correct" >&2; exit 1;; esac; \
		case "$$last" in *'"failed":0'[,}]*) ;; *) echo "bench-smoke: $$w: failed jobs" >&2; exit 1;; esac; \
	done

# Short fuzz pass over the assembler's parser (the repo's untrusted-input
# surface); CI runs it on every push.
fuzz-smoke:
	$(GO) test -fuzz=Fuzz -fuzztime=10s -run=^$$ ./internal/asm

# The tier-1 gate: what CI runs. The benchmark smoke (make bench-smoke) and
# the hot-path micro-benchmarks (make bench-core) run in their own CI job.
check: build lint race
	@echo "check passed (benchmark: make bench-smoke, make bench-core)"

clean:
	$(GO) clean ./...
