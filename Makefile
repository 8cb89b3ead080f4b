# Developer entry points. `make check` is the tier-1 gate: formatting,
# no tracked file matching an ignore rule, vet, build, full test suite
# (which includes the host-knob invariance table), and a compile of the
# bench/ yardstick. `make race` exercises the concurrent paths
# (the goroutine-parallel coupling, the sim.Fleet sweep runner, the fastd
# job service and the cluster coordinator) under the race detector.
# `make serve` boots the job server; `make smoke` drives a built fastd end
# to end over HTTP via fastctl; `make smoke-cluster` drives a 2-worker +
# coordinator cluster with a shared disk store.

GO ?= go

.PHONY: check fmt ignored vet build test zero-alloc yardstick race cover fuzz-smoke loc bench bench-layers bench-compare serve smoke smoke-cluster

check: fmt ignored vet build test zero-alloc yardstick

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# A tracked file that matches an ignore rule means the rule is too wide:
# it also hides that file's new siblings from `git add` and from
# ripgrep-based search (an unanchored binary name once matched cmd/<name>/).
ignored:
	@tracked=$$(git ls-files -ci --exclude-standard); \
	if [ -n "$$tracked" ]; then \
		echo "tracked files match an ignore rule:"; echo "$$tracked"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The FM steady state (execute, journal, commit, rollback) and a TM target
# cycle (everything in flight lives in rings built once) allocate nothing;
# the FM's predecode table, which superblocks walk, allocates the slot groups
# a run fills, a BTB the 640 B entry groups its branches fill, and a Precrack
# one µop slice; a Configure allocates its engine's fixed state and the pages
# its image occupies, not the target's memory; and a whole run of smp-lock
# on 4 cores or of 181.mcf stays within its measured bytes plus 10 % (the
# undo journal's records and pre-images are most of what a run grows).
# `make test` already runs these; naming them keeps the guarantee visible in
# the gate and re-checks it uncached.
zero-alloc:
	$(GO) test -count=1 -run '^(TestSteadyStateZeroAllocs|TestCachesAllocateWhatTheyFill)$$' ./internal/fm
	$(GO) test -count=1 -run '^TestPrecrackOneAllocation$$' ./internal/microcode
	$(GO) test -count=1 -run '^TestBTBAllocatesWhatItFills$$' ./internal/bpred
	$(GO) test -count=1 -run '^TestTMSteadyStateZeroAllocs$$' ./internal/tm
	$(GO) test -count=1 -run '^(TestConfigureBudget|TestRunAllocBudget)$$' ./internal/sim

# bench/ is a module of its own (it imports repro/internal/... through a
# replace), so `go build ./...` and `go vet ./...` at the root never see it:
# compile it here, offline like bench/run.sh does, so a signature change the
# benchmark depends on fails the gate instead of the next benchmark run.
yardstick:
	cd bench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet . && \
		GOFLAGS=-mod=mod GOPROXY=off $(GO) build -o /dev/null .

race:
	$(GO) test -race -timeout 30m ./internal/obs/... ./internal/core/... \
		./internal/sim/... ./internal/trace/... ./internal/fm ./internal/tm \
		./internal/fullsys ./internal/service/... ./internal/cluster \
		./internal/cache ./internal/workload ./internal/workload/fs

# The full suite in a coverage build over every package, the build the
# coverage figures in ROADMAP.md are read from: instrumentation changes what
# escapes to the heap, so it must keep passing there too.
cover:
	$(GO) test -count=1 -coverpkg=./internal/...,./cmd/... ./...

# Fuzz smokes, exactly as CI's static job runs them: each target is a
# never-panic check plus its own oracle, one package:target:seconds entry
# per line — a new fuzz target is one more line. Minimisation is capped by
# count, 10 execs per new interesting input, not by time: a time cap is
# charged per input, and a target that finds a few dozen inputs in its
# first seconds (FuzzTMAgreement: ~17) spent the whole smoke minimising
# them — ~40 execs in 20 s on 2 vCPUs under 2 s per input, ~1 100 under 10
# execs (FuzzRestore, whose snapshot blobs are hundreds of KB: ~740 → ~10 500).
FUZZ_SMOKES := \
	./internal/isa:FuzzDecode:30 \
	./internal/microcode:FuzzCompile:20 \
	./internal/sim:FuzzDecodeParams:20 \
	./internal/fm:FuzzSuperblockForm:20 \
	./internal/fullsys:FuzzSnapshotDecode:20 \
	./internal/workload/fs:FuzzFsckDecode:20 \
	./internal/sim:FuzzEngineAgreement:20 \
	./internal/core:FuzzRestore:20 \
	./internal/snap:FuzzCodec:20 \
	./internal/tm:FuzzTMAgreement:20 \
	./internal/tm:FuzzRepFastForward:20 \
	./internal/tm:FuzzReplayFixedPoint:20 \
	./internal/fullsys:FuzzMemoryAgreement:20 \
	./internal/fullsys:FuzzBusRollback:20 \
	./internal/cache:FuzzTLBAgreement:20 \
	./internal/trace:FuzzBufferAgreement:20 \
	./internal/bpred:FuzzBTBAgreement:20

fuzz-smoke:
	@set -e; for smoke in $(FUZZ_SMOKES); do \
		pkg=$${smoke%%:*}; rest=$${smoke#*:}; \
		echo "fuzz smoke: $$pkg $${rest%%:*} ($${rest#*:}s)"; \
		$(GO) test -run '^$$' -fuzz "^$${rest%%:*}\$$" -fuzztime "$${rest#*:}s" -fuzzminimizetime 10x "$$pkg"; \
	done

# The one way code size is counted here (non-blank, non-comment, non-test
# Go lines per package directory): every "net -N lines" claim in CHANGES.md
# and ROADMAP.md is this table at two commits — `make loc BASE=<ref>` prints
# both and the delta (parent, head, head - parent) over every package
# directory either side has.
loc:
	@./scripts/loc.sh $(if $(BASE),--base $(BASE)) $$({ \
		find internal cmd -name '*.go' ! -name '*_test.go'; \
		$(if $(BASE),git ls-tree -r --name-only $(BASE) internal cmd | grep '\.go$$' | grep -v '_test\.go$$';) \
		} | xargs -n1 dirname | sort -u)

# Run the simulation-as-a-service daemon locally (ctrl-C drains gracefully).
serve:
	$(GO) run ./cmd/fastd

# End-to-end service smoke (via fastctl): boot fastd, submit the same
# Figure-4 point twice, assert the second submission is a byte-identical
# cache hit, check typed error envelopes, listing and the SIGTERM drain.
smoke:
	./scripts/service_smoke.sh

# End-to-end cluster smoke: 2 workers sharing a disk store behind a
# coordinator; asserts sharded sweep aggregation is byte-identical to a
# single node and that a full worker restart serves the repeat sweep from
# disk with zero engine runs.
smoke-cluster:
	./scripts/cluster_smoke.sh

# The reproduction record: one pass over every table/figure benchmark (one
# iteration is one whole experiment, so 1x is right here and only here).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Layer benchmarks live next to their packages and iterate for real
# (time-based, never 1x), each reporting a rate in its layer's own unit: ns
# per target instruction or byte (fm), per target cycle (tm), per trace
# entry (trace), per committed instruction and policy (core), per replayed
# instruction (baseline), per Configure (sim), per submit→result (service).
# Nothing gates on them.
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=200ms ./internal/fm \
		./internal/tm ./internal/trace ./internal/core ./internal/baseline \
		./internal/sim ./internal/service

# "Did it get faster" has one answer: the bench/ yardstick at BASE against
# this tree, judged by the bounds in BENCHMARK.json.
bench-compare:
	./scripts/bench_compare.sh $(BASE)
