GO ?= go

.PHONY: build test locks kvs race vet benchcheck bench bufdebug stream chaos trace hotspot contention calibrate loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector: the coherence
# protocol, the telemetry registry, the fault-injected fabric, the
# lock-free queues, the streaming bench, the graph engine (whose
# multithreaded passes range-write disjoint words of one chunk), and the
# layers between them.
race:
	$(GO) test -race ./internal/core/... ./internal/telemetry/... ./internal/cluster/... ./internal/fabric/... ./internal/fault/... ./internal/chaos/... ./internal/queue/... ./internal/bench/... ./internal/cc/... ./internal/kvs/... ./internal/gam/... ./internal/gamkvs/... ./internal/engine/...

# Lock-protocol gate: the element-lock, reader-lease and reader-gate
# tests (grant policy, the gate word's transitions, message-free and
# submit-free hits, both recall paths, a writer waiting out the readers
# inside a gate, writer progress, back-off, virtual-time chaining, a
# 3-node mixed RLock/WLock stress guarding plain counters), the writer
# grants that carry their chunk (filled, declined, already Dirty, a
# lessee's, from Dirty and Operated on a third node, and the deadlock a
# queued fill would cause) and the announce/re-check regression of the
# data fast path, on four cores under the race detector, with a bound so
# a lost grant or release fails in two minutes instead of hanging CI for
# ten.
locks:
	GOMAXPROCS=4 $(GO) test -race -timeout 120s -count=1 -run 'TestLease|TestLocks|TestRLock|TestGate|TestLockFill|TestAnnounceRecheck' ./internal/core/

# Record-granular KVS gate: the store, the GAM baseline under it and
# their pairing, which hold pins across whole buckets and records and so
# lean on grant installations that stall (a held reference, no free line)
# — plus the four reproducers of a coherence command arriving during such
# a stall. Four cores, race detector, ten rounds: the count is what
# catches a hang that shows one run in three, the bound what reports it.
# Last, ten seconds of FuzzSlab against its model of the slab region;
# minimizing a long new input would otherwise eat most of them.
kvs:
	GOMAXPROCS=4 $(GO) test -race -count=10 -timeout 120s ./internal/kvs/ ./internal/gam/ ./internal/gamkvs/
	GOMAXPROCS=4 $(GO) test -race -count=10 -timeout 120s -run 'TestStalled' ./internal/core/
	$(GO) test -run '^$$' -fuzz=FuzzSlab -fuzztime=10s -fuzzminimizetime=1s ./internal/kvs/

vet:
	$(GO) vet ./...

# The benchmark is a nested module (benchmark/go.mod), so build, vet and
# test above never compile it: an internal/... rename that breaks it
# would only show at the driver. Vet it and run its own tests (~5 s).
benchcheck:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Buffer-misuse detection, and the never-recycling reference for the
# zero-copy data path: -tags bufdebug arms double-release and
# use-after-release panics and quarantines released buffers, so any
# stale alias trips deterministically.
bufdebug:
	$(GO) test -tags bufdebug -count=1 ./internal/buf/ ./internal/core/ ./internal/chaos/

# Streaming gate. First the bulk-path regression tests — what counts as
# an RTT sample (controller and pipeline), the payload-free write grant
# in every directory state with a same-node reader racing it, a stall
# registered from a stalled continuation — on four cores under the race
# detector, bounded so a lost completion fails in two minutes. Then the
# smoke: the stream tables (window, doorbell batch and prefetch ceilings
# at one against the defaults, and a depth sweep) at CI scale, traced,
# with the analyzer reloading the trace — so the stream runner keeps the
# cluster template's tracer — plus the >=2x GetRange and >=1.5x SetRange
# speedup gates.
stream:
	GOMAXPROCS=4 $(GO) test -race -timeout 120s -count=1 -run 'TestNonPositiveSample|TestRTTSamples|TestOverwriteGrant|TestStallFromStalled' ./internal/cc/ ./internal/core/ ./internal/cluster/
	$(GO) run ./cmd/darray-bench -fig stream -words-per-node 8192 -max-nodes 3 -trace-out $(or $(TMPDIR),/tmp)/stream.json
	$(GO) run ./cmd/darray-trace $(or $(TMPDIR),/tmp)/stream.json
	$(GO) test -run 'TestStream' -count=1 ./internal/bench/

# Short seeded chaos smoke: every workload (microbench, bulk-range,
# PageRank, CC, KVS YCSB-B) must survive the default fault schedule
# bit-identically.
chaos:
	$(GO) test -run 'TestChaos' -count=1 ./internal/chaos/

# Function-shipping smoke: the RMW-heavy hotspot crossover tables
# (skew x ship mode) at CI scale, plus the crossover acceptance gate
# (auto >= 1.5x off at theta=0.99, auto within 5% of off at theta=0)
# and the estimator's unit tests, the amortized-flush veto among them.
# Last, on four cores under the race detector: the scattered bulk Operate
# (ApplyAt: against per-element Apply on home and remote chunks, under
# ship=on, per-run charges), and the shipped paths, whose pooled waiters
# hand their kept closure from one goroutine to the next, with the
# one-rule request accounting and degradation tests that cover them.
hotspot:
	$(GO) run ./cmd/darray-bench -fig hotspot -max-nodes 6
	$(GO) test -run 'TestHotspot|TestShip' -count=1 ./internal/bench/ ./internal/core/
	GOMAXPROCS=4 $(GO) test -race -timeout 120s -count=1 -run 'TestApplyAt|TestShip|TestStatsAccounting|TestAllVerbsDegrade|TestPooledAllocsShipped' ./internal/core/

# Congestion-control smoke: the multi-stream contention tables (cc.Adaptive
# windows vs cc.Fixed ones through the same pipeline) at CI scale, plus
# the crossover gate (>=1.3x better p99 and higher Jain fairness at 8
# streams, lone-stream throughput within 5%) and the chaos run that must
# fingerprint identically under both policies.
contention:
	$(GO) run ./cmd/darray-bench -fig contention -words-per-node 65536 -max-nodes 2
	$(GO) test -run 'TestContention|TestChaosStreamContention' -count=1 ./internal/bench/ ./internal/chaos/

# Tracing smoke: a small traced KVS workload exports a Perfetto-loadable
# trace, the analyzer reloads it, and the acceptance tests verify that
# the exported JSON parses, every non-root span links to a live parent,
# and the critical path covers >= 95% of the slowest root op. Then the
# protocol event recorder — ring wrap, lock traffic, merged reads racing
# the runtimes that write, and the stalled-grant reproducers that order
# themselves by it — on four cores under the race detector.
trace:
	$(GO) run ./cmd/darray-kv -nodes 3 -threads 1 -records 2048 -ops 500 -trace-out $(or $(TMPDIR),/tmp)/darray-trace-smoke.json
	$(GO) run ./cmd/darray-trace $(or $(TMPDIR),/tmp)/darray-trace-smoke.json
	$(GO) test -run 'TestAcceptance' -count=1 ./internal/trace/
	GOMAXPROCS=4 $(GO) test -race -timeout 120s -count=1 -run 'TestTrace|TestMergedTrace|TestStalled' ./internal/core/

# Re-measure the cost model's CPU path costs on this host and print them
# beside the recorded profile (vtime.Default). Not part of check: the
# numbers are the host's, and no run charges them.
calibrate:
	$(GO) test -count=1 -run TestCalibrateProducesSaneCosts -v ./internal/bench/

# Non-test Go outside the benchmark module: the line count ROADMAP item 3
# is judged by.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

check: build vet benchcheck test locks kvs race stream chaos bufdebug trace hotspot contention
