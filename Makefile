# Tier-1 verification: build + vet + tests, then the same tests under
# the race detector (the observability layer's multi-rank tests record
# spans from every rank goroutine, so the race run is part of the bar),
# then an end-to-end mdbench smoke campaign and one pass of every kernel
# benchmark.
.PHONY: all build vet fmt-check loc test race bench bench-module results wallbench bench-smoke kernel-bench sweep-smoke serve-smoke faults soak transport-check fuzz cross-build check

all: check

build:
	go build ./...

vet:
	go vet ./...

# Fails when gofmt would change any file, bench/ (its own module, which
# vet and test above never see) included.
fmt-check:
	@out=$$(gofmt -l .); test -z "$$out" || \
		{ echo "fmt-check: gofmt -l prints:" >&2; echo "$$out" >&2; exit 1; }

# The tracked size of the engine: non-test Go lines outside bench/
# (ROADMAP: "net line count is a tracked outcome"). Tracked files only.
loc:
	@git ls-files '*.go' ':!bench' | grep -v _test.go | xargs cat | wc -l

test:
	go test -shuffle=on ./...

# The race run covers the intra-rank worker pool (internal/par) and the
# threaded pair/neighbor/PPPM kernels alongside the multi-rank MPI tests.
race:
	go test -race -shuffle=on ./...

bench:
	go test -bench=. -benchmem -run=^$$ ./...

# Regenerates the checked-in campaign in results/: every experiment at
# default fidelity, rendered (full.txt), as CSV (full.csv) and its data
# log (measurements.jsonl). ~2.5 min, so not part of check; run it after
# any change that moves a modeled number and review the diff.
results:
	go run ./cmd/mdbench -exp all -csv results/full.csv \
		-log results/measurements.jsonl > results/full.txt

# bench/ is its own module (gomd/bench, replace gomd => ../), so the
# root build/vet/test never compile it: this step is what notices when an
# engine API it calls (sim.NL.Build, sim.NL.Stats, sim.PairContext,
# Pair.Compute, ...) changes shape. ~3 s.
bench-module:
	go -C bench vet ./...
	go -C bench test ./...

# The wall-clock benchmark itself (bench/README.md), e.g.
#   make wallbench ARGS="--workload lj_halo_tcp --seed 7 --seconds 8 --trace 0"
# Builds into .bench_build/; the last stdout line is the JSON result.
wallbench:
	bash bench/run.sh $(ARGS)

# Short 8-rank rhodopsin campaign with a data log: mdbench fails if any
# engine measurement is missing from the JSONL (every requested log is
# verified, the trace.Logger.Err() path), catching end-to-end harness
# regressions the unit tests skip.
bench-smoke:
	go run ./cmd/mdbench -exp fig12 -quick -sizes 32 -ranks 8 \
		-log /tmp/gomd-bench-smoke.jsonl > /dev/null
	@test -s /tmp/gomd-bench-smoke.jsonl || \
		{ echo "bench-smoke: empty data log" >&2; exit 1; }

# One iteration of every kernel and step benchmark, W=1 and W=4: these
# Benchmark* functions are the root module's kernel timers (go test
# -bench for one kernel, bench/ for wall-clock claims), and workers=4 is
# what drives the pool wider than this host's CPU count. `make bench`
# is not part of check, so this is the step that fails when a benchmark
# stops compiling or deadlocks. ~5 s.
kernel-bench:
	go test -run '^$$' -bench . -benchtime 1x \
		./internal/pair ./internal/neighbor ./internal/kspace ./internal/core

# Campaign smoke: a quick 2x2 grid (two workloads, two rank counts,
# guardrails on by the -grid default, verified data log) through
# mdbench -grid. Fails on any lost CSV/data-log/manifest write or
# incomplete data log.
sweep-smoke:
	go run ./cmd/mdbench -grid -workloads lj,rhodo -sizes 32 -ranks 1,4 -quick \
		-csv /tmp/gomd-sweep-smoke.csv -log /tmp/gomd-sweep-smoke.jsonl \
		-manifest /tmp/gomd-sweep-smoke.json > /dev/null
	@test -s /tmp/gomd-sweep-smoke.csv || \
		{ echo "sweep-smoke: empty sweep CSV" >&2; exit 1; }
	@test -s /tmp/gomd-sweep-smoke.json || \
		{ echo "sweep-smoke: empty campaign manifest" >&2; exit 1; }

# Daemon smoke: boot cmd/mdserve on an ephemeral port, run one job
# through the HTTP API to completion, scrape /metrics, then SIGTERM-
# drain with a job running — the daemon must exit 0 with a parked
# "running" record left in the journal for the next generation.
serve-smoke:
	sh scripts/serve_smoke.sh

# Fault-tolerance suite under the race detector: abort protocol, fault
# injector, guardrails, checkpoint bit-exactness, and supervised
# recovery (including the 4-rank rhodopsin kill-and-resume scenario).
faults:
	go test -race -run 'TestFault|TestCheckpoint|TestGuardrail|TestSupervisor|TestRankAbort' \
		./internal/fault/ ./internal/ckpt/ ./internal/core/ ./internal/mpi/ ./internal/harness/

# Seeded randomized fault campaign under the race detector: three
# workloads each draw a kill plus a hang / checkpoint-flip / truncation
# from a fixed-seed stream and must recover bit-exactly, plus the
# TCP-loopback cells — TestSoakTCPLoopback (scratch recovery) and
# TestSoakTCPCheckpointed (sharded-checkpoint recovery: kill plus
# hang/corrupt-wire/truncate-shard against a two-process world that
# must restore from the newest complete shard generation).
# Deterministic, so any failure reproduces with plain `make soak`.
soak:
	go test -race -run TestSoak ./internal/harness/

# Transport layer under the race detector: the conformance suite run
# against both kinds of world (every rank in one process, and ranks in
# several processes joined over TCP loopback), payload
# pack/unpack round-trips (frames, ghosts and migrants, checkpoint
# votes) and framing-overhead tests, rendezvous/abort/death
# protocol tests (including the mid-handshake failure drills and the
# malformed peer tables, which must surface typed RendezvousErrors
# within the deadline), the departure tests (a receive from a process
# that said bye fails at once, after every message it sent has been
# received), and the cross-process end-to-end drills: bit identity
# chan vs TCP,
# supervised kill recovery with re-rendezvous, and the distributed-
# checkpoint drills (restore from the newest complete shard
# generation, mid-commit torn-generation fallback, placement swap).
# The mpi selection also holds the receive-poll tests: where a waiting
# receive polls, that a polling rank aborts, snapshots and stalls as a
# parked one does, and that a rank polling a TCP link reads it as the
# link's reader would (TestRecvPollLink). The internal/domain
# selection holds TestRestoreFactoryFailureClosesWorld, a two-process
# TCP drill: a build that fails in one process fails its peer, parked
# in the first collective before or after the failure.
# The mpi selection (~8 s a pass) runs three times so a concurrency
# flake in the transport gets three chances to show; the domain, ckpt
# and harness drills run once.
transport-check:
	go test -race -count=3 -run 'TestTransport|TestWire|TestFrame|TestTCP|TestRecvPoll' ./internal/mpi/
	go test -race -run 'TestCodecRoundTrip|TestVoteCodecRoundTrip|TestManifestCannotEscapeGeneration|TestRestoreFactoryFailureClosesWorld' ./internal/domain/ ./internal/ckpt/
	go test -race -run 'TestTransport|TestWire|TestFrame|TestTCP' ./internal/harness/

# Five seconds of coverage-guided fuzzing per decoder of untrusted bytes:
# TCP wire frames, halo/migration payloads, the checkpoint formats
# (GMCK, GMCS, KCMF), input scripts (parse, then run under a 1 s
# deadline), mdserve's job specs (JSON decode, then normalize) and its
# journal replay. `make test` already replays every seed corpus;
# this step searches past it. Each target is named explicitly because
# -fuzz takes one target per run.
fuzz:
	go test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 5s ./internal/mpi
	go test -run '^$$' -fuzz '^FuzzDecodeDomainPayloads$$' -fuzztime 5s ./internal/domain
	go test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 5s ./internal/ckpt
	go test -run '^$$' -fuzz '^FuzzScript$$' -fuzztime 5s ./internal/script
	go test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 5s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s ./internal/serve

# The socket reader of internal/mpi is unix-only (sock_unix.go) with a
# stub for every other platform (sock_other.go); this keeps both halves
# compiling.
cross-build:
	GOOS=darwin go build ./...
	GOOS=windows go build ./...

check: build vet fmt-check test race bench-module bench-smoke kernel-bench sweep-smoke serve-smoke faults soak transport-check fuzz cross-build
