# TACTIC reproduction — common entry points.

GO ?= go

.PHONY: all build vet fmt-check check test test-short test-repeat allocs race chaos soak trace-smoke conform fuzz-smoke metrics-lint cover bench bench-smoke bench-module repro repro-full demo-keys clean

all: build test

build:
	$(GO) build ./...

# The second line fails when a shipped binary links the testing package
# (benchmarks belong in _test.go files and in bench/), the third when a
# simulator-side package imports the live stack, the fourth when the
# origin grows a receive loop or enforcement state of its own again (it
# is a Forwarder; see internal/forwarder/producer.go), the fifth when the
# forwarder's face readers leave the reader-owned receive path
# (ReceiveInto: one decode target per reader, not a packet allocated per
# frame), the sixth when a driver walks the tables or consults a
# checkpoint itself instead of through the node core (internal/node
# sequences CS -> PIT -> FIB and Protocols 1-4 once), the seventh when a
# span is built outside internal/obs (the simulator and the live nodes
# record hops with one obs.Span, on their own clocks), the eighth when a
# driver or the oracle applies a revocation, rotation or BF advert itself
# instead of as a control frame through node.Core.OnControl, the ninth
# when the origin grows a metric vocabulary of its own again (it exports
# the forwarder's families with role="producer") or an uplink a give-up
# bound, each grep must print nothing; the tenth when the origin is a
# second daemon again (it is tacticd -role producer); the eleventh when
# a scheme backend grows its own verification exchange again (the
# engines answer Check and Verified over one enforce.Input; Router runs
# the validator once for both schemes), the twelfth when the deleted
# Ed25519 scheme or certificate chain comes back, the thirteenth (two
# lines) when the simulator's origin becomes a node type of its own
# again (it is a network.RouterNode in the origin role, NewOriginNode),
# and the fourteenth when the datagram face grows a second read path of
# its own or UDPOptions a knob beyond the MTU again (a wrapped conn is a
# single-peer UDPEndpoint; the reassembly bounds are constants and
# single-datagram syscalls an unexported test hook), and the fifteenth
# (two lines) when a metric family is named outside the catalogue again
# (a "tactic_ string literal in a non-test file other than
# internal/obs/catalogue.go) or help text is attached by a .Help( call
# instead of declared there, the sixteenth when a parked verify job is
# built outside the verify pool's free list (a verifyJob literal or
# new(verifyJob) anywhere but its get and put), and the seventeenth when
# DecodeTag parses a key locator through a string copy again (it
# resolves both through names.ParseBytes and accepts only their
# canonical spelling), the eighteenth when the PIT or the CS grows a
# second, sharded form again (each is one table that locks itself, as
# the FIB does; NewShardedPIT and NewShardedCS are one-line
# constructors of it, kept for bench/), and the nineteenth when a second
# delivery rule comes back: an opt-in aggregate hardening
# (EnforceALOnAggregates; aggregates are re-checked by default and
# PaperAggregates is the paper-fidelity exception), the oracle's cap on
# silently denied requests (maxTaglessPrivate) or a Tagged field on
# node.Delivery (every denied requester gets the same answer), and the
# twentieth when the live path allocates a Content per packet again
# (new(core.Content) in a non-test file of internal/ndn, transport or
# forwarder: a reader decodes into its scratch Content, the content store
# copies a chunk in and a hit out into a buffer its caller owns), the
# twenty-first when a second issuer comes back as internal/lifecycle
# (core.Provider mints, records and revokes every grant), the
# twenty-second when the grant store is split into shards again
# (grantShards), and the twenty-third when a tag is minted outside the
# provider: a non-test IssueTag call is allowed only in internal/core's
# grant store (Provider.mint) and at the sites that mint on purpose
# without one — the forgers in internal/workload/sources.go and
# examples/quickstart and the oracle's fixtures in
# internal/oracle/material.go, and the twenty-fourth when the conformance
# generator isolates requests in (step, name) slots of their own again
# (aggregationVariant: a live router re-sends the primary's Interest for
# an aggregate, so aggregation cannot change a verdict), and the
# twenty-fifth when the forwarder sends a frame other than through
# sendPacket's out.SendFrame (a face reader's sends join its own batch,
# written when its input runs dry, instead of the socket's write queue),
# and the twenty-sixth (two lines) when a revocation is recorded twice
# again: core.Provider holds a RevocationSet beside its grants (a revoked
# grant's status is the one record, and Provider.Revocations lists the
# live ones), ndn.Control regains a Full marker or RevocationSet a Revoke
# (every push is the whole set, which Apply installs), and the
# twenty-seventh (three lines) when a Bloom filter's FPP has a second
# source again: bloom.Filter regains an insertion count or MeasuredFPP,
# MergeWords a count argument, or ndn/control.go writes the retired
# element count (ctrlCount) again (F, the saturation reset and the
# gauges all read the filter's set bits), and the twenty-eighth when a
# driver declares a packet counter of its own again: a drops map,
# nacksSent or dataSeen, or a registry counter of a packet family
# (interests, data, cs_hits, nacks, drops, control, registrations) in a
# non-test file of internal/network or internal/forwarder (the node
# core's ledger counts every packet once; the series read it).
vet:
	$(GO) vet ./...
	! $(GO) list -deps ./cmd/... | grep -x testing
	! $(GO) list -deps ./internal/experiment ./internal/network ./internal/workload ./internal/sim | grep -E 'internal/(forwarder|transport)$$'
	! grep -nE 'Receive\(\)|enforce\.NewRouter|bloom\.New' internal/forwarder/producer.go
	! grep -n 'Receive()' internal/forwarder/forwarder.go
	! grep -nE '\.pit\.Admit|\.fib\.Lookup|\.cs\.Lookup|OnDataRecord|EdgeOnInterestFast|ContentOnInterestFast' $$(ls internal/network/*.go internal/forwarder/*.go | grep -v _test.go)
	! grep -rnE --include='*.go' 'SimSpan|obs\.SpanRecord\{' . | grep -v '^\./internal/obs/'
	! grep -nE 'tactic\.(ApplyRevocation|RotateEpoch)|Tactic\(\)\.(ApplyRevocation|RotateEpoch)|\.MergeWords\(' $$(ls internal/forwarder/*.go internal/network/*.go internal/oracle/*.go | grep -v _test.go)
	! grep -rnE 'tactic_producer_(served|nacks)|MaxAttempts|func \(p \*Producer\) Instrument' --include=*.go internal cmd examples
	test ! -e cmd/tacticserve
	! grep -rnE '\b(Phase(Fast|PreVerify|PostVerify)|VerifyErr|OnRevocation|CheckContent|InterestInput|ContentInput)\b' --include=*.go internal cmd examples
	test ! -e internal/pki/ed25519.go -a ! -e internal/pki/cert.go
	test ! -e internal/network/provider.go
	! grep -rnE '\b(ProviderNode|NewProviderNode|ProviderNodeStats)\b' --include=*.go internal cmd examples
	! grep -rnE '\b(readConn|DisableBatch|ReassemblyTimeout|ReassemblyEntries)\b' --include=*.go internal cmd examples
	! grep -rn --include='*.go' '"tactic_' internal cmd examples | grep -v '_test\.go:' | grep -v '^internal/obs/catalogue\.go:'
	! grep -rn --include='*.go' '\.Help(' internal cmd examples | grep -v '_test\.go:'
	! grep -nE 'verifyJob\{|new\(verifyJob\)' $$(ls internal/forwarder/*.go | grep -v _test.go) | grep -vE '^internal/forwarder/verifypool\.go:[0-9]+:	+(return new\(verifyJob\)|\*job = verifyJob\{\})$$'
	! grep -n 'names\.Parse(string(' internal/core/tag.go
	! grep -rnE --include='*.go' 'NewSharded(PIT|CS)Of|shardIndex|numShards|type Sharded(PIT|CS)\b' internal cmd examples
	! grep -rnE --include='*.go' '\b(EnforceALOnAggregates|maxTaglessPrivate)\b|^[[:space:]]+Tagged[[:space:]]+bool' internal cmd examples
	! grep -n 'new(core\.Content)' $$(ls internal/ndn/*.go internal/transport/*.go internal/forwarder/*.go | grep -v _test.go)
	test ! -e internal/lifecycle
	! grep -rn --include='*.go' 'grantShards' internal cmd examples
	! grep -rnE --include='*.go' '\bIssueTag\(' internal cmd examples | grep -v '_test\.go:' | grep -vE '^internal/core/tag\.go:[0-9]+:func IssueTag\(|^internal/core/grants\.go:|^(internal/workload/sources|internal/oracle/material|examples/quickstart/main)\.go:'
	! grep -rn --include='*.go' 'aggregationVariant' internal cmd examples
	! awk '/^func /{fn=$$0} /\.SendFrame\(/ && (fn !~ /\) sendPacket\(/ || $$0 !~ /out\.SendFrame\(fs\.conn, /)' internal/forwarder/forwarder.go | grep .
	! grep -n 'RevocationSet' internal/core/provider.go internal/core/grants.go
	! grep -nE '^[[:space:]]+Full[[:space:]]+bool|^func \([a-z]+ \*RevocationSet\) Revoke\(' internal/ndn/control.go internal/core/revocation.go
	! grep -nE '^[[:space:]]+count[[:space:]]+atomic\.|MeasuredFPP|\) Count\(\)' internal/bloom/bloom.go internal/bloom/sync.go
	! grep -nE 'func \(f \*Filter\) MergeWords\([^)]*count' internal/bloom/sync.go
	! grep -n 'ctrlCount' internal/ndn/control.go
	! grep -nE '\bdrops[[:space:]]+map|nacksSent|dataSeen|\.Counter\(obs\.Metric(Interests|Data|CSHits|NACKs|Drops|Control|Registrations)\b' $$(ls internal/network/*.go internal/forwarder/*.go | grep -v _test.go)

# Formatting gate: fails when gofmt would change any file (bench/, a
# module of its own, included).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The pre-merge gate: compile, static checks, formatting, full tests,
# the hot path's allocation guards (uncached), the race detector over
# the concurrent packages, the fault-injection suite, the conformance
# oracle, the native fuzz targets' smoke pass, the exposition-format
# lint, the coverage floor, a one-iteration smoke pass over the wire and
# signature benchmarks, the live-path benchmark's own module (the guard
# that bench/ still builds against internal/), and the end-to-end
# tracing smoke test.
check: build vet fmt-check test allocs race chaos conform fuzz-smoke metrics-lint cover bench-smoke bench-module trace-smoke

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Flake hunt: run the (short-mode) suite twice in a shuffled order so
# sleep-based synchronisation and cross-test state leaks surface. CI
# runs this as its own job.
test-repeat:
	$(GO) test -short -count=2 -shuffle=on ./...

# Allocation guards: the testing.AllocsPerRun tests (named Test...Allocs)
# that hold each hot-path site to what it keeps — a datagram send, a
# recvmmsg/sendmmsg round, an idle-timeout wait, a stream frame read, a
# reader-owned receive, a Content or Data decode, a face reader's hit,
# forward and its relayed, cached Data at a core, a PIT admit/consume
# cycle, a CS insert that evicts and a hit copied out, an intern hit, an
# unsampled span, the Bloom filter's lookup, insert and FPP — a decoded
# tag's signing bytes, a forged tag's validation (the scheme's own
# allocations only), the ECDSA low-s check, a cheap denial, a
# verify-queue admission, an edge reader's park, verify and NACK — plus
# the provider's Revoke, which allocates nothing without a ledger, with
# 64 grants revoked as with 4096. -count=1 because a cached pass proves
# nothing about the toolchain's escape analysis today.
allocs:
	$(GO) test -count=1 -run 'Allocs' ./internal/...

# Race-detector pass over every package the live forwarding plane runs
# concurrently: the forwarder itself plus its lock-free/sharded layers
# (bloom, core validator, ndn tables), the transports, and the daemon
# running its three roles side by side.
race:
	$(GO) test -race ./internal/enforce/... ./internal/forwarder/... ./internal/transport/... ./internal/obs/... ./internal/fleet/... ./internal/bloom/... ./internal/core/... ./internal/ndn/... ./internal/intern/... ./internal/names/... ./internal/node/... ./cmd/tacticd/

# Fault-injection suite: failover/chaos soaks and face churn, under the
# race detector (see README "Failure handling & chaos testing").
chaos:
	$(GO) test -race -count=1 -run 'Soak|Churn|Chaos|Fault' ./internal/forwarder/ ./internal/transport/chaos/

# Longer manual soak: repeat the failover and chaos scenarios.
soak:
	$(GO) test -race -count=5 -run 'Soak' ./internal/forwarder/

# End-to-end tracing gate: boot a live multi-hop topology, trace a
# fetch, and assert the assembled trace crosses >= 2 hops with an edge
# verify span (see README "Tracing a request end-to-end"); then the
# simulator's traced runs: tracing changes no event, the decomposition
# covers every role, and the traced tacticsim report matches its golden.
trace-smoke:
	$(GO) test -race -count=1 -run 'TestTraceSmoke|TestTraceEndToEnd' ./internal/forwarder/
	$(GO) test -count=1 -run 'TestTracingIsDeterministic|TestTracingDecomposition' ./internal/experiment/
	$(GO) test -count=1 -run 'TestRunTracedSimulation' ./cmd/tacticsim/

# Conformance gate: replay seeded scenarios against the reference
# oracle, the sim plane, and the live forwarder plane under the race
# detector, requiring zero divergences (see README "Correctness &
# conformance"). Replay one seed with
#   go run ./cmd/tacticconform -seed N -minimize -v
CONFORM_SEEDS ?= 50
conform:
	$(GO) run -race ./cmd/tacticconform -seeds $(CONFORM_SEEDS)
	$(GO) run -race ./cmd/tacticconform -seeds $(CONFORM_SEEDS) -scheme=ibac

# 30 seconds of native fuzzing per wire-facing decoder, the decision
# engine and the verify admission queue, on top of the committed corpus
# under testdata/fuzz/.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzTLVDecode$$' -fuzztime $(FUZZTIME) ./internal/ndn/
	$(GO) test -run '^$$' -fuzz '^FuzzPacketRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/ndn/
	$(GO) test -run '^$$' -fuzz '^FuzzTagEncoding$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzContentEncoding$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzRevocationTLV$$' -fuzztime $(FUZZTIME) ./internal/ndn/
	$(GO) test -run '^$$' -fuzz '^FuzzControlSync$$' -fuzztime $(FUZZTIME) ./internal/ndn/
	$(GO) test -run '^$$' -fuzz '^FuzzFragRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzEnforceDecision$$' -fuzztime $(FUZZTIME) ./internal/enforce/
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyQueue$$' -fuzztime $(FUZZTIME) ./internal/node/

# Metric vocabulary gate: the obs catalogue follows the naming
# conventions (valid names, counters end in _total, valid label keys,
# help on every family); a live scrape of an edge, a core behind a
# udp:// uplink, a producer and a UDP endpoint exports exactly the
# catalogue's families, types and label keys; README names exactly the
# catalogue's families; and the exposition writer's format tests
# (escaping, NaN/Inf, histogram consistency, no duplicate series).
metrics-lint:
	$(GO) test -count=1 -run 'TestMetricsLint|TestCatalogueWellFormed|TestREADMEListsCatalogue|TestWritePrometheus' ./internal/fleet/ ./internal/obs/

# Statement-coverage floors: the scheme-agnostic decision engine and the
# node core with its verify admission (the forwarding loop both planes
# drive) are the repo's most safety-critical packages and are held to
# 90%; the live forwarder (timing-heavy plumbing) to 70%; the tag
# primitives with the provider's grant store, and the wire codec to the
# default 80%.
COVER_FLOOR ?= 80
COVER_FLOOR_ENFORCE ?= 90
COVER_FLOOR_FORWARDER ?= 70
cover:
	@$(GO) test -cover ./internal/core/ ./internal/ndn/ ./internal/enforce/ ./internal/node/ ./internal/forwarder/ | tee /tmp/tactic-cover.txt
	@awk -v floor=$(COVER_FLOOR) -v enf=$(COVER_FLOOR_ENFORCE) -v fwd=$(COVER_FLOOR_FORWARDER) '/coverage:/ { f = floor; if ($$2 ~ /internal\/(enforce|node)$$/) f = enf; if ($$2 ~ /internal\/forwarder$$/) f = fwd; gsub(/%/, "", $$5); if ($$5 + 0 < f) { print "FAIL: " $$2 " coverage " $$5 "% below " f "%"; bad = 1 } } END { exit bad }' /tmp/tactic-cover.txt

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the benchmarks outside the paper-figure suite (wire
# pps, signature verification): catches bit-rot in seconds without
# measuring anything. The live path is measured by bench/run.sh.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/transport/ ./internal/pki/

# bench/ is a Go module of its own, so build, vet and test above never
# compile it: an internal/ API change can break the live-path benchmark
# without tier-1 noticing. Vet it and run its tests (~8 s).
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every paper table and figure (reduced scale, ~7 min).
repro:
	$(GO) run ./cmd/tacticbench -csv results

# The paper's full scale (2000 s x 5 seeds; hours).
repro-full:
	$(GO) run ./cmd/tacticbench -duration 2000s -seeds 5 -csv results

# Identities for the live-network walkthrough in README.md.
demo-keys:
	$(GO) run ./cmd/tactickey gen -locator /prov0/KEY/1 -out prov0
	$(GO) run ./cmd/tactickey gen -locator /users/alice/KEY/1 -out alice

clean:
	rm -f prov0.key prov0.pub alice.key alice.pub
