# KompicsMessaging-go build targets.
#
#   make check          vet + kmlint + build + race-enabled tests (the CI gate)
#   make test           plain test run (tier-1 verify)
#   make test-faults    fault-injection, supervision and shutdown suite (the
#                       two-process kmtransfer transfer, the stopped or
#                       killed Network answering every queued notify, and
#                       UDT's linger and bidirectional-loss tests
#                       included),
#                       race-enabled and repeated to shake out nondeterminism
#   make test-startup   UDT slow-start suite (window rules, light ACKs, time
#                       to the first 64 KiB), race-enabled and repeated
#   make lint           kmlint static analyzer suite (with -audit-ignores)
#   make fuzz           every native fuzz target past its checked-in corpus,
#                       FUZZTIME each (default 20s)
#   make loc            non-test, non-comment, non-blank Go lines in
#                       internal/core + internal/transport (first line),
#                       in the whole module (second line), then in
#                       internal/lint (third line)
#   make sim-campaign   netsim determinism gate (same seed twice), then one
#                       large-scale campaign that prints its bench line
#   make soak           run the kmsoak chaos harness over real loopback
#                       sockets (exit nonzero if any liveness gate trips)
#   make bench          regenerate every figure of the paper (kmbench -fig all)

GO ?= go

FAULT_PKGS = ./internal/faults/ ./internal/transport/ ./internal/core/ ./internal/udt/ ./internal/kompics/ ./cmd/kmtransfer/
FAULT_RUN  = 'Fault|Supervis|Fallback|Overflow|PeerDeath|Revival|Stall|Blackhole|Backoff|Status|StopThenRestart|Shutdown|WindDown|Linger|Bidirectional'

STARTUP_PKGS = ./internal/udt/
STARTUP_RUN  = 'SlowStart'

RECV_PKGS = ./internal/transport/ ./internal/core/ ./internal/vnet/
RECV_RUN  = 'RecvOrder|LaneStage|VNodeFanin'

QOS_PKGS = ./internal/transport/ ./internal/core/ ./internal/data/
QOS_RUN  = 'QoS'

.PHONY: check test test-faults test-startup test-recv test-qos build vet lint fuzz loc bench sim-campaign soak soak-smoke

check:
	$(GO) vet ./... && $(GO) run ./cmd/kmlint -audit-ignores ./... && $(GO) build ./... && $(GO) test -race ./...

test:
	$(GO) build ./... && $(GO) test ./...

test-faults:
	$(GO) test -race -count=3 -run $(FAULT_RUN) $(FAULT_PKGS)

# test-startup runs UDT's slow-start suite: the socket-free window rules
# (growth by the acknowledged count, the flow-window cap, exit on NAK or
# EXP, MaxRate), the first 64 KiB on fresh loopback pairs in under one
# SYN interval, and light ACKs stopping after start-up.
test-startup:
	$(GO) test -race -count=3 -run $(STARTUP_RUN) $(STARTUP_PKGS)

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the full analyzer suite with stale-suppression auditing: an
# //kmlint:ignore directive that no longer suppresses anything fails the
# run with its audited reason printed.
lint:
	$(GO) run ./cmd/kmlint -audit-ignores ./...

# fuzz runs each native fuzz target (name:package) for FUZZTIME beyond
# its checked-in corpus under testdata/fuzz; the first failure stops it.
#
#   make fuzz FUZZTIME=2m
#
FUZZTIME ?= 20s
FUZZ_TARGETS = FuzzReadFrame:./internal/codec/ \
               FuzzFlateRoundTrip:./internal/codec/ \
               FuzzInflateMatchesStdlib:./internal/codec/ \
               FuzzDeflateStdlibDecodes:./internal/codec/ \
               FuzzDecodeWire:./internal/core/ \
               FuzzReadBasicHeader:./internal/core/ \
               FuzzHandlePacket:./internal/udt/ \
               FuzzDecodePackets:./internal/udt/ \
               FuzzParseDirective:./internal/lint/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t%%:*} ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t%%:*}$$" -fuzztime $(FUZZTIME) $${t#*:}; \
	done

# loc prints the size metrics simplification PRs are held to: Go lines in
# the two packages every message crosses, then in the whole module, then
# in the analyzer package (the analyzer's testdata excluded throughout),
# tests, comment-only lines and blank lines excluded.
loc:
	@ls internal/core/*.go internal/transport/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@find . -name '*.go' ! -name '*_test.go' ! -path './internal/lint/testdata/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
	@ls internal/lint/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# sim-campaign runs the netsim determinism gate at small scale (the same
# seeded campaign twice must produce identical event traces and phase
# results), then one scaled campaign that prints its go-bench-format line.
# Scale through the environment:
#
#   make sim-campaign SIM_SCALE=1000000 SIM_HOSTS=10000 SIM_DURATION=2s
#
SIM_SCALE    ?= 100000
SIM_HOSTS    ?= 1000
SIM_TOPO     ?= gossip
SIM_SEED     ?= 1
SIM_DURATION ?= 10s
SIM_BIN      = ./kmsim.bin
SIM_FLAGS    = -endpoints $(SIM_SCALE) -hosts $(SIM_HOSTS) -topology $(SIM_TOPO) \
               -seed $(SIM_SEED) -phase $(SIM_DURATION)

sim-campaign:
	$(GO) build -o $(SIM_BIN) ./cmd/kmsim
	$(SIM_BIN) -verify -endpoints 2000 -hosts 100 -topology $(SIM_TOPO) -seed $(SIM_SEED) -phase 2s
	$(SIM_BIN) $(SIM_FLAGS)
	@rm -f $(SIM_BIN)

# soak runs the kmsoak chaos harness: real TCP/UDT/UDP loopback nodes
# under a seeded fault campaign, gated on the liveness invariants (zero
# leaked buffers, bounded + drained queues, every outage recovered in
# budget, no goroutine growth). Scale through the environment:
#
#   make soak SOAK_DURATION=10m SOAK_SCHEDULE=mixed SOAK_NODES=5
#
SOAK_DURATION  ?= 60s
SOAK_SEED      ?= 1
SOAK_SCHEDULE  ?= rolling-outage
SOAK_NODES     ?= 3
SOAK_BASE_PORT ?= 17000
SOAK_FLAGS     = -duration $(SOAK_DURATION) -seed $(SOAK_SEED) \
                 -schedule $(SOAK_SCHEDULE) -nodes $(SOAK_NODES) \
                 -base-port $(SOAK_BASE_PORT)

soak:
	$(GO) run ./cmd/kmsoak $(SOAK_FLAGS)

# soak-smoke is the CI slice of the soak: a short rolling-outage run
# that must pass, plan determinism (same seed twice -> identical event
# log), and the induced-failure regressions (a deliberate buffer leak
# and a permanent outage must each make the harness exit nonzero).
soak-smoke:
	$(GO) build -o ./kmsoak.bin ./cmd/kmsoak
	./kmsoak.bin -print-plan $(SOAK_FLAGS) > soak-plan-a.txt
	./kmsoak.bin -print-plan $(SOAK_FLAGS) > soak-plan-b.txt
	diff soak-plan-a.txt soak-plan-b.txt
	./kmsoak.bin $(SOAK_FLAGS) -duration 15s
	! ./kmsoak.bin $(SOAK_FLAGS) -duration 8s -nodes 2 -base-port 17100 -induce leak
	! ./kmsoak.bin $(SOAK_FLAGS) -duration 8s -nodes 2 -base-port 17200 -induce outage
	@rm -f ./kmsoak.bin soak-plan-a.txt soak-plan-b.txt

# test-recv runs the receive-path property suite (per-peer inbound FIFO,
# at-most-once delivery, zero-leak teardown, a peer held in decode not
# stalling others) and the socket-free suite of the generic lane stage
# behind the codec stage, race-enabled and repeated.
test-recv:
	$(GO) test -race -count=3 -run $(RECV_RUN) $(RECV_PKGS)

# test-qos runs the QoS suite (header wire compatibility, the pending
# queue's per-(peer, class, key) FIFO property, value-of-update shedding,
# deadline reconnect drain, the clock-free zero-QoS send path, drop-rate
# reward) race-enabled and repeated.
test-qos:
	$(GO) test -race -count=3 -run $(QOS_RUN) $(QOS_PKGS)

bench:
	$(GO) run ./cmd/kmbench -fig all
