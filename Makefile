# KompicsMessaging-go build targets.
#
#   make check          vet + kmlint + build + race-enabled tests (the CI gate)
#   make test           plain test run (tier-1 verify)
#   make test-faults    fault-injection and supervision suite, race-enabled
#                       and repeated to shake out nondeterminism
#   make lint           kmlint static analyzer suite (with -audit-ignores)
#   make loc            non-test, non-comment, non-blank Go lines in
#                       internal/core + internal/transport
#   make bench-hotpath  rerun the wire hot-path benchmarks and refresh the
#                       "current" section of BENCH_hotpath.json
#   make bench-udt      rerun the UDT data-path benchmarks and refresh the
#                       "current" section of BENCH_udt.json
#   make sim-campaign   run the large-scale netsim campaign on both event
#                       cores and refresh BENCH_sim.json
#   make soak           run the kmsoak chaos harness over real loopback
#                       sockets (exit nonzero if any liveness gate trips)
#   make bench          full benchmark sweep (figures + ablations)

GO ?= go

HOTPATH_PKGS = ./internal/core/ ./internal/transport/
HOTPATH_OUT  = BENCH_hotpath.out
UDT_OUT      = BENCH_udt.out
FANIN_PKGS   = ./internal/transport/ ./internal/core/
FANIN_OUT    = BENCH_fanin.out

FAULT_PKGS = ./internal/faults/ ./internal/transport/ ./internal/core/ ./internal/udt/
FAULT_RUN  = 'Fault|Supervis|Fallback|Overflow|PeerDeath|Revival|Stall|Blackhole|Backoff|Status|StopThenRestart'

RECV_PKGS = ./internal/transport/ ./internal/core/ ./internal/vnet/
RECV_RUN  = 'RecvOrder|DecodeStage|LaneStage|VNodeFanin'

QOS_PKGS = ./internal/transport/ ./internal/core/ ./internal/data/
QOS_RUN  = 'QoS'
QOS_OUT  = BENCH_qos.out

.PHONY: check test test-faults test-recv test-qos build vet lint loc bench bench-hotpath bench-udt bench-fanin bench-qos sim-campaign soak soak-smoke

check:
	$(GO) vet ./... && $(GO) run ./cmd/kmlint -audit-ignores ./... && $(GO) build ./... && $(GO) test -race ./...

test:
	$(GO) build ./... && $(GO) test ./...

test-faults:
	$(GO) test -race -count=3 -run $(FAULT_RUN) $(FAULT_PKGS)

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the full analyzer suite with stale-suppression auditing: an
# //kmlint:ignore directive that no longer suppresses anything fails the
# run with its audited reason printed.
lint:
	$(GO) run ./cmd/kmlint -audit-ignores ./...

# loc prints the size metric simplification PRs are held to: Go lines in
# the two packages every message crosses, tests, comment-only lines and
# blank lines excluded.
loc:
	@ls internal/core/*.go internal/transport/*.go | grep -v _test | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

bench-hotpath:
	$(GO) test -bench WirePath -run '^$$' -benchmem $(HOTPATH_PKGS) | tee $(HOTPATH_OUT)
	$(GO) run ./cmd/benchjson -label current -out BENCH_hotpath.json < $(HOTPATH_OUT)
	@rm -f $(HOTPATH_OUT)

bench-udt:
	$(GO) test -bench UDT -run '^$$' -benchmem -benchtime 2s . | tee $(UDT_OUT)
	$(GO) run ./cmd/benchjson -label current -out BENCH_udt.json < $(UDT_OUT)
	@rm -f $(UDT_OUT)

# bench-fanin reruns the fan-in scaling benchmarks (BenchmarkFaninReceive /
# BenchmarkFaninReceiveNetwork) and refreshes the "current" section of
# BENCH_fanin.json; the frozen "baseline" section holds the numbers from
# before the parallel decode stage. The benchmarks sweep GOMAXPROCS
# 1/4/NumCPU themselves.
bench-fanin:
	$(GO) test -bench FaninReceive -run '^$$' -benchmem $(FANIN_PKGS) | tee $(FANIN_OUT)
	$(GO) run ./cmd/benchjson -label current -out BENCH_fanin.json < $(FANIN_OUT)
	@rm -f $(FANIN_OUT)

# sim-campaign runs the scaled netsim campaign on both event cores and
# refreshes BENCH_sim.json: the binary-heap core lands in the "baseline"
# section, the timer-wheel core in "current". A small-scale determinism
# gate runs first — the same seed must produce identical event traces and
# phase results on both cores. Scale through the environment:
#
#   make sim-campaign SIM_SCALE=1000000 SIM_HOSTS=10000 SIM_DURATION=2s
#
SIM_SCALE    ?= 100000
SIM_HOSTS    ?= 1000
SIM_TOPO     ?= gossip
SIM_SEED     ?= 1
SIM_DURATION ?= 10s
SIM_BIN      = ./kmsim.bin
SIM_OUT      = BENCH_sim.out
SIM_FLAGS    = -endpoints $(SIM_SCALE) -hosts $(SIM_HOSTS) -topology $(SIM_TOPO) \
               -seed $(SIM_SEED) -phase $(SIM_DURATION)

sim-campaign:
	$(GO) build -o $(SIM_BIN) ./cmd/kmsim
	$(SIM_BIN) -verify -endpoints 2000 -hosts 100 -topology $(SIM_TOPO) -seed $(SIM_SEED) -phase 2s
	$(SIM_BIN) $(SIM_FLAGS) -clock heap | tee $(SIM_OUT)
	$(GO) run ./cmd/benchjson -label baseline -out BENCH_sim.json < $(SIM_OUT)
	$(SIM_BIN) $(SIM_FLAGS) -clock wheel | tee $(SIM_OUT)
	$(GO) run ./cmd/benchjson -label current -out BENCH_sim.json < $(SIM_OUT)
	@rm -f $(SIM_OUT) $(SIM_BIN)

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
# at-most-once delivery, zero-leak teardown) and the socket-free suite of
# the generic lane stage both directions share, race-enabled and repeated.
test-recv:
	$(GO) test -race -count=3 -run $(RECV_RUN) $(RECV_PKGS)

# test-qos runs the QoS / queue-policy suite (header wire compatibility,
# per-(peer,class) FIFO properties, value-of-update shedding, deadline
# reconnect drain, drop-rate reward) race-enabled and repeated.
test-qos:
	$(GO) test -race -count=3 -run $(QOS_RUN) $(QOS_PKGS)

# bench-qos reruns the queue-policy overload benchmarks (saturated-channel
# push cost per policy; steady-state drops must be alloc-free) and
# refreshes the "current" section of BENCH_qos.json.
bench-qos:
	$(GO) test -bench QueuePolicy -run '^$$' -benchmem ./internal/transport/ | tee $(QOS_OUT)
	$(GO) run ./cmd/benchjson -label current -out BENCH_qos.json < $(QOS_OUT)
	@rm -f $(QOS_OUT)

bench:
	$(GO) test -bench . -benchmem
