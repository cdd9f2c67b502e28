GO ?= go

.PHONY: all build fmt test vet lint race verify allocs bench bench-smoke bench-cmp chaos profile fuzz size clean

all: verify

build:
	$(GO) build ./...

# Fails, listing the files, when anything is not gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# benchmark/ is a nested module (the perf ledger, see BENCHMARK.json); the
# root ./... pattern does not reach its smoke test.
test:
	$(GO) test ./...
	cd benchmark && $(GO) test ./...

# The second line reaches the nested benchmark/ module (read-only: nothing
# under it changes), so an API deletion that breaks the frozen ledger fails
# here in seconds, not at the tail of `make test`.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

# Static analysis beyond vet. Gated on tool presence so the target never
# forces an install: CI installs staticcheck explicitly; a bare dev box
# skips with a note instead of failing.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./... ; \
	else \
		echo "lint: staticcheck/golangci-lint not installed, skipping"; \
	fi

# The cluster suite runs minutes of virtual time per scenario; race
# instrumentation pushes it past the default 10m package timeout.
race:
	$(GO) test -race -timeout 60m ./...

# Every allocation guard on its own: each testing.AllocsPerRun assertion and
# whole-deployment allocation budget lives in a test whose name says Alloc,
# so an allocation regression fails here under its own label.
allocs:
	$(GO) test -count=1 -run Alloc ./...

# Full pre-merge gate: everything CI runs.
verify: build fmt test vet lint race

# Regenerate the paper-figure experiments (virtual-time, deterministic).
bench:
	$(GO) run ./cmd/skv-bench

# Run every experiment at tiny scale: proves each one still builds its
# cluster, runs, and renders. Numbers are meaningless at this scale.
bench-smoke:
	$(GO) run ./cmd/skv-bench -smoke

# Byte-identity proof for a behaviour-preserving change: every experiment
# built from BASE (a git revision, via git archive) and from the working tree,
# the two binaries of each experiment run side by side and their outputs
# cmp'd; fails at the first experiment that exits non-zero, or after the last
# naming every experiment that differs.
# SMOKE=1 runs both sides with -smoke. ~4.5 minutes in all at full scale.
BASE ?= HEAD
bench-cmp:
	SMOKE=$(SMOKE) bash scripts/bench-cmp.sh $(BASE)

# Every failure scenario (cluster.AllScenarios) through the one runner, traces
# printed; exits 1 when any scenario fails its check, so an example that stops
# converging fails the build instead of printing to nobody.
chaos:
	$(GO) run ./examples/chaos

# Where one experiment spends host time and allocations, so the next
# bottleneck is read, not guessed: `make profile EXP=fig11` runs it once
# under the CPU and heap profilers (bench_test.go) and prints the top 25 of
# each. The test binary and the profiles stay outside the checkout.
EXP ?= fig11
PROFILE_DIR ?= /tmp/skv-profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Experiment/$(EXP)$$' -benchtime=1x -o $(PROFILE_DIR)/skv.test \
		-cpuprofile $(PROFILE_DIR)/cpu.prof -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate 4096 .
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/skv.test $(PROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 $(PROFILE_DIR)/skv.test $(PROFILE_DIR)/mem.prof

# Fuzz every wire decoder: each Fuzz target `go test -list` finds in the
# module runs for FUZZTIME (scripts/fuzz.sh). New corpus entries go to the go
# command's cache, failures to the package's testdata/.
FUZZTIME ?= 20s
fuzz:
	GO=$(GO) FUZZTIME=$(FUZZTIME) bash scripts/fuzz.sh

# Non-test and code-only Go lines per package under internal/, cmd/ and
# examples/, plus the totals (scripts/size.sh): the before/after count a
# simplification reports. ROOT=<dir> counts another checkout.
size:
	bash scripts/size.sh

clean:
	$(GO) clean ./...
