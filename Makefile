# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Concurrency-sensitive packages that must stay race-clean. `make ci` and
# .github/workflows/ci.yml run exactly the same targets; the
# internal/ciparity test asserts the two lists cannot drift.
RACE_PKGS = ./internal/skyd/ ./internal/sim/ ./internal/metrics/ ./internal/cloudsim/ ./internal/router/ ./internal/chaos/ ./internal/faas/ ./internal/refresh/ ./internal/trace/ ./internal/admission/ ./internal/load/ ./internal/core/ ./internal/experiments/ ./internal/tenant/ ./internal/warmpool/ ./internal/control/

.PHONY: all build vet fmt-check lint lint-fixtures test race fuzz ci smoke data-check bench-smoke reproduce serve clean

all: build vet lint test

ci: build vet fmt-check lint test race fuzz smoke data-check bench-smoke

# One reduced pass of the five experiments beyond the paper, through the
# CLI: proves that chaos and resilient routing (EX-6), drift detection and
# the refresh scheduler (EX-7), the admission gate and the overload frontier
# (EX-8), tenant quotas and the fairness comparison (EX-10), and the
# warm-pool forecaster with its budget governor (EX-11) each compose end to
# end outside the test harness.
smoke:
	$(GO) run ./cmd/skybench -ex ex6,ex7,ex8,ex10,ex11 -scale reduced

# The checked-in reproduction CSVs in data/ must be what the code produces:
# regenerate EX-1..EX-5 at full scale and the default seed into a scratch
# directory and compare file by file (~15 s on 2 cores).
data-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/skybench -ex ex1,ex2,ex3,ex4,ex5 -csvdir "$$tmp" >/dev/null && \
	diff -r data "$$tmp" && echo "data/ matches the code"

# The benchmark's own tests (bench/ is a nested module that `go test ./...`
# here does not see): every workload and the traced run at smoke scale, each
# metric BENCHMARK.json names emitted, -compare's verdicts, and bench/'s
# mirrors of skyd's burst types still matching the server.
bench-smoke:
	cd bench && $(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (determinism & concurrency invariants);
# see internal/lint and the README "Static analysis" section. Findings are
# mirrored into lint_findings.json for CI archival, and under GitHub
# Actions skylint emits ::error workflow commands so findings land as
# inline PR annotations.
lint:
	$(GO) run ./cmd/skylint -json lint_findings.json ./...

# Just the analyzer golden tests (fixture module, //want markers) — the
# fast inner loop when developing a lint rule. -short skips the repo-wide
# type-check that the full `go test ./internal/lint/` also performs.
lint-fixtures:
	$(GO) test -short ./internal/lint/ ./cmd/skylint/

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Ten seconds of coverage-guided fuzzing per parser of untrusted bytes, and
# of the simulation's event queue against its binary-heap oracle, on top of
# the checked-in seed corpora plain `go test` already replays. Go fuzzes one
# target per invocation, hence one line each.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseCPUInfo -fuzztime=10s ./internal/cpu/
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/dynfunc/
	$(GO) test -run='^$$' -fuzz=FuzzLoadPerfModel -fuzztime=10s ./internal/router/
	$(GO) test -run='^$$' -fuzz=FuzzBurst -fuzztime=10s ./internal/skyd/
	$(GO) test -run='^$$' -fuzz=FuzzControl -fuzztime=10s ./internal/skyd/
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/tenant/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/saaf/
	$(GO) test -run='^$$' -fuzz=FuzzQueue -fuzztime=10s ./internal/sim/

# Regenerate every paper table/figure at full scale (writes data/*.csv).
reproduce:
	$(GO) run ./cmd/skybench -ex all -csvdir data | tee skybench_full.txt

serve:
	$(GO) run ./cmd/skyd -addr 127.0.0.1:8080

# Remove generated outputs only. data/ holds the checked-in fig*.csv
# reproduction artifacts (refreshed in place by `make reproduce`), so it
# must survive a clean.
clean:
	rm -f skybench_full.txt lint_findings.json
