.PHONY: all build test check faults experiments load-smoke obs-smoke commit-smoke consistency-smoke transport-smoke bench-json bench-diff bench-baseline clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles and every suite passes.
check:
	dune build
	dune runtest

faults:
	dune exec bin/experiments_main.exe -- faults

experiments:
	dune exec bin/experiments_main.exe

# CI-sized open-loop load grid (both A/B arms of the sharded name
# service); the full grid is `experiments_main -- load`.
load-smoke:
	dune exec bin/experiments_main.exe -- --quick load

# Traced mid-size load cell: exports obs_trace.json (Chrome
# trace-event JSON, validated by the binary itself before it exits
# zero) and obs_metrics.json (per-node metrics registries), and
# prints the critical-path stage breakdown.
obs-smoke:
	dune exec bin/experiments_main.exe -- trace

# Group-commit A/B smoke pair (force-per-record vs 5 ms window at 64
# sessions) plus the kill-mid-commit recovery scenario; the full
# clients x window x footprint grid is `experiments_main -- commit`.
commit-smoke:
	dune exec bin/experiments_main.exe -- --quick commit

# Relaxed-consistency A/B smoke grid (one-copy vs release vs
# commutative at reduced sizes); the full grid is
# `experiments_main -- consistency`.
consistency-smoke:
	dune exec bin/experiments_main.exe -- --quick consistency

# RaTP transport smoke grid (loss 0/5% x 1.4K/64K x selective vs
# full-burst, plus the same-node bypass); the full grid is
# `experiments_main -- transport`.
transport-smoke:
	dune exec bin/experiments_main.exe -- --quick transport

# Machine-readable benchmark baseline (wall-clock + simulated
# metrics); BENCH_QUICK=1 selects the reduced sizes CI uses.
bench-json:
	dune exec bench/main.exe -- --json $(if $(BENCH_QUICK),--quick,)

# Fail if the fixed-seed simulated metrics drift from the committed
# quick-size baseline.  The simulation is deterministic and
# machine-independent, so any diff is a real behaviour change; the
# host-specific "wall_clock" suffix is stripped from both sides.
bench-diff:
	dune exec bench/main.exe -- --json --quick
	@mkdir -p _build
	@sed 's/, "wall_clock".*$$/}/' BENCH_core.json > _build/bench_now.sim
	@sed 's/, "wall_clock".*$$/}/' bench/BENCH_baseline.json > _build/bench_base.sim
	@if cmp -s _build/bench_base.sim _build/bench_now.sim; then \
	  echo "bench-diff: simulated metrics match the committed baseline"; \
	else \
	  echo "bench-diff: simulated metrics DRIFTED from bench/BENCH_baseline.json:"; \
	  diff _build/bench_base.sim _build/bench_now.sim | head -20; \
	  echo "(intentional? refresh with: make bench-baseline)"; \
	  exit 1; \
	fi
	@if cmp -s bench/BENCH_obs_baseline.json BENCH_obs.json; then \
	  echo "bench-diff: obs section matches the committed baseline"; \
	else \
	  echo "bench-diff: obs section DRIFTED from bench/BENCH_obs_baseline.json:"; \
	  diff bench/BENCH_obs_baseline.json BENCH_obs.json | head -20; \
	  echo "(intentional? refresh with: make bench-baseline)"; \
	  exit 1; \
	fi
	@if cmp -s bench/BENCH_commit_baseline.json BENCH_commit.json; then \
	  echo "bench-diff: commit section matches the committed baseline"; \
	else \
	  echo "bench-diff: commit section DRIFTED from bench/BENCH_commit_baseline.json:"; \
	  diff bench/BENCH_commit_baseline.json BENCH_commit.json | head -20; \
	  echo "(intentional? refresh with: make bench-baseline)"; \
	  exit 1; \
	fi
	@if cmp -s bench/BENCH_consistency_baseline.json BENCH_consistency.json; then \
	  echo "bench-diff: consistency section matches the committed baseline"; \
	else \
	  echo "bench-diff: consistency section DRIFTED from bench/BENCH_consistency_baseline.json:"; \
	  diff bench/BENCH_consistency_baseline.json BENCH_consistency.json | head -20; \
	  echo "(intentional? refresh with: make bench-baseline)"; \
	  exit 1; \
	fi

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	dune exec bench/main.exe -- --json --quick
	cp BENCH_core.json bench/BENCH_baseline.json
	cp BENCH_obs.json bench/BENCH_obs_baseline.json
	cp BENCH_commit.json bench/BENCH_commit_baseline.json
	cp BENCH_consistency.json bench/BENCH_consistency_baseline.json
	@echo "updated bench/BENCH_{baseline,obs_baseline,commit_baseline,consistency_baseline}.json -- commit them"

clean:
	dune clean
