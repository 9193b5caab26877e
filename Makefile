.PHONY: all build test check faults experiments smoke bench-diff bench-baseline clean

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

# Every experiment at CI size, then the traced mid-size load cell
# (exits non-zero unless obs_trace.json and obs_metrics.json validate).
smoke:
	dune exec bin/experiments_main.exe -- --quick
	dune exec bin/experiments_main.exe -- trace

# Write BENCH_core.json and list every path that drifted from the
# committed baseline; refresh an intentional change with bench-baseline.
bench-diff:
	dune exec bench/main.exe -- --json && dune exec bench/main.exe -- diff bench/BENCH_baseline.json BENCH_core.json

bench-baseline:
	dune exec bench/main.exe -- --json && cp BENCH_core.json bench/BENCH_baseline.json

clean:
	dune clean
