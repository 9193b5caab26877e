.PHONY: all build test check size unused faults experiments smoke determinism bench-diff bench-baseline clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles and every suite passes.
check:
	dune build
	dune runtest

# The three figures a simplicity change reports: library lines
# (.ml + .mli), top-level vals exported from the .mli files, and the
# optional arguments those files declare.
size:
	@printf 'lib lines (.ml + .mli): %s\n' "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@printf 'lib exported vals:      %s\n' "$$(cat lib/*/*.mli | grep -c '^val ')"
	@printf 'lib optional args:      %s\n' "$$(cat lib/*/*.mli | grep -o '?[a-z_]*:' | wc -l)"

# Every `val` in lib/*/*.mli whose name no .ml under lib, bench,
# bin, test or examples mentions outside the module's own .ml: an
# export nobody else uses.  A whole-word name search, so a dead val
# whose name another module happens to use goes unlisted.  Print-only.
unused:
	@for mli in lib/*/*.mli; do \
	  ml=$${mli%i}; \
	  others=$$(find lib bench bin test examples -name '*.ml' ! -path $$ml); \
	  for v in $$(sed -n 's/^val \([a-z_][A-Za-z0-9_]*\).*/\1/p' $$mli); do \
	    grep -qw -- "$$v" $$others || \
	      echo "$$(basename $$ml .ml | sed 's/^./\U&/').$$v"; \
	  done; \
	done

faults:
	dune exec bin/experiments_main.exe -- faults

experiments:
	dune exec bin/experiments_main.exe

# Every experiment at CI size, then the traced mid-size load cell
# (exits non-zero unless obs_trace.json and obs_metrics.json validate).
smoke:
	dune exec bin/experiments_main.exe -- --quick
	dune exec bin/experiments_main.exe -- trace

# Two seeded --quick runs must print the same report once the host
# figures (wall time, peak heap) are masked: any other difference is
# nondeterminism in the simulator.
HOST_FIGURES = s/wall=[0-9.]+s/wall=_/g; s/[0-9.]+ s wall/_ s wall/g; s/top_heap=[0-9]+MB/top_heap=_/g

determinism:
	dune build bin/experiments_main.exe
	mkdir -p _build/determinism
	for i in 1 2; do \
	  ./_build/default/bin/experiments_main.exe --quick > _build/determinism/raw$$i.txt || exit 1; \
	  sed -E '$(HOST_FIGURES)' _build/determinism/raw$$i.txt > _build/determinism/run$$i.txt; \
	done
	diff _build/determinism/run1.txt _build/determinism/run2.txt

# Write BENCH_core.json and list every path that drifted from the
# committed baseline; refresh an intentional change with bench-baseline.
bench-diff:
	dune exec bench/main.exe -- --json && dune exec bench/main.exe -- diff bench/BENCH_baseline.json BENCH_core.json

bench-baseline:
	dune exec bench/main.exe -- --json && cp BENCH_core.json bench/BENCH_baseline.json

clean:
	dune clean
