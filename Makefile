.PHONY: all build test check size unused faults experiments smoke determinism bench-diff bench-baseline perf-ab clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles and every suite passes.
check:
	dune build
	dune runtest

# Collect every record field the .mli files export (inline records of
# constructors included) into fmod/fname/fmut/fown[1..nfld]: module,
# name, 1 if mutable, and the module's own .ml.  Comments are skipped;
# a record body is read from its `{` to the matching `}` and split on
# `;`, and each piece's leading `[mutable] name :` is the field.
# Shared by `size` and `unused`.
define FIELDS_AWK
function scan_fields(line,   n, i, c, c2) {
  if (FNR == 1) {
    fm = FILENAME; sub(/.*\//, "", fm); sub(/\.mli$$/, "", fm)
    fm = toupper(substr(fm, 1, 1)) substr(fm, 2); cdepth = 0; rdepth = 0
  }
  n = length(line)
  for (i = 1; i <= n; i++) {
    c2 = substr(line, i, 2); c = substr(line, i, 1)
    if (c2 == "(*") { cdepth++; i++ }
    else if (cdepth > 0 && c2 == "*)") { cdepth--; i++ }
    else if (cdepth > 0) continue
    else if (c == "{") { if (rdepth++ == 0) body = "" }
    else if (c == "}") { if (--rdepth == 0) fields_of(body, fm) }
    else if (rdepth > 0) body = body c
  }
  if (rdepth > 0) body = body " "
}
function fields_of(body, m,   k, i, parts, d, mut) {
  k = split(body, parts, ";")
  for (i = 1; i <= k; i++) {
    d = parts[i]; sub(/^[ \t]+/, "", d)
    if (match(d, /^(mutable +)?[a-z_][A-Za-z0-9_']* *:/)) {
      d = substr(d, 1, RLENGTH); sub(/ *:$$/, "", d)
      mut = sub(/^mutable +/, "", d)
      nfld++; fmod[nfld] = m; fname[nfld] = d; fmut[nfld] = mut
      fown[nfld] = FILENAME; sub(/i$$/, "", fown[nfld])
    }
  }
}
FILENAME ~ /\.mli$$/ { scan_fields($$0) }
endef
export FIELDS_AWK

# The figures a simplicity change reports: library lines (.ml +
# .mli), top-level vals exported from the .mli files, the optional
# arguments those files declare, and the record fields they export
# (the mutable ones counted again on their own).
size:
	@printf 'lib lines (.ml + .mli): %s\n' "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@printf 'lib exported vals:      %s\n' "$$(cat lib/*/*.mli | grep -c '^val ')"
	@printf 'lib optional args:      %s\n' "$$(cat lib/*/*.mli | grep -o '?[a-z_]*:' | wc -l)"
	@awk "$$FIELDS_AWK"' END { for (i = 1; i <= nfld; i++) m += fmut[i]; \
	  printf "lib exported fields:    %d\nlib mutable fields:     %d\n", nfld, m }' lib/*/*.mli

# Every `val` in lib/*/*.mli that no .ml under lib, bench, bin, test
# or examples other than the module's own uses: an export nobody else
# names.  A use is a qualified `Mod.v` (any prefix, e.g. `Dsm.Mod.v`),
# `A.v` in a file that binds `module A = ...Mod`, or a bare `v` in a
# file that opens `Mod` (`open`, `let open`, `Mod.(...)`).  Unseen:
# uses through `include`, functors or a chain of aliases, and a
# `module A =` split over two lines.  A mention in a comment or string,
# or a record field written `Mod.v`, counts as a use, so such a dead
# val goes unlisted.  Then every exported record field (FIELDS_AWK)
# that no other file writes in field syntax, printed as
# `Mod.field (field)`.  Field syntax is an access `e.f`, `e.M.f` or
# `(e).f` (a dotted chain whose head is lowercase: `Mod.f` is a val),
# or a slot inside `{ ... }` (after `{`, `;`, `with` or at a line
# start) that names `[M.]f` followed by `=`, `;` or `}`.  The val rule
# also counts: `Mod.f`, `A.f` through an alias, or a bare `f` in a
# file that opens `Mod`.  String and character literals are skipped
# when counting braces.  Still a lower bound: an access `x.seq` in any
# file counts for every exported field called `seq`.  One awk pass
# over every file.  Exits non-zero whenever it prints anything, so CI
# fails on a new unread export.
define UNUSED_AWK
# .mli files first: every "val v" of module M, in file order.
FNR == 1 {
  m = FILENAME; sub(/.*\//, "", m); sub(/\.mli?$$/, "", m)
  m = toupper(substr(m, 1, 1)) substr(m, 2)
}
FILENAME ~ /\.mli$$/ {
  if (match($$0, /^val [a-z_][A-Za-z0-9_']*/)) {
    v = substr($$0, 5, RLENGTH - 4); n++; mod[n] = m; val[n] = v
    own[n] = FILENAME; sub(/i$$/, "", own[n])
  }
  next
}
# Then each .ml file: what it aliases, opens, qualifies and names.
FNR == 1 { files[++nf] = FILENAME }
{
  f = FILENAME; s = $$0
  # module A = X.Mod  =>  alias[f, Mod] holds A
  if (match(s, /module +[A-Z][A-Za-z0-9_']* *= *[A-Z][A-Za-z0-9_'.]*/)) {
    a = substr(s, RSTART, RLENGTH); sub(/^module +/, "", a)
    t = a; sub(/ *=.*/, "", a); sub(/.*[=.] */, "", t)
    alias[f, t] = alias[f, t] " " a
  }
  # open X.Mod, let open Mod in, Mod.( ... )
  t = s
  while (match(t, /open!? +[A-Z][A-Za-z0-9_'.]*|[A-Z][A-Za-z0-9_']*\.\(/)) {
    o = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
    sub(/\.\($$/, "", o); sub(/.*[ .]/, "", o); opened[f, o] = 1
  }
  # X.Mod.v  =>  used[f, Mod, v]
  t = s
  while (match(t, /([A-Z][A-Za-z0-9_']*\.)+[a-z_][A-Za-z0-9_']*/)) {
    q = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
    v = q; sub(/.*\./, "", v); sub(/\.[^.]*$$/, "", q); sub(/.*\./, "", q)
    used[f, q, v] = 1
  }
  # every lowercase word, for the files that open Mod
  t = s
  while (match(t, /[a-z_][A-Za-z0-9_']*/)) {
    word[f, substr(t, RSTART, RLENGTH)] = 1; t = substr(t, RSTART + RLENGTH)
  }
  # field access: in a dotted chain, each lowercase part after the
  # first lowercase part (or after a leading dot: `(e).f`)
  t = s
  while (match(t, /[A-Za-z0-9_'.]*\.[a-z_][A-Za-z0-9_'.]*/)) {
    k = split(substr(t, RSTART, RLENGTH), ps, ".")
    t = substr(t, RSTART + RLENGTH)
    low = (ps[1] == "")
    for (l = 1; l <= k; l++)
      if (ps[l] ~ /^[a-z_]/) { if (low) fused[f, ps[l]] = 1; low = 1 }
  }
  # record syntax: a slot inside braces naming [M.]f, then = ; or }
  if (FNR == 1) { depth = 0; slot = 0; pend = "" }
  if (depth > 0) slot = 1
  t = s
  gsub(/"([^"\\]|\\.)*"|'([^'\\]|\\.)'/, " ", t)
  while (match(t, /[A-Za-z_][A-Za-z0-9_'.]*|=+|[^ \t]/)) {
    tok = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
    if (pend != "" && (tok == "=" || tok == ";" || tok == "}"))
      fused[f, pend] = 1
    pend = ""
    if (tok == "{") { depth++; slot = 1 }
    else if (tok == "}") { if (depth > 0) depth--; slot = 0 }
    else if (tok == ";" || tok == "with") slot = (depth > 0)
    else {
      if (slot && tok ~ /^([A-Z][A-Za-z0-9_']*\.)*[a-z_][A-Za-z0-9_']*$$/) {
        pend = tok; sub(/.*\./, "", pend)
      }
      slot = 0
    }
  }
}
END {
  for (i = 1; i <= n; i++) {
    m = mod[i]; v = val[i]; hit = 0
    for (j = 1; j <= nf && !hit; j++) {
      f = files[j]
      if (f == own[i]) continue
      if (used[f, m, v] || (opened[f, m] && word[f, v])) hit = 1
      k = split(alias[f, m], as, " ")
      for (l = 1; l <= k && !hit; l++) if (used[f, as[l], v]) hit = 1
    }
    if (!hit) print m "." v
  }
  for (i = 1; i <= nfld; i++) {
    m = fmod[i]; v = fname[i]; hit = 0
    for (j = 1; j <= nf && !hit; j++) {
      f = files[j]
      if (f == fown[i]) continue
      if (fused[f, v] || used[f, m, v] || (opened[f, m] && word[f, v])) hit = 1
      k = split(alias[f, m], as, " ")
      for (l = 1; l <= k && !hit; l++) if (used[f, as[l], v]) hit = 1
    }
    if (!hit) print m "." v " (field)"
  }
}
endef
export UNUSED_AWK

unused:
	@out=$$(awk "$$FIELDS_AWK$$UNUSED_AWK" lib/*/*.mli $$(find lib bench bin test examples -name '*.ml')) || exit 1; \
	if [ -n "$$out" ]; then printf '%s\n' "$$out"; exit 1; fi

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
HOST_FIGURES = s/wall=[0-9.]+s/wall=_/g; s/top_heap=[0-9]+MB/top_heap=_/g

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

# Host cost against another revision, in interleaved pairs (host CPU
# time drifts too much between separate runs to resolve a 25% change):
#   make perf-ab BASE=<rev> W=<workload> N=<pairs>
# builds clouds_perf from `git archive BASE` under _build/perf-ab and
# hands both binaries to bench/perf_ab.sh.
BASE ?= HEAD
W ?= commit
N ?= 8

perf-ab:
	dune build bench/perf/clouds_perf.exe
	rm -rf _build/perf-ab && mkdir -p _build/perf-ab
	git archive $(BASE) | tar -x -C _build/perf-ab
	cd _build/perf-ab && DUNE_CACHE=disabled dune build --root . bench/perf/clouds_perf.exe
	sh bench/perf_ab.sh _build/perf-ab/_build/default/bench/perf/clouds_perf.exe \
	  _build/default/bench/perf/clouds_perf.exe $(W) $(N)

clean:
	dune clean
