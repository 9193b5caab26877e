#!/bin/sh
# Interleaved A/B of clouds_perf's host figures for one workload:
#
#   sh bench/perf_ab.sh BASE_EXE NEW_EXE WORKLOAD PAIRS
#
# Each pair runs `clouds_perf bench --workload W --seed 1 --seconds 0
# --trace 0` once with each binary (three child runs each, their
# median reported), the base first on odd pairs and the new one first
# on even pairs.  Host CPU time drifts by tens of percent over minutes
# on a shared machine, so only runs taken side by side compare: the
# script prints every pair's host_s ratio as it lands, then each
# side's median and quartiles of host_s, setup_s and peak_rss_mb over
# the pairs, and the ratio of the medians.  It also compares each
# pair's simulated figures (correct, failed, sim_mean_ms, sim_p99_ms,
# sim_tput), which are seed-deterministic: it names every pair where
# the two sides differ and then exits 1, so an A/B of a change meant
# to leave the simulation alone doubles as its byte-identity check.
# `make perf-ab` builds the base binary and calls this.
set -eu
[ $# -eq 4 ] || { echo "usage: $0 BASE_EXE NEW_EXE WORKLOAD PAIRS" >&2; exit 2; }
base=$1 new=$2 workload=$3 pairs=$4

# Two lines for one run of [exe]: "host_s setup_s peak_rss_mb ", then
# its simulated figures as printed.
run() {
  r=$("$1" bench --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1)
  case $r in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "$1: a check failed or operations failed: $r" >&2 ;;
  esac
  for m in host_s setup_s peak_rss_mb; do
    printf '%s\n' "$r" | sed -E 's/.*"'$m'": \{"value": ([-+.0-9eE]+).*/\1/'
  done | tr '\n' ' '
  echo
  printf '%s\n' "$r" | sed -E 's/.*"correct": ([a-z]+).*/correct=\1/' | tr '\n' ' '
  printf '%s\n' "$r" | sed -E 's/.*"failed": ([0-9]+).*/failed=\1/' | tr '\n' ' '
  for m in sim_mean_ms sim_p99_ms sim_tput; do
    printf '%s\n' "$r" | sed -E 's/.*"'$m'": \{"value": ([-+.0-9eE]+).*/'$m'=\1/'
  done | tr '\n' ' '
  echo
}

results=$(mktemp)
trap 'rm -f "$results"' EXIT
differ=0
i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    b=$(run "$base"); n=$(run "$new")
  else
    n=$(run "$new"); b=$(run "$base")
  fi
  bsim=$(printf '%s\n' "$b" | tail -n 1); nsim=$(printf '%s\n' "$n" | tail -n 1)
  if [ "$bsim" != "$nsim" ]; then
    printf 'pair %d  simulated figures differ\n  base %s\n  new  %s\n' "$i" "$bsim" "$nsim"
    differ=1
  fi
  b=$(printf '%s\n' "$b" | head -n 1); n=$(printf '%s\n' "$n" | head -n 1)
  echo "$b$n" >> "$results"
  echo "$b$n" | awk -v i="$i" '{
    printf "pair %d  host_s base %.3f new %.3f  ratio %.3f\n", i, $1, $4, $4 / $1 }'
  i=$((i + 1))
done

# One line per pair: base host_s setup_s peak_rss_mb, then new's.
awk -v workload="$workload" '
# The q-quantile of a[1..k], interpolating between order statistics.
function quantile(a, k, q,   i, j, x, b, r) {
  for (i = 1; i <= k; i++) b[i] = a[i]
  for (i = 2; i <= k; i++) {
    x = b[i]
    for (j = i - 1; j >= 1 && b[j] > x; j--) b[j + 1] = b[j]
    b[j + 1] = x
  }
  r = 1 + q * (k - 1); i = int(r)
  return (i >= k) ? b[k] : b[i] + (r - i) * (b[i + 1] - b[i])
}
{ for (m = 1; m <= 6; m++) v[m, NR] = $m; if ($4 < $1) better++ }
END {
  printf "\n%s, %d pairs (new better on %d)\n", workload, NR, better
  printf "%-12s %22s %22s %7s\n", "", "base median [q1, q3]", "new median [q1, q3]", "ratio"
  split("host_s setup_s peak_rss_mb", names, " ")
  for (m = 1; m <= 3; m++) {
    for (k = 1; k <= NR; k++) { b[k] = v[m, k]; n[k] = v[m + 3, k] }
    mb = quantile(b, NR, 0.5); mn = quantile(n, NR, 0.5)
    printf "%-12s %7.3f [%6.3f, %6.3f] %7.3f [%6.3f, %6.3f] %7.3f\n", names[m],
      mb, quantile(b, NR, 0.25), quantile(b, NR, 0.75),
      mn, quantile(n, NR, 0.25), quantile(n, NR, 0.75), mn / mb
  }
}' "$results"
if [ "$differ" -ne 0 ]; then
  echo "simulated figures differ between base and new" >&2
  exit 1
fi
