#!/usr/bin/env bash
# Paired benchmark runs of a base revision against this checkout: the recipe
# of the choosing-metrics method (alternate the sides, medians and quartiles,
# wins per pair) that every performance PR needs, and the pipeline's
# acceptance rule as one local command.
#
#   scripts/benchpair.sh BASE WORKLOAD [N]     (make bench-pair BASE=… WORKLOAD=… N=…)
#   SIM=identical scripts/benchpair.sh …        (make bench-pair … SIM=identical)
#
# BASE is any git revision; it is exported into a temporary directory and
# built there by its own bench/run.sh, so both sides run the driver's exact
# command on seeds 1..N, ~25 s a pair. The checkout's working tree is the
# "change" side, uncommitted edits included. WORKLOAD is one of
# BENCHMARK.json's workloads, or "all" for each of them in turn. The exit
# status is 1, and the metric is named, when any end-to-end median of the
# change is worse than the base's by more than the metric's BENCHMARK.json
# bound, or the change's own runs spread wider than that bound of the base's
# median. With SIM=identical it is also 1, naming the first (workload, seed,
# metric), when a sim_* value of the change differs from the base's as
# printed: the contract of a host-only change, which moves no simulated event
# and which medians and bounds cannot check. Needs only git, tar, awk, sort.
set -euo pipefail
base=${1:?usage: scripts/benchpair.sh BASE WORKLOAD|all [N]}
workloads=${2:?usage: scripts/benchpair.sh BASE WORKLOAD|all [N]}
n=${3:-10}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

# From the benchmark's own declaration: "METRIC BETTER BOUND" per metric
# (BOUND is - where none is declared), and the workloads in order.
awk '/"name":/ { gsub(/[",]/, ""); name = $2 }
     /"better":/ { gsub(/[",]/, ""); better[name] = $2; order[++nm] = name }
     /"bound":/ { gsub(/[",]/, ""); bound[name] = $2 }
     END { for (i = 1; i <= nm; i++) print order[i], better[order[i]], (order[i] in bound) ? bound[order[i]] : "-" }
' "$root/BENCHMARK.json" >"$tmp/declared"
if [ "$workloads" = all ]; then
	workloads=$(awk '/"workloads":/ { on = 1 } on && /"name":/ { gsub(/[",]/, ""); print $2 } on && /\]/ { exit }' "$root/BENCHMARK.json")
fi

# one SIDE DIR SEED: run the workload once, print "SIDE SEED METRIC VALUE" lines.
one() {
	local out
	out=$(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 10 --trace 0 | tail -n 1)
	case $out in
	*'"failed":0,'*) ;;
	*) echo "benchpair: $1 seed $3 did not finish clean: $out" >&2; exit 1 ;;
	esac
	grep -o '"[a-z_0-9]*":{"value":[^,]*' <<<"$out" |
		sed -e 's/^"//' -e 's/":{"value":/ /' -e "s/^/$1 $3 /"
}

status=0
for workload in $workloads; do
	for seed in $(seq 1 "$n"); do
		echo "$workload: pair $seed/$n" >&2
		if ((seed % 2)); then
			one base "$tmp/base" "$seed"
			one change "$root" "$seed"
		else
			one change "$root" "$seed"
			one base "$tmp/base" "$seed"
		fi
	done >"$tmp/runs"

	if [ "${SIM:-}" = identical ]; then
		awk -v workload="$workload" '
$3 !~ /^sim_/ { next }
$1 == "base" { base[$2, $3] = $4 }
$1 == "change" { change[$2, $3] = $4; if (!(($2, $3) in seen)) { seen[$2, $3] = 1; seed[++n] = $2; metric[n] = $3 } }
END {
	for (i = 1; i <= n; i++) {
		b = base[seed[i], metric[i]]; c = change[seed[i], metric[i]]
		if ((b "") != (c "")) { printf "SIM DIFFERS %s seed %s %s: base %s, change %s\n", workload, seed[i], metric[i], b, c; exit 1 }
	}
}' "$tmp/runs" || status=1
	fi

	sort -k3,3 -k1,1 -k4,4g "$tmp/runs" | awk -v workload="$workload" -v base="$base" '
function quantile(v, n, q,    h, i) { h = (n - 1) * q + 1; i = int(h); return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i]) }
function flush() {
	if (cnt == 0) return
	med[metric, curside] = quantile(vals, cnt, 0.5)
	lo[metric, curside] = quantile(vals, cnt, 0.25); hi[metric, curside] = quantile(vals, cnt, 0.75)
	cnt = 0
}
FNR == NR { better[$1] = $2; bound[$1] = $3; next }
{
	if ($3 != metric || $1 != curside) { flush(); metric = $3; curside = $1; if (!(metric in seen)) { seen[metric] = 1; order[++nm] = metric } }
	vals[++cnt] = $4; val[$3, $1, $2] = $4
	if (!($2 in seeds)) { seeds[$2] = 1; pairs++ }
}
END {
	flush()
	printf "%s, base %s: median [q1, q3] over %d pairs; wins = pairs the change is better in\n", workload, base, pairs
	printf "%-22s %34s %34s %8s %6s\n", "metric", "base", "change", "delta", "wins"
	for (i = 1; i <= nm; i++) {
		m = order[i]; wins = 0; ties = 0
		for (s in seeds) {
			b = val[m, "base", s]; c = val[m, "change", s]
			if (b == c) ties++
			else if ((better[m] == "higher") == (c > b)) wins++
		}
		delta = med[m, "base"] != 0 ? sprintf("%+.1f%%", 100 * (med[m, "change"] / med[m, "base"] - 1)) : "n/a"
		printf "%-22s %12.6g [%9.6g,%9.6g] %12.6g [%9.6g,%9.6g] %8s %3d/%d%s\n", m,
			med[m, "base"], lo[m, "base"], hi[m, "base"], med[m, "change"], lo[m, "change"], hi[m, "change"],
			delta, wins, pairs, ties ? sprintf(" (%d ties)", ties) : ""
	}
	# The acceptance rule: no median worse than the base by more than its
	# bound, and no metric of the change spread wider (q3 - q1) than that same
	# bound of the base median - an absolute width, which a metric that
	# improves n-fold has to be n times steadier to stay inside.
	for (i = 1; i <= nm; i++) {
		m = order[i]
		if (bound[m] == "-" || bound[m] == "") continue
		worse = better[m] == "higher" ? med[m, "change"] < med[m, "base"] * (1 - bound[m]) : med[m, "change"] > med[m, "base"] * (1 + bound[m])
		if (worse) {
			printf "REGRESSION %s %s: median %g -> %g is worse by more than its bound of %g%%\n", workload, m, med[m, "base"], med[m, "change"], 100 * bound[m]
			bad = 1
		}
		if (hi[m, "change"] - lo[m, "change"] > bound[m] * med[m, "base"]) {
			printf "UNSTEADY %s %s: the quartiles of the change are %g apart, over %g (%g%% of the base median %g)\n", workload, m, hi[m, "change"] - lo[m, "change"], bound[m] * med[m, "base"], 100 * bound[m], med[m, "base"]
			bad = 1
		}
	}
	exit bad
}' "$tmp/declared" - || status=1
done
exit $status
