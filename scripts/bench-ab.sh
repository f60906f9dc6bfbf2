#!/usr/bin/env bash
# Interleaved A/B run of the repository's benchmark: the sweepbench command
# declared in BENCHMARK.json, built once at a base revision and once from the
# working tree.
#
#   scripts/bench-ab.sh BASE        # BASE: any git revision
#
# For every workload in BENCHMARK.json it runs five pairs (seeds 1-5, one
# pass per run, the side that runs first alternating between pairs). For
# every end-to-end metric it prints both sides' median and quartiles, the
# median of the per-pair ratios (change / base) and how many pairs the
# change won. It exits 1 when
#   - a change median is worse than the base median by more than the
#     metric's `bound` in BENCHMARK.json, in the direction of its `better`;
#   - a run prints no result line, or its result says "correct": false;
#   - the change fails a larger share of cell executions than the base.
# When sweepbench/ or BENCHMARK.json differ from BASE, the two sides would
# run different benchmarks, so it says so and exits 0 without measuring.
#
# The base is checked out as a git worktree under a temporary directory,
# which is removed on exit. Each side builds into its own sweepbench/target.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench-ab.sh BASE" >&2
    exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "$base^{commit}" > /dev/null; then
    echo "bench-ab: '$base' is not a commit" >&2
    exit 2
fi
if ! git diff --quiet "$base" -- sweepbench BENCHMARK.json; then
    echo "bench-ab: the benchmark changed since $base (sweepbench/ or BENCHMARK.json);" \
        "a benchmark change re-measures its baseline, so nothing is compared"
    exit 0
fi

readarray -t cmd < <(python3 -c 'import json
print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
readarray -t workloads < <(python3 -c 'import json
print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# A shared target directory would let the second build overwrite the first.
unset CARGO_TARGET_DIR
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" > /dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
# sweepbench finds golden/ and .work/ through its build-time manifest path,
# so the base worktree stays until the last run has finished.
declare -A tree=([base]="$tmp/base" [change]="$PWD")

for side in base change; do
    echo "bench-ab: building sweepbench ($side)" >&2
    if ! (cd "${tree[$side]}" &&
        cargo build --quiet --release --offline --manifest-path sweepbench/Cargo.toml); then
        echo "bench-ab: sweepbench does not build ($side)" >&2
        exit 1
    fi
done

results=$tmp/results.tsv
for w in "${workloads[@]}"; do
    for seed in 1 2 3 4 5; do
        if [ $((seed % 2)) = 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do
            out=$tmp/$side-$w-$seed.txt
            (cd "${tree[$side]}" &&
                "${cmd[@]}" --workload "$w" --seed "$seed" --seconds 1) > "$out" || true
            printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$seed" "$(tail -n 1 "$out")" >> "$results"
        done
        echo "bench-ab: $w seed $seed done ($order)" >&2
    done
done

python3 - "$base" "$results" << 'PY'
import json
import statistics
import sys

base_rev, results = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
runs, failures = {}, []
for line in open(results):
    side, workload, seed, last = line.rstrip("\n").split("\t", 3)
    try:
        result = json.loads(last)
        result["metrics"]
    except (ValueError, KeyError, TypeError):
        failures.append(f"{workload} seed {seed} ({side}): no result line")
        continue
    if result.get("correct") is not True:
        failures.append(f'{workload} seed {seed} ({side}): "correct": false')
    runs[side, workload, int(seed)] = result


def num(x):
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(x) >= scale:
            return f"{x / scale:.4g}{suffix}"
    return f"{x:.4g}"


def spread(xs):
    """The median, and the median with its quartiles as text."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q2, f"{num(q2)} [{num(q1)}, {num(q3)}]"


print(f"bench-ab: base {base_rev} against the working tree, one pass per run")
print(f"{'workload':10} {'metric':17} {'base median [q1, q3]':>30} "
      f"{'change median [q1, q3]':>30} {'ratio':>6} {'won':>4} {'bound':>5}")
for w in (w["name"] for w in spec["workloads"]):
    seeds = [s for s in range(1, 6) if ("base", w, s) in runs and ("change", w, s) in runs]
    for m in spec["end_to_end"] if seeds else []:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        b = [runs["base", w, s]["metrics"][name]["value"] for s in seeds]
        c = [runs["change", w, s]["metrics"][name]["value"] for s in seeds]
        (b_med, b_text), (c_med, c_text) = spread(b), spread(c)
        ratio = statistics.median(y / x for x, y in zip(b, c))
        won = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        print(f"{w:10} {name:17} {b_text:>30} {c_text:>30} {ratio:6.3f} "
              f"{won:>2}/{len(seeds)} {bound:>5.0%}")
        worse = (c_med - b_med if lower else b_med - c_med) / b_med
        if worse > bound:
            failures.append(f"{w} {name}: the change's median {num(c_med)} is {worse:.1%} "
                            f"worse than the base's {num(b_med)} (bound {bound:.0%})")
    share, counts = {}, []
    for side in ("base", "change"):
        done = [runs[side, w, s] for s in range(1, 6) if (side, w, s) in runs]
        failed = sum(r["failed"] for r in done)
        attempted = sum(r["attempted"] for r in done)
        share[side] = failed / attempted if attempted else 0.0
        counts.append(f"{side} {failed}/{attempted}")
    print(f"{w:10} {'failed/attempted':17} {', '.join(counts)}")
    if share["change"] > share["base"]:
        failures.append(f"{w}: the change fails {share['change']:.2%} of cell executions, "
                        f"the base {share['base']:.2%}")

for f in failures:
    print(f"FAIL: {f}")
print("bench-ab: " + ("FAIL" if failures else "pass"))
sys.exit(1 if failures else 0)
PY
