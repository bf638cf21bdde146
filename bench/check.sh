#!/usr/bin/env bash
# Checks the benchmark itself: BENCHMARK.json is well-formed, and two full
# sets of runs of the same code, with the same seed, agree — every
# end-to-end metric within its own bound, every count metric exactly.
#
#   bench/check.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."

validate() {
    python3 - <<'EOF'
import json, re, sys

spec = json.load(open("BENCHMARK.json"))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
errors = []
seen = set()

def name(n):
    if not name_ok.match(n):
        errors.append(f"bad name {n!r}")
    if n in seen:
        errors.append(f"name {n!r} used twice")
    seen.add(n)

if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
    errors.append(f"unexpected keys {sorted(spec)}")
if spec["paths"] != ["bench"]:
    errors.append("paths must be [\"bench\"]")
for w in spec["workloads"]:
    name(w["name"])
    why = w.get("why", "")
    if set(w) != {"name", "why"} or not why or "\n" in why or len(why) > 200:
        errors.append(f"workload {w.get('name')!r} needs a one-line reason of at most 200 characters")
for m in spec["end_to_end"]:
    name(m["name"])
    if set(m) != {"name", "unit", "better", "bound"}:
        errors.append(f"end-to-end metric {m['name']!r} needs exactly name, unit, better, bound")
    elif not (unit_ok.match(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25):
        errors.append(f"end-to-end metric {m['name']!r}: bad unit, direction or bound")
for m in spec["per_layer"]:
    name(m["name"])
    if set(m) != {"name", "unit", "better"} or not unit_ok.match(m["unit"]) or m["better"] not in ("lower", "higher"):
        errors.append(f"per-layer metric {m['name']!r} needs exactly name, unit, better")
setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
    errors.append("setup_s (s, lower) must be an end-to-end metric")
elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
    errors.append("setup_s must carry the largest bound")
for e in errors:
    print("check.sh: BENCHMARK.json:", e, file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
}

compare() {
    python3 - "$1" "$2" <<'EOF'
import json, sys

spec = json.load(open("BENCHMARK.json"))
first, second = (json.loads(open(p).read().strip().splitlines()[-1]) for p in sys.argv[1:3])
problems = []
for run in (first, second):
    if list(run)[-1] != "claim" or run["claim"] is not None:
        problems.append("the summary's last field must be \"claim\": null")
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
for w in (w["name"] for w in spec["workloads"]):
    a, b = first["results"][w], second["results"][w]
    for side in (a, b):
        for half in ("end_to_end", "per_layer"):
            if not side[half]["correct"]:
                problems.append(f"{w}: {half} run reported correct = false")
    if set(a["end_to_end"]["metrics"]) != set(bounds) or set(a["per_layer"]["metrics"]) != {m["name"] for m in spec["per_layer"]}:
        problems.append(f"{w}: printed metrics differ from BENCHMARK.json")
    for name, bound in bounds.items():
        x, y = (r["end_to_end"]["metrics"][name]["value"] for r in (a, b))
        gap = abs(x - y) / abs(x) if x else float("inf")
        verdict = "ok" if gap <= bound else "OVER"
        print(f"{w:<14} {name:<24} {x:>14.4f} {y:>14.4f}  gap {gap:6.1%}  bound {bound:4.0%}  {verdict}")
        if gap > bound:
            problems.append(f"{w}: {name} differs by {gap:.1%} between two runs of the same code (bound {bound:.0%})")
    for name in sorted(counts):
        x, y = (r["per_layer"]["metrics"][name]["value"] for r in (a, b))
        if x != y:
            problems.append(f"{w}: count {name} did not repeat: {x} vs {y}")
for p in problems:
    print("check.sh:", p, file=sys.stderr)
print("check.sh:", "FAILED" if problems else "two sets of runs agree; counts repeat exactly")
sys.exit(1 if problems else 0)
EOF
}

validate
mkdir -p bench/out
bench/run.sh "$@" | tee bench/out/check-1.txt
bench/run.sh "$@" | tee bench/out/check-2.txt
compare bench/out/check-1.txt bench/out/check-2.txt
