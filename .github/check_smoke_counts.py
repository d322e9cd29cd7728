"""Compares `cqbench run all --smoke` allocation counts with the committed
ones.

Reads the result lines of smoke runs on stdin and fails, printing both
values, when a workload's `allocs_per_op` or `alloc_kib_per_op` differs
from `.github/cqbench_smoke_counts.json` (seed → workload → metric), or
when a seed or workload listed there did not run. Both counts are exact,
so any difference is a change in what the program asks the allocator
for; a change that moves one updates the file.

    for seed in 101 102 103; do
      cargo run --release -q --manifest-path cqbench/Cargo.toml -- \
        run all --smoke --seed "$seed"
    done | python3 .github/check_smoke_counts.py
"""

import json
import sys

want = json.load(open(".github/cqbench_smoke_counts.json"))
seen, diffs = set(), []
for line in sys.stdin:
    if not line.startswith('{"workload"'):
        continue
    run = json.loads(line)
    seed, workload = str(run["seed"]), run["workload"]
    seen.add((seed, workload))
    for metric, expected in want.get(seed, {}).get(workload, {}).items():
        got = run["metrics"][metric]["value"]
        if got != expected:
            diffs.append(f"seed {seed} {workload} {metric}: committed {expected}, now {got}")
missing = [(s, w) for s, runs in want.items() for w in runs if (s, w) not in seen]
diffs += [f"seed {s} {w}: did not run" for s, w in missing]
print("\n".join(diffs) or f"{len(seen)} smoke runs match the committed counts")
sys.exit(1 if diffs else 0)
