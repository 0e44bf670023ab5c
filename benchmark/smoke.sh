#!/usr/bin/env bash
# Smoke check of the benchmark package: format, lints, unit tests, and a
# --quick run of all four workloads (untraced and traced) whose output
# must parse and list exactly the names in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --quiet
mkdir -p out
./run.sh --list > out/smoke.list.txt
./run.sh --quick --seed 1 > out/smoke.untraced.txt
./run.sh --quick --seed 1 --trace > out/smoke.traced.txt
python3 - <<'PY'
import json

spec = json.load(open("../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]

def results(path):
    rows = [json.loads(l) for l in open(path) if l.startswith("{")]
    assert len(rows) == len(workloads), f"{path}: {len(rows)} results for {len(workloads)} workloads"
    return rows

for path, key in (("out/smoke.untraced.txt", "end_to_end"), ("out/smoke.traced.txt", "per_layer")):
    want = {m["name"]: m["unit"] for m in spec[key]}
    for workload, row in zip(workloads, results(path)):
        assert set(row) == {"correct", "attempted", "failed", "metrics"}, (workload, sorted(row))
        assert row["correct"] is True and row["failed"] == 0 and row["attempted"] >= 1, (workload, row)
        got = {name: m["unit"] for name, m in row["metrics"].items()}
        assert got == want, (workload, key, sorted(set(got) ^ set(want)))
        if key == "end_to_end":
            assert all(m["value"] > 0 for m in row["metrics"].values()), (workload, row["metrics"])

listed = open("out/smoke.list.txt").read().split()
for key in ("workloads", "end_to_end", "per_layer"):
    for entry in spec[key]:
        assert entry["name"] in listed, f"--list lacks {entry['name']}"
print(f"smoke: {len(workloads)} workloads, {len(spec['end_to_end'])} end-to-end and "
      f"{len(spec['per_layer'])} per-layer metrics agree with BENCHMARK.json")
PY
