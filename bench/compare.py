"""Compare two benchmark results files metric by metric.

    python3 bench/compare.py OLD.json NEW.json [--cross-host]

Either file may be one run's results (``.bench_out/results/*.json``) or a
``--report`` file holding several. Runs are matched by workload, seed and
trace flag. Each end-to-end metric is printed with its relative change and
flagged when it is worse by more than the bound in BENCHMARK.json.

Results from different hosts (another CPU model or core count) are not
comparable: the comparison is refused, and with ``--cross-host`` it is made
but every line says so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = [data] if "provenance" in data else list(data.values())
    return {(r["workload"], r["seed"], r["trace"]): r for r in runs}


def host(run: dict) -> tuple:
    p = run["provenance"]
    return p["cpu_model"], p["nproc"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark results files")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--cross-host", action="store_true", help="compare even if the hosts differ")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_runs(args.old), load_runs(args.new)
    hosts = {host(r) for r in [*old.values(), *new.values()]}
    tag = ""
    if len(hosts) > 1:
        if not args.cross_host:
            print(f"refusing to compare results from different hosts: {sorted(hosts)}; "
                  "pass --cross-host to compare anyway", file=sys.stderr)
            return 2
        tag = "  [cross-host]"
    worse_count = 0
    for key in sorted(old.keys() & new.keys()):
        for name, entry in old[key]["metrics"].items():
            if name not in new[key]["metrics"] or name not in metric_spec:
                continue
            a, b = entry["value"], new[key]["metrics"][name]["value"]
            m = metric_spec[name]
            change = (b - a) / a if a else 0.0
            worse = -change if m["better"] == "higher" else change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = f"  WORSE than bound {m['bound']}"
                worse_count += 1
            print(f"{key[0]:>16} trace={int(key[2])} {name:<44} {a:>14.6g} -> {b:<14.6g} "
                  f"{change:+8.2%} {m['unit']}{flag}{tag}")
    for key in sorted(old.keys() ^ new.keys()):
        print(f"{key[0]:>16} seed={key[1]} trace={int(key[2])}: only in one file")
    return 1 if worse_count else 0


if __name__ == "__main__":
    sys.exit(main())
