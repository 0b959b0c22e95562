"""Summarize benchmark runs and compare two summaries.

    python3 perfbench/compare.py summarize .perfbench/*.json > summary.json
    python3 perfbench/compare.py diff BASE_SUMMARY NEW_SUMMARY

A summary holds, per workload and metric, the value of every run keyed by
seed, plus the provenance the runs share.  Runs are only paired when their
environment matches: the Python and numpy versions, whether the numba
flood kernel was on (it changes the kernel by orders of magnitude), the
processor count, the run length and the input scale.  `summarize` refuses
runs that differ in any of these, and `diff` refuses two summaries that do.

`diff` reports, for each end-to-end metric of BENCHMARK.json and each
workload, both medians, the change as a share of the base median, the
base's spread (interquartile range over median), and a verdict: worse
than the bound allows, unresolved (the base spread is wider than the
bound), or within the bound.  It also counts the paired seeds on which
the new run is better.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENVIRONMENT = ("python", "numpy", "numba_enabled", "nproc", "seconds", "scale")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class ProvenanceMismatch(ValueError):
    pass


def _environment(prov: dict) -> dict:
    return {k: prov.get(k) for k in ENVIRONMENT}


def _require_same(a: dict, b: dict, what: str) -> None:
    diff = {k: (a.get(k), b.get(k)) for k in set(a) | set(b) if a.get(k) != b.get(k)}
    if diff:
        raise ProvenanceMismatch(f"{what}: provenance differs: {diff}")


def summarize(reports: list[dict]) -> dict:
    env = None
    sources: dict[str, set] = {"commit": set(), "src_sha256": set()}
    workloads: dict = {}
    for rep in reports:
        prov = rep["provenance"]
        if env is None:
            env = _environment(prov)
        _require_same(env, _environment(prov), f"{prov['workload']} seed {prov['seed']}")
        for key in sources:
            sources[key].add(prov.get(key))
        if len(sources["src_sha256"]) > 1:
            raise ProvenanceMismatch(f"runs of different sources: {sorted(sources['src_sha256'])}")
        per_workload = workloads.setdefault(prov["workload"], {})
        for name, m in rep["summary"]["metrics"].items():
            entry = per_workload.setdefault(name, {"unit": m["unit"], "by_seed": {}})
            entry["by_seed"][str(prov["seed"])] = m["value"]
        errors = per_workload.setdefault("failed_jobs", {"unit": "count", "by_seed": {}})
        seed = str(prov["seed"])
        errors["by_seed"][seed] = errors["by_seed"].get(seed, 0) + rep["summary"]["failed"]
    for per_workload in workloads.values():
        for entry in per_workload.values():
            vals = list(entry["by_seed"].values())
            entry["median"] = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else 0.0
    return {
        "environment": env,
        **{k: sorted(v) for k, v in sources.items()},
        "workloads": workloads,
    }


def diff(base: dict, new: dict, bench: dict) -> list[str]:
    _require_same(base["environment"], new["environment"], "base and new")
    lines = []
    for metric in bench["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        for workload in sorted(base["workloads"]):
            b = base["workloads"][workload].get(name)
            n = new["workloads"].get(workload, {}).get(name)
            if b is None or n is None:
                lines.append(f"{workload:15s} {name:14s} missing on one side")
                continue
            change = (n["median"] - b["median"]) / b["median"]
            worse = change if lower else -change
            seeds = set(b["by_seed"]) & set(n["by_seed"])
            wins = sum(
                (n["by_seed"][s] < b["by_seed"][s]) if lower else (n["by_seed"][s] > b["by_seed"][s])
                for s in seeds
            )
            spread = b.get("spread", 0.0)
            if worse > bound:
                verdict = "WORSE than bound"
            elif spread > bound:
                verdict = "unresolved (base spread wider than bound)"
            else:
                verdict = "within bound"
            lines.append(
                f"{workload:15s} {name:14s} base {b['median']:.6g} new {n['median']:.6g} "
                f"{metric['unit']}  change {change:+.2%} (bound {bound:.0%}, base spread "
                f"{spread:.2%})  better on {wins}/{len(seeds)} paired seeds  {verdict}"
            )
    return lines


def main(argv: list[str]) -> int:
    try:
        if len(argv) >= 2 and argv[0] == "summarize":
            reports = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:]]
            print(json.dumps(summarize(reports), indent=1, sort_keys=True))
            return 0
        if len(argv) == 3 and argv[0] == "diff":
            base, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
            bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
            print("\n".join(diff(base, new, bench)))
            return 0
    except ProvenanceMismatch as exc:
        print(f"refusing to pair runs: {exc}", file=sys.stderr)
        return 3
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
