"""The benchmark's workloads: input generation, the timed job, and an
independent reference for every output.

Every workload builds a list of cases from its seed; job i runs on case
``i % len(cases)``.  A job's output is correct when the workload's check
accepts it against the case's ``expected`` value, which comes from a route
other than the one the job times: the definitional watershed
(`morse_watershed_direct`) for the cut, and this module's own union-find
and minimum detection for the basin labels.

The jobs reach the library through module attributes looked up at call
time (``ws.morse_watershed``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from morseshed import cli, generate_torus, random_morse_stack
from morseshed import io as mio
from morseshed import watershed as ws


@dataclass
class Case:
    payload: object  # what the job consumes: stack text, a Stack, or a file path
    expected: object  # reference output, compared by the workload's check
    counts: dict[str, int]  # complexes.faces, complexes.facets, stacks.n_minima, watershed.cut_faces


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: int
    build: Callable[[random.Random, dict, Path], list[Case]]
    job: Callable[[Case, int], object]
    check: Callable[[Case, object], bool]


# -- independent reference ----------------------------------------------------


def reference_labels(F) -> dict[tuple[int, ...], int]:
    """Watershed labels from the definitional cut: 0 on the cut, otherwise
    the 1-based canonical rank of the one minimum in the face's component
    of the complement.  On a Morse stack the minima are the facets with no
    boundary face of equal altitude."""
    X, alt = F.host, F.altitude
    cut = ws.morse_watershed_direct(F).faces
    top = [x for x in X.faces if len(x) - 1 == X.dim]
    minima = sorted(
        x for x in top if all(alt[x[:i] + x[i + 1:]] != alt[x] for i in range(len(x)))
    )
    rank = {x: i for i, x in enumerate(minima, start=1)}

    parent = {x: x for x in X.faces if x not in cut}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y in parent:
        if len(y) == 1:
            continue
        for i in range(len(y)):
            z = y[:i] + y[i + 1:]
            if z in parent:
                rz, ry = find(z), find(y)
                if rz != ry:
                    parent[rz] = ry
    label_of_root: dict = {}
    for m in minima:
        r = find(m)
        if r in label_of_root:
            raise RuntimeError("reference cut leaves two minima in one component")
        label_of_root[r] = rank[m]
    labels = {x: 0 for x in cut}
    for x in parent:
        labels[x] = label_of_root.get(find(x), -1)  # -1: component without a minimum
    return labels


def labels_text(labels: dict) -> str:
    """The `face : W` / `face : <basin>` label format, in canonical order."""
    return "".join(
        " ".join(map(str, x)) + (" : W\n" if labels[x] == 0 else f" : {labels[x]}\n")
        for x in sorted(labels, key=lambda x: (len(x), x))
    )


def _counts(F, labels) -> dict[str, int]:
    X = F.host
    return {
        "complexes.faces": len(X.faces),
        "complexes.facets": sum(1 for x in X.faces if len(x) - 1 == X.dim),
        "stacks.n_minima": len(set(labels.values()) - {0}),
        "watershed.cut_faces": sum(1 for v in labels.values() if v == 0),
    }


def _random_stack(host, rng: random.Random, minima: int):
    return random_morse_stack(host, seed=rng.randrange(2**31), n_minima=minima)


# -- workloads ----------------------------------------------------------------


def _build_text_cases(stacks) -> list[Case]:
    cases = []
    for F in stacks:
        labels = reference_labels(F)
        cases.append(Case(mio.serialize_stack(F), labels_text(labels), _counts(F, labels)))
    return cases


def _build_flood_large(rng, size, work_dir):
    host = generate_torus(size["n"], size["n"])
    return _build_text_cases([_random_stack(host, rng, size["minima"])])


def _build_small_batch(rng, size, work_dir):
    hosts = {n: generate_torus(n, n) for n in size["sizes"]}
    stacks = []
    for k in range(size["stacks"]):
        n = size["sizes"][k % len(size["sizes"])]
        minima = size["minima"][(k // len(size["sizes"])) % len(size["minima"])]
        stacks.append(_random_stack(hosts[n], rng, minima))
    return _build_text_cases(stacks)


def _flood_job(case: Case, i: int) -> str:
    return mio.serialize_labels(ws.morse_watershed(mio.parse_stack(case.payload)))


def _build_collapse_route(rng, size, work_dir):
    host = generate_torus(size["n"], size["n"])
    cases = []
    for _ in range(size["stacks"]):
        F = _random_stack(host, rng, size["minima"])
        labels = reference_labels(F)
        cases.append(Case(F, labels, _counts(F, labels)))
    return cases


def _collapse_job(case: Case, i: int) -> dict:
    return ws.watershed_collapse(case.payload, seed=i).labels


def _run_cli(argv) -> tuple[int, str]:
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_job(case: Case, i: int) -> tuple:
    path = case.payload
    return _run_cli(["watershed", path, "--algo", "morse"]) + _run_cli(["msf", path, "--verify"])


def _msf_output_ok(text: str, n_facets: int, n_minima: int) -> bool:
    """A spanning forest rooted in the minima has facets - minima edges,
    its weight is the sum of its edge weights, and every check passed."""
    lines = text.splitlines()
    edges = [ln for ln in lines if " | " in ln]
    try:
        weights = [int(ln.rsplit(":", 1)[1]) for ln in edges]
    except ValueError:
        return False
    total = [ln for ln in lines if ln.startswith("total_weight=")]
    checks = [ln for ln in lines if ln.startswith("check_")]
    return (
        len(edges) == n_facets - n_minima
        and total == [f"total_weight={sum(weights)}"]
        and len(checks) == 5
        and all(ln.endswith("=True") for ln in checks)
    )


def _cli_check(case: Case, out) -> bool:
    """Both commands exit 0, the watershed labels equal the reference, and
    the MSF report is consistent with the stack."""
    rc_ws, out_ws, rc_msf, out_msf = out
    return (
        rc_ws == 0
        and rc_msf == 0
        and out_ws == case.expected
        and _msf_output_ok(out_msf, case.counts["complexes.facets"], case.counts["stacks.n_minima"])
    )


def _build_cli_verify(rng, size, work_dir):
    host = generate_torus(size["n"], size["n"])
    cases = []
    for k in range(size["stacks"]):
        F = _random_stack(host, rng, size["minima"])
        labels = reference_labels(F)
        path = work_dir / f"cli_verify_{k}.stack"
        path.write_text(mio.serialize_stack(F), encoding="utf-8")
        expected = labels_text(labels) + "# seed=0 algo=morse\n"
        cases.append(Case(str(path), expected, _counts(F, labels)))
    return cases


def _equal(case: Case, out) -> bool:
    return out == case.expected


# Jobs run in whole passes over the cases, and the job times of one case
# cluster together.  Each workload's case count and tail percentile are
# chosen so that the median and the tail rank (pct/100 * cases) fall
# inside one case's cluster, not on the boundary between two, and so that
# a run at the seed commit has at least twice ten jobs beyond the tail.
# The percentile is fixed rather than the highest one a run allows, so that
# runs with different job counts compare, and low enough that its
# run-to-run spread stays well within a third of the metric's bound.  The
# case count also averages out how much work a seed's stacks take.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flood_large",
            "parse, Morse flood and label output of one large stack: "
            "the main pipeline, where tuple/dict layers and parsing dominate",
            80, _build_flood_large, _flood_job, _equal,
        ),
        Workload(
            "collapse_route",
            "watershed by ultimate d-collapse on pre-parsed stacks: "
            "bypasses io and the array kernels, so flood-side changes must not move it",
            75, _build_collapse_route, _collapse_job, _equal,
        ),
        Workload(
            "cli_verify",
            "in-process CLI watershed plus msf --verify: what a CLI user pays, "
            "dominated by the verification oracles",
            75, _build_cli_verify, _cli_job, _cli_check,
        ),
        Workload(
            "small_batch",
            "hundreds of small stacks through the flood pipeline: "
            "per-call fixed cost, where array-first rewrites can lose",
            95, _build_small_batch, _flood_job, _equal,
        ),
    )
}

# Sizes for a measured run and for the benchmark's own tests.
SIZES = {
    "full": {
        "flood_large": {"n": 40, "minima": 20},
        "collapse_route": {"n": 24, "minima": 10, "stacks": 25},
        "cli_verify": {"n": 8, "minima": 5, "stacks": 25},
        # 11 sizes: equal shares, so the median is mid-cluster of n = 8
        "small_batch": {"sizes": list(range(3, 14)), "minima": [1, 2, 3, 4, 5], "stacks": 220},
    },
    "smoke": {
        "flood_large": {"n": 6, "minima": 3},
        "collapse_route": {"n": 5, "minima": 3, "stacks": 2},
        "cli_verify": {"n": 5, "minima": 4, "stacks": 2},
        "small_batch": {"sizes": [3, 4, 5], "minima": [1, 2, 3], "stacks": 9},
    },
}


def build_cases(name: str, seed: int, scale: str, work_dir: Path) -> list[Case]:
    """The cases of a workload; the same seed gives the same inputs."""
    return WORKLOADS[name].build(random.Random(seed), SIZES[scale][name], work_dir)
