"""The CLI's output on the fixture stacks and on seeded Morse stacks.

`cli_golden.json` holds, per stack, a digest of its text and, per
command, the exit code and a digest of the stdout that the CLI printed
while `msf --verify` still ran the dict-based oracles of `oracles`
(`export --format dot` while it still paired the top faces by their
face tuples).  The `msf --verify` report is also rebuilt from
`_ref_msf_checks`, that verification as it was.
`cli_golden_complexes.json` holds, per complex text (the fixture
complexes, TOR(3..8) and malformed texts), the exit code and digests of
the stdout and stderr of `validate` and `gen random-morse`, as printed
while `Complex` still built a face set before its arrays.
`python tests/test_cli_golden.py` rewrites both files from the code it
runs against.
"""

import contextlib
import hashlib
import io as stdio
import json
import sys
import tempfile
from pathlib import Path

from morseshed import cli, io
from morseshed.complexes import Complex
from morseshed.fixtures import (
    branching_collapse_counterexample,
    branching_triangles,
    cyc6_host,
    cyc6_stack,
    tetrahedron_boundary,
    wedge,
)
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.oracles import (
    _lightest_at_an_endpoint,
    build_facet_graph,
    is_rooted_forest,
    msf_is_unique,
    msf_weight,
    watershed_forest,
)
from morseshed.stacks import Stack, random_stack
from morseshed.watershed import WATERSHED_LABEL, morse_watershed

GOLDEN = Path(__file__).with_name("cli_golden.json")
GOLDEN_COMPLEXES = Path(__file__).with_name("cli_golden_complexes.json")

COMMANDS = {
    "watershed-morse": ["watershed", "--algo", "morse"],
    "watershed-collapse": ["watershed", "--algo", "collapse"],
    "msf": ["msf"],
    "msf-dot": ["msf", "--dot"],
    "msf-verify": ["msf", "--verify"],
    "export-dot": ["export", "--format", "dot"],
}

COMPLEX_COMMANDS = {  # the argv of each command on a complex file
    "validate": lambda path: ["validate", path],
    "gen-random-morse": lambda path: ["gen", "random-morse", path, "--seed", "3", "--minima", "4"],
}

MALFORMED_COMPLEX_TEXTS = {
    "descending": "0 1 2\n2 1 3\n",
    "negative": "0 1\n0 -1\n",
    "repeated": "0 1\n1 1 2\n",
    "int64-overflow": "0 1\n0 9223372036854775808\n",
    "bad-token": "0 1\n1 x\n",
}


def _ref_msf_checks(F, G, Y):
    """`forest._msf_checks` as it was before the certificate: the verdicts
    of the oracles on the tuple-keyed facet graph."""
    checks = {}
    checks["rooted"] = is_rooted_forest(set(Y.vertices), set(Y.edges), set(Y.roots))
    checks["weight"] = Y.weight(G) == msf_weight(G, Y.roots)
    checks["unique"] = msf_is_unique(G, Y.roots)
    X = F.host
    top_lo = int(X.packed().dim_offset[X.dim])
    label = morse_watershed(F)._label[top_lo:].tolist()  # the d-faces, in order
    index = {x: i for i, x in enumerate(X.faces_of_dim(X.dim))}
    ids = [{label[index[x]] for x in members} for members in Y.trees()]
    checks["basins"] = (
        WATERSHED_LABEL not in label
        and all(len(s) == 1 for s in ids)
        and len(set().union(*ids)) == len(ids)
    )
    checks["min_edge"] = _lightest_at_an_endpoint(G, Y.edges)
    return checks


def _cases():
    """(name, stack): the fixture stacks, Morse stacks on the fixture
    complexes, a stack that is not Morse, and seeded Morse stacks with
    1, 3 and 5 minima on TOR(3..8)."""
    yield "cyc6", cyc6_stack()
    yield "branching-counterexample", branching_collapse_counterexample()[0]
    yield "empty", Stack(Complex(()), {})
    yield "tetrahedron-not-morse", random_stack(tetrahedron_boundary(), seed=0, low=0, high=2)
    hosts = {
        "cyc6": cyc6_host(),
        "tetrahedron": tetrahedron_boundary(),
        "wedge": wedge(),
        "branch": branching_triangles(),
    }
    for name, X in hosts.items():
        for seed in range(2):
            yield f"{name}-morse-s{seed}", random_morse_stack(X, seed=seed, n_minima=1 + seed)
    for n in range(3, 9):
        X = generate_torus(n, n)
        for seed in range(3):
            yield f"tor{n}-s{seed}", random_morse_stack(X, seed=seed, n_minima=1 + 2 * seed)


def _complex_texts():
    """(name, text): the fixture complexes and TOR(3..8) as `gen`
    writes them, one with comments, blank lines and unsorted, repeated
    faces, and malformed texts."""
    hosts = {
        "cyc6": cyc6_host(),
        "tetrahedron": tetrahedron_boundary(),
        "wedge": wedge(),
        "branch": branching_triangles(),
        "branching-counterexample": branching_collapse_counterexample()[0].host,
        "empty": Complex(()),
        **{f"tor{n}": generate_torus(n, n) for n in range(3, 9)},
    }
    for name, X in hosts.items():
        yield name, io.serialize_complex(X)
    yield "loose-layout", "# two triangles\n\n0 2 3\n  0 1 2 \n1 2\n0 1 2\n"
    yield from MALFORMED_COMPLEX_TEXTS.items()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run(argv):
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _outputs(work_dir: Path):
    """(name, stack, its text, {command: (exit code, stdout)}) per case."""
    for name, F in _cases():
        text = io.serialize_stack(F)
        path = work_dir / f"{name}.stack"
        path.write_text(text, encoding="utf-8")
        runs = {
            cmd: _run([argv[0], str(path), *argv[1:]]) for cmd, argv in COMMANDS.items()
        }
        yield name, F, text, runs


def _complex_outputs(work_dir: Path):
    """(name, text, {command: "exit code, stdout digest, stderr digest"})
    per complex text."""
    for name, text in _complex_texts():
        path = work_dir / f"{name}.complex"
        path.write_text(text, encoding="utf-8")
        runs = {}
        for cmd, argv in COMPLEX_COMMANDS.items():
            out, err = stdio.StringIO(), stdio.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv(str(path)))
            runs[cmd] = f"{rc} {_digest(out.getvalue())} {_digest(err.getvalue())}"
        yield name, text, runs


def test_cli_output_matches_the_recorded_output(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names, verified = [], 0
    for name, F, text, runs in _outputs(tmp_path):
        assert golden[name]["stack"] == _digest(text), f"{name}: the input changed"
        for cmd, (rc, out) in runs.items():
            assert f"{rc} {_digest(out)}" == golden[name][cmd], (name, cmd)
        rc, _ = runs["msf-verify"]
        if rc != cli.EXIT_VALIDATION:  # a Morse stack on a pseudomanifold
            checks = _ref_msf_checks(F, build_facet_graph(F), watershed_forest(F))
            report = "".join(f"check_{k}={v}\n" for k, v in sorted(checks.items()))
            ok = cli.EXIT_OK if all(checks.values()) else cli.EXIT_VERIFICATION
            assert runs["msf-verify"] == (ok, runs["msf"][1] + report), name
            verified += 1
        names.append(name)
    assert sorted(names) == sorted(golden)
    assert verified >= 25


def test_complex_commands_match_the_recorded_output(tmp_path):
    golden = json.loads(GOLDEN_COMPLEXES.read_text(encoding="utf-8"))
    names = []
    for name, text, runs in _complex_outputs(tmp_path):
        assert golden[name] == {"complex": _digest(text), **runs}, name
        names.append(name)
    assert sorted(names) == sorted(golden)


def _write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            name: {"stack": _digest(text), **{c: f"{rc} {_digest(out)}" for c, (rc, out) in runs.items()}}
            for name, _, text, runs in _outputs(Path(tmp))
        }
        complexes = {
            name: {"complex": _digest(text), **runs}
            for name, text, runs in _complex_outputs(Path(tmp))
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    GOLDEN_COMPLEXES.write_text(
        json.dumps(complexes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    sys.exit(_write_golden())
