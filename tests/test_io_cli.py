import codecs
import os
import random
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import morseshed
from morseshed import cli, complexes, io, oracles, watershed
from morseshed.complexes import Complex, InvalidSimplexError, closure, face_key
from morseshed.fixtures import (
    branching_collapse_counterexample,
    branching_triangles,
    cyc6_host,
    cyc6_stack,
    tetrahedron_boundary,
    wedge,
)
from morseshed.manifolds import generate_torus
from morseshed.morse import classify, gradient, is_morse, random_morse_stack
from morseshed.stacks import Stack, StackError, _stack_from_array, random_stack, validate_stack
from morseshed.watershed import (
    WATERSHED_LABEL,
    WatershedResult,
    morse_watershed,
    watershed_collapse,
)


# -- text formats --------------------------------------------------------------


def test_complex_round_trip():
    X = closure([(0, 1, 2), (2, 3)])
    text = io.serialize_complex(X)
    assert io.parse_complex(text) == X
    # listing facets only is enough: the loader closes
    assert io.parse_complex("0 1 2\n2 3\n") == X


def test_complex_parse_errors():
    with pytest.raises(io.ParseError):
        io.parse_complex("bogus\n")
    with pytest.raises(io.ParseError):
        io.parse_complex("2 1\n")  # not ascending
    with pytest.raises(io.ParseError):
        io.parse_complex("0 0 1\n")  # duplicate vertex
    err = None
    try:
        io.parse_complex("0 1\n\n# comment\nxyz\n")
    except io.ParseError as exc:
        err = exc
    assert err is not None and err.lineno == 4


def test_stack_round_trip():
    F = cyc6_stack()
    text = io.serialize_stack(F)
    assert len(text.splitlines()) == 12
    G = io.parse_stack(text)
    assert G.host == F.host and dict(G.altitude) == dict(F.altitude)


def test_stack_round_trip_with_negative_and_sparse_altitudes():
    # altitudes spread wider than the face count take the per-face tag table,
    # a narrow range the table of lo..hi; both must read back exactly
    X = generate_torus(3, 3)
    F = random_morse_stack(X, seed=4, n_minima=3)
    alt = F.alt_array()
    for G in (
        _stack_from_array(X, alt * 1000 - 10**6),  # negative, range above len(X)
        _stack_from_array(X, alt - 40),  # negative, range within len(X)
        _stack_from_array(X, alt * 2**40 - 2**62),  # near the int64 bounds
        _stack_from_array(X, np.where(alt > 1, alt * 10**8, -(2**63))),
    ):
        text = io.serialize_stack(G)
        assert text == "".join(
            f"{' '.join(map(str, x))} : {v}\n" for x, v in zip(X.sorted_faces(), G.alt_array().tolist())
        )
        assert io.parse_stack(text) == G
        assert io.parse_stack("# line loop\n" + text) == G


def test_stack_parse_complete_max():
    text = "".join(
        f"{a} {b} : {v}\n"
        for (a, b), v in [
            ((0, 1), 0), ((1, 2), 1), ((2, 3), 2),
            ((3, 4), 0), ((4, 5), 1), ((0, 5), 2),
        ]
    )
    with pytest.raises(StackError):
        io.parse_stack(text)  # vertices missing without completion
    F = io.parse_stack(text, complete="max")
    assert F.altitude[(3,)] == 2  # max completion, not the fixture value
    assert [F.altitude[(v,)] for v in range(6)] == [2, 1, 2, 2, 1, 2]


def test_stack_parse_errors():
    with pytest.raises(io.ParseError):
        io.parse_stack("0 0 1 : 3\n")  # duplicate vertex
    with pytest.raises(io.ParseError):
        io.parse_stack("0 1 : x\n")  # bad altitude
    with pytest.raises(io.ParseError):
        io.parse_stack("0 1\n")  # missing colon
    with pytest.raises(io.ParseError):
        io.parse_stack("0 1 : 2\n0 1 : 3\n")  # conflicting values
    with pytest.raises(StackError):
        # vertex below its coface violates monotonicity
        io.parse_stack("0 1 : 5\n0 : 0\n1 : 5\n")
    with pytest.raises(StackError, match=r"\(0,\) is outside the int64 range"):
        io.parse_stack("0 : 9223372036854775808\n")
    with pytest.raises(io.ParseError, match="vertex id 9223372036854775808 .* int64"):
        io.parse_stack("0 9223372036854775808 : 0\n")


def _old_missing_face(text):
    """Reference: the face the loader named before it built the host
    straight from the listed faces (the least face of the closure that has
    no altitude), or None when the listed faces are closed."""
    faces = {io._read_face(ln.split(":")[0], 0) for ln in text.splitlines()}
    return min(closure(faces).faces - faces, key=face_key, default=None)


def test_stack_parse_names_the_missing_face():
    rng = random.Random(3)
    named = 0
    for n in (3, 4):
        text = io.serialize_stack(random_morse_stack(generate_torus(n, n), seed=n))
        lines = text.splitlines(keepends=True)
        for _ in range(10):
            kept = [ln for ln in lines if rng.random() > 0.1]
            rng.shuffle(kept)
            partial = "".join(kept)
            missing = _old_missing_face(partial)
            if missing is None:
                io.parse_stack(partial)
                continue
            with pytest.raises(StackError) as exc:
                io.parse_stack(partial)
            assert str(exc.value) == (
                f"no altitude for face {missing} (pass --complete=max to fill from facets)"
            )
            named += 1
    assert named >= 15


def test_gradient_round_trip():
    V = gradient(cyc6_stack())
    text = io.serialize_gradient(V)
    assert io.parse_gradient(text).pairs == V.pairs
    with pytest.raises(io.ParseError):
        io.parse_gradient("0 | 1 2\n")  # not a covering pair
    with pytest.raises(io.ParseError, match=re.escape("line 2: expected `x-face | y-face`")):
        io.parse_gradient("0 | 0 1\n0 0 1\n")


def test_labels_round_trip():
    r = morse_watershed(cyc6_stack())
    text = io.serialize_labels(r)
    lines = text.splitlines()
    assert len(lines) == 12
    assert sum(1 for ln in lines if ln.endswith(": W")) == 2
    assert io.parse_labels(text) == r.labels


def test_label_parse_errors_name_their_line():
    cases = {
        "0 : W\n# comment\n1 W\n": r"^line 3: expected `face : label`$",
        "0 : W\n\n1 : x\n": r"^line 3: bad label 'x'$",
        "0 : 1.5\n": r"^line 1: bad label '1.5'$",
        "0 : \n": r"^line 1: bad label ''$",
    }
    for text, message in cases.items():
        with pytest.raises(io.ParseError, match=message):
            io.parse_labels(text)
    assert io.parse_labels("0 : W\n1 : -2\n") == {(0,): WATERSHED_LABEL, (1,): -2}


# -- CLI -----------------------------------------------------------------------


@pytest.fixture()
def cyc6_file(tmp_path):
    p = tmp_path / "cyc6.stack"
    p.write_text(io.serialize_stack(cyc6_stack()))
    return str(p)


@pytest.fixture()
def wedge_file(tmp_path):
    p = tmp_path / "wedge.cplx"
    p.write_text(io.serialize_complex(wedge()))
    return str(p)


def test_cli_validate_wedge(capsys, wedge_file):
    assert cli.main(["validate", wedge_file]) == 0
    out = capsys.readouterr().out
    assert "is_normal=False" in out
    assert "witness_link_condition=(0,)" in out


def test_cli_check_stack(capsys, cyc6_file, tmp_path):
    assert cli.main(["check-stack", cyc6_file]) == 0
    out = capsys.readouterr().out
    assert "ok=True" in out and "morse=True" in out
    bad = tmp_path / "bad.stack"
    bad.write_text("0 1 : 5\n0 : 0\n1 : 5\n")
    assert cli.main(["check-stack", str(bad)]) == 3


def test_cli_check_stack_names_the_morse_witness(capsys, tmp_path):
    # a tied stack is a stack (exit 0) that is not Morse: the witness line
    # is `is_morse`'s witness
    F = random_stack(generate_torus(3, 3), seed=1, high=3)
    morse_ok, witness = is_morse(F)
    assert not morse_ok and witness in F.host.faces
    path = tmp_path / "tied.stack"
    path.write_text(io.serialize_stack(F))
    assert cli.main(["check-stack", str(path)]) == 0
    face = " ".join(map(str, witness))
    assert capsys.readouterr().out == f"ok=True\nmorse=False\nwitness_morse={face}\n"


def test_cli_minima(capsys, cyc6_file):
    assert cli.main(["minima", cyc6_file]) == 0
    out = capsys.readouterr().out
    assert "minimum 1 @ 0: 0 1" in out
    assert "minimum 2 @ 0: 3 4" in out
    assert "divide_faces=10" in out


def test_cli_critical(capsys, cyc6_file):
    assert cli.main(["critical", cyc6_file]) == 0
    out = capsys.readouterr().out
    assert "critical 0: 3" in out and "critical 1: 0 1" in out
    assert "regular_faces=8" in out


def _ref_critical_output(F):
    """The output of `morseshed critical` as it printed it after a separate
    Morse check: the witness of a non-Morse stack, else the critical faces
    by dimension and the count of regular faces."""
    ok, witness = is_morse(F)
    if not ok:
        return f"error=not a Morse stack (witness {' '.join(map(str, witness))})\n", 3
    rep = classify(F)
    lines = [f"critical {p}: {' '.join(map(str, x))}\n"
             for p in range(F.host.dim + 1) for x in rep.critical_of_dim(p)]
    return "".join(lines) + f"regular_faces={len(rep.regular)}\n", 0


def test_cli_critical_runs_one_morse_check(capsys, monkeypatch, tmp_path):
    from morseshed import _kernels

    stacks = [cyc6_stack(), random_stack(tetrahedron_boundary(), seed=4)]
    stacks += [random_stack(generate_torus(4, 4), seed=s, high=3) for s in range(3)]
    stacks += [random_morse_stack(generate_torus(5, 5), seed=s, n_minima=3) for s in range(3)]
    calls = {"flat_matching_offender": 0}
    _count_calls(monkeypatch, _kernels, "flat_matching_offender", calls)
    codes = []
    for i, F in enumerate(stacks):
        path = tmp_path / f"s{i}.stack"
        path.write_text(io.serialize_stack(F))
        expected, code = _ref_critical_output(io.parse_stack(path.read_text()))
        calls["flat_matching_offender"] = 0
        assert cli.main(["critical", str(path)]) == code
        assert capsys.readouterr().out == expected
        assert calls["flat_matching_offender"] == (1 if code == 0 else 2), i
        codes.append(code)
    assert 0 in codes and 3 in codes


def test_cli_reports_a_memory_error_on_one_line(capsys, monkeypatch):
    # numpy refuses a request this large at once; no real allocation here
    message = "Unable to allocate 2.18 TiB for an array with shape (200000000000, 3)"

    def refuse(n, m):
        raise MemoryError(message) if m > 3 else MemoryError

    monkeypatch.setattr(cli, "generate_torus", refuse)
    assert cli.main(["gen", "torus", "--n", "3", "--m", "100000000000"]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["gen", "torus"]) == cli.EXIT_USAGE  # a MemoryError without a message
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("morseshed ")]
    assert len(lines) == 13
    parser = cli.build_parser()
    for line in lines:
        argv = line.split("#", 1)[0].split(">", 1)[0].split()[1:]  # no comment, no redirection
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_cli_watershed_both_algorithms(capsys, cyc6_file):
    for algo in ("morse", "collapse"):
        assert cli.main(["watershed", cyc6_file, "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert "3 : W" in out and "5 : W" in out


def test_cli_watershed_is_deterministic(capsys, cyc6_file):
    cli.main(["watershed", cyc6_file, "--algo", "collapse", "--seed", "4"])
    first = capsys.readouterr().out
    cli.main(["watershed", cyc6_file, "--algo", "collapse", "--seed", "4"])
    assert capsys.readouterr().out == first


def test_cli_msf(capsys, cyc6_file):
    assert cli.main(["msf", cyc6_file, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "total_weight=6" in out
    assert out.count(" | ") == 4
    assert "check_unique=True" in out


def test_cli_msf_verify_builds_graph_and_forest_once(capsys, monkeypatch, tmp_path):
    F = random_morse_stack(generate_torus(6, 6), seed=2, n_minima=3)
    p = tmp_path / "t66.stack"
    p.write_text(io.serialize_stack(F))
    # the report the command printed when it verified through
    # verify_msf_theorem(F), rebuilding the graph and the forest
    G, Y = oracles.build_facet_graph(F), oracles.watershed_forest(F)
    expected = "".join(
        f"{' '.join(map(str, a))} | {' '.join(map(str, b))} : {G.edges[(a, b)]}\n"
        for a, b in sorted(Y.edges)
    )
    expected += f"total_weight={Y.weight(G)}\n"
    expected += "".join(
        f"check_{k}={v}\n" for k, v in sorted(watershed.verify_msf_theorem(F).items())
    )
    calls = {"build_facet_graph": 0, "watershed_forest": 0}

    def counting(name):
        original = getattr(oracles, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracles, name, counting(name))
    assert cli.main(["msf", str(p), "--verify"]) == 0
    assert capsys.readouterr().out == expected
    # the command reads the forest's masks: neither tuple object is built
    assert calls == {"build_facet_graph": 0, "watershed_forest": 0}


def test_cli_msf_verify_calls_no_oracle(capsys, monkeypatch, tmp_path):
    # the certificate decides every check on the arrays: neither a moved
    # oracle nor the dict-based union-find runs
    F = random_morse_stack(generate_torus(6, 6), seed=2, n_minima=3)
    p = tmp_path / "t66.stack"
    p.write_text(io.serialize_stack(F))
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("msf_weight", "msf_is_unique", "is_rooted_forest",
                 "_lightest_at_an_endpoint", "_contracted"):
        wrapper = counting(name, getattr(oracles, name))
        monkeypatch.setattr(oracles, name, wrapper)
        if hasattr(morseshed, name):
            monkeypatch.setattr(morseshed, name, wrapper)
    monkeypatch.setattr(
        oracles._UnionFind, "__init__", counting("_UnionFind", oracles._UnionFind.__init__)
    )
    assert cli.main(["msf", str(p), "--verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("=True\n") == 5
    assert calls == []
    oracles._UnionFind([1])  # the wrappers count
    assert calls == ["_UnionFind"]


def test_cli_builds_its_parser_once(capsys, monkeypatch, cyc6_file):
    builds = []
    build = cli.build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert cli.main(["msf", cyc6_file, "--dot"]) == 0
    assert "graph facets {" in capsys.readouterr().out
    assert cli.main(["msf", cyc6_file]) == 0  # no flag of the first call leaks
    out = capsys.readouterr().out
    assert "graph facets {" not in out and "check_" not in out
    assert cli.main(["msf", cyc6_file, "--bogus"]) == 1  # a usage error
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["msf", cyc6_file, "--verify"]) == 0
    assert "check_unique=True" in capsys.readouterr().out
    assert builds == [1]


def test_cli_msf_dot(capsys, cyc6_file):
    assert cli.main(["msf", cyc6_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert "graph facets {" in out and "style=bold" in out


def test_cli_gen_and_export(capsys, tmp_path):
    assert cli.main(["gen", "torus", "--n", "3", "--m", "3"]) == 0
    torus_text = capsys.readouterr().out
    p = tmp_path / "t33.cplx"
    p.write_text(torus_text)
    assert cli.main(["gen", "random-morse", str(p), "--seed", "1"]) == 0
    stack_text = capsys.readouterr().out
    sp = tmp_path / "t33.stack"
    sp.write_text(stack_text)
    assert cli.main(["export", str(sp), "--format", "dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count("[label=") == 18  # one node per triangle
    assert dot.count(" -- ") == 27


def test_cli_export_writes_the_watershed_labels_by_default(capsys, tmp_path):
    # `export` without --format prints the lines of `watershed --algo
    # morse`, less its closing `# seed=` line
    path = tmp_path / "t55.stack"
    path.write_text(io.serialize_stack(random_morse_stack(generate_torus(5, 5), seed=2, n_minima=3)))
    capsys.readouterr()
    assert cli.main(["export", str(path)]) == 0
    exported = capsys.readouterr().out
    assert cli.main(["watershed", str(path), "--algo", "morse"]) == 0
    *labels, seed = capsys.readouterr().out.splitlines(keepends=True)
    assert seed == "# seed=0 algo=morse\n" and exported == "".join(labels)
    assert exported.count(" : W\n") > 0


@pytest.mark.parametrize("what, parse, fixture", [
    ("cyc6", io.parse_stack, cyc6_stack),
    ("wedge", io.parse_complex, wedge),
    ("branch", io.parse_complex, branching_triangles),
])
def test_cli_gen_writes_each_fixture(capsys, what, parse, fixture):
    capsys.readouterr()
    assert cli.main(["gen", what]) == 0
    assert parse(capsys.readouterr().out) == fixture()


def test_cli_gen_random_morse_needs_a_complex_file(capsys):
    capsys.readouterr()
    assert cli.main(["gen", "random-morse"]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "gen random-morse needs a complex file\n")


def _pairwise_dot_edges(result):
    """Reference for the edge lines of the dot export: intersect every
    pair of top faces."""
    labels = result.labels
    d = max(len(x) - 1 for x in labels)
    tops = sorted((x for x in labels if len(x) - 1 == d), key=face_key)
    idx = {x: i for i, x in enumerate(tops)}
    lines = []
    for x in tops:
        for y in tops:
            if x < y and len(set(x) & set(y)) == d:
                shared = tuple(sorted(set(x) & set(y)))
                if shared in labels:
                    style = (
                        " [style=bold color=red]"
                        if labels[shared] == WATERSHED_LABEL
                        else ""
                    )
                    lines.append(f"  n{idx[x]} -- n{idx[y]}{style};")
    return lines


def test_export_dot_matches_pairwise_adjacency():
    results = [morse_watershed(cyc6_stack())]
    for n in (3, 4, 5, 6):
        F = random_morse_stack(generate_torus(n, n), seed=n, n_minima=3)
        results.append(morse_watershed(F))
    for r in results:
        dot = cli.export_labels(r, "dot")
        edges = [ln for ln in dot.splitlines() if " -- " in ln]
        assert edges == _pairwise_dot_edges(r)
        # one red edge per (d-1)-face of the cut
        d = max(len(x) - 1 for x in r.labels)
        red = [ln for ln in edges if ln.endswith(" [style=bold color=red];")]
        assert len(red) == sum(1 for z in r.watershed.faces if len(z) == d)


def test_export_labels_rejects_off_without_coordinates_and_unknown_formats():
    # the CLI reads the coordinates before it exports; a direct call checks them
    r = morse_watershed(cyc6_stack())
    with pytest.raises(ValueError, match="off export needs a vertex-coordinate sidecar file"):
        cli.export_labels(r, "off")
    with pytest.raises(ValueError, match="unknown export format 'svg'"):
        cli.export_labels(r, "svg")


def test_cli_gen_random_morse_minima(capsys, tmp_path):
    assert cli.main(["gen", "torus", "--n", "3", "--m", "3"]) == 0
    p = tmp_path / "t33.cplx"
    p.write_text(capsys.readouterr().out)
    assert cli.main([
        "gen", "random-morse", str(p), "--seed", "2", "--minima", "3"
    ]) == 0
    sp = tmp_path / "t33.stack"
    sp.write_text(capsys.readouterr().out)
    assert cli.main(["minima", str(sp)]) == 0
    out = capsys.readouterr().out
    assert sum(1 for ln in out.splitlines() if ln.startswith("minimum")) == 3
    assert cli.main(["watershed", str(sp), "--algo", "morse"]) == 0
    assert ": W" in capsys.readouterr().out


@pytest.mark.parametrize("minima", ["0", "-3"])
def test_cli_gen_random_morse_rejects_fewer_than_one_minimum(capsys, tmp_path, minima):
    p = tmp_path / "t33.cplx"
    p.write_text(io.serialize_complex(generate_torus(3, 3)))
    capsys.readouterr()
    assert cli.main(["gen", "random-morse", str(p), "--minima", minima]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and minima in err


def test_cli_export_off(capsys, tmp_path):
    stack = tmp_path / "t.stack"
    capsys.readouterr()
    assert cli.main(["gen", "torus"]) == 0
    cplx = tmp_path / "t.cplx"
    cplx.write_text(capsys.readouterr().out)
    assert cli.main(["gen", "random-morse", str(cplx), "--seed", "0"]) == 0
    stack.write_text(capsys.readouterr().out)
    coords = tmp_path / "coords.txt"
    coords.write_text("".join(f"{v} {v % 3} {v // 3} 0\n" for v in range(9)))
    assert cli.main([
        "export", str(stack), "--format", "off", "--coords", str(coords)
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OFF\n9 18 0")
    # off without coords is a usage error
    assert cli.main(["export", str(stack), "--format", "off"]) == 1
    # a vertex missing from the coords file is named, not a bare KeyError
    coords.write_text("".join(f"{v} {v % 3} {v // 3} 0\n" for v in range(8)))
    capsys.readouterr()
    assert cli.main([
        "export", str(stack), "--format", "off", "--coords", str(coords)
    ]) == 3
    err = capsys.readouterr().err
    assert err == "error: vertex 8 has no coordinates in the --coords file\n"
    # the mesh is made of triangles: a cycle (d = 1) and the boundary of
    # the 4-simplex (d = 3) have none to write
    coords.write_text("".join(f"{v} {v} 0 0\n" for v in range(6)))
    hosts = {1: cyc6_stack(), 3: random_morse_stack(closure(combinations(range(5), 4)), seed=1)}
    for d, F in hosts.items():
        stack.write_text(io.serialize_stack(F))
        assert cli.main([
            "export", str(stack), "--format", "off", "--coords", str(coords)
        ]) == 3, d
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: off export needs a 2-dimensional complex, not {d}-dimensional\n"
        )


def test_cli_exit_codes(capsys, tmp_path):
    assert cli.main([]) == 1  # usage
    assert cli.main(["bogus-command"]) == 1
    bad = tmp_path / "bad.cplx"
    bad.write_text("not a face\n")
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["minima", str(tmp_path / "missing.stack")]) == 1
    empty = tmp_path / "empty.stack"  # no faces: no minima, no facets, one empty MSF
    empty.write_text("")
    capsys.readouterr()
    assert cli.main(["watershed", str(empty)]) == 0
    assert cli.main(["msf", str(empty), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "total_weight=0\n" in out and "check_unique=True\n" in out
    huge = tmp_path / "huge.stack"
    huge.write_text("0 : 9223372036854775808\n")
    capsys.readouterr()
    for algo in ("morse", "collapse"):  # both routes reject it the same way
        assert cli.main(["watershed", str(huge), "--algo", algo]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "(0,)" in err
    # vertex ids are stored as int64 too: a larger one is a parse error
    wide = tmp_path / "wide.stack"
    wide.write_text("9223372036854775808 : 0\n")
    assert cli.main(["watershed", str(wide)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "9223372036854775808" in err
    # a torus grid below 3 x 3, or one too large for numpy to index, is a
    # usage error with one line, no output
    for argv in (
        ["--n", "2"], ["--m", "0"], ["--n", "-1", "--m", "1"],
        ["--n", "3", "--m", "10000000000000000000"],
        ["--n", "4000000000", "--m", "4000000000"],
    ):
        assert cli.main(["gen", "torus", *argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "gen torus" in err, argv
    # a malformed coordinate line is a parse error that names its line,
    # for a bad number as for a wrong field count
    stack = tmp_path / "cyc6.stack"
    stack.write_text(io.serialize_stack(cyc6_stack()))
    coords = tmp_path / "coords.txt"
    for line in ("0 0 0 zz", "x 0 0 0", "0 0 0"):
        coords.write_text(f"# vertex x y z\n{line}\n")
        assert cli.main(["export", str(stack), "--format", "off", "--coords", str(coords)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("parse error: line 2: "), line
    # a byte that is not UTF-8 is a parse error naming its line, for every
    # command that reads a file and for the --coords file alike
    raw = tmp_path / "raw.stack"
    cases = ((b"\xff0 : 0\n", 1, "0xff"), (b"# c\r0 : 0\n1\xfe : 1\n", 3, "0xfe"))
    for data, line, byte in cases:  # a lone \r ends a line, as in the parsers
        raw.write_bytes(data)
        for argv in (
            ["watershed", str(raw)], ["minima", str(raw)], ["validate", str(raw)],
            ["gen", "random-morse", str(raw)],
            ["export", str(stack), "--format", "off", "--coords", str(raw)],
        ):
            assert cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == f"parse error: line {line}: byte {byte} is not UTF-8\n"
    # a directory given for an input file is a usage error with one line
    for argv in (
        ["watershed", str(tmp_path)],
        ["validate", str(tmp_path)],
        ["gen", "random-morse", str(tmp_path)],
        ["export", str(stack), "--format", "off", "--coords", str(tmp_path)],
    ):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), argv


def test_cli_skips_a_leading_byte_order_mark(capsys, tmp_path):
    # a file that starts with a UTF-8 byte-order mark reads as the file
    # without it, and a bad byte after the mark is still named with its line
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    F = cyc6_stack()
    stack, host = io.serialize_stack(F), io.serialize_complex(F.host)
    cases = [  # the file's text, and the command with None for its path
        (stack, ["watershed", None]), (stack, ["watershed", None, "--algo", "morse"]),
        (stack, ["minima", None]), (stack, ["msf", None, "--verify"]),
        (host, ["validate", None]), (host, ["gen", "random-morse", None]),
    ]
    for text, argv in cases:
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert cli.main([str(plain) if a is None else a for a in argv]) == 0, argv
        expected = capsys.readouterr()
        assert cli.main([str(marked) if a is None else a for a in argv]) == 0, argv
        assert capsys.readouterr() == expected, argv
    marked.write_bytes(codecs.BOM_UTF8 + b"# c\r0 : 0\n1\xfe : 1\n")
    assert cli.main(["watershed", str(marked)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "parse error: line 3: byte 0xfe is not UTF-8\n"


def test_cli_routes_reject_the_same_hosts(capsys, tmp_path):
    hosts = {
        "not pure of top dimension": closure(list(generate_torus(3, 3).faces_of_dim(2)) + [(99,)]),
        "not a non-branching pseudomanifold": branching_triangles(),
    }
    for message, X in hosts.items():
        path = tmp_path / "host.stack"
        path.write_text(io.serialize_stack(random_morse_stack(X, seed=1)))
        capsys.readouterr()
        for argv in (
            ["watershed", str(path), "--algo", "collapse"],
            ["watershed", str(path), "--algo", "morse"],
            ["msf", str(path)],
            ["msf", str(path), "--verify"],
        ):
            assert cli.main(argv) == 3, argv
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: complex is {message}\n"), argv


def test_cli_entry_point_runs():
    # the subprocess finds the package the way this test process does
    src = str(Path(morseshed.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "morseshed.cli", "gen", "cyc6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "0 1 : 0" in proc.stdout


# -- array text paths against the line loop and the per-face writers -----------


def _ref_parse_stack(text, complete="none"):
    """Reference: the line loop parse_stack ran on every text before the
    canonical layout got its numpy path."""
    values = {}
    for i, line in io._content_lines(text):
        face_part, colon, value_part = line.partition(":")
        if not colon:
            raise io.ParseError(i, "expected `face : value`")
        face = io._read_face(face_part, i)
        try:
            value = int(value_part)
        except ValueError as exc:
            raise io.ParseError(i, f"bad altitude {value_part.strip()!r}") from exc
        if values.setdefault(face, value) != value:
            raise io.ParseError(i, f"conflicting altitudes for {face}")
    if complete == "max":
        host = closure(values)
        missing_facets = [x for x in host.facets() if x not in values]
        if missing_facets:
            raise StackError(f"no altitude for facet {missing_facets[0]}")
        alt = {}
        for p in range(host.dim, -1, -1):
            for x in host.faces_of_dim(p):
                alt[x] = values[x] if x in values else max(alt[y] for y in host.cofaces[x])
        F = Stack(host, alt)
    else:
        try:
            host = Complex(values)
        except InvalidSimplexError:
            missing = closure(values).faces - values.keys()
            raise StackError(
                f"no altitude for face {min(missing, key=face_key)} "
                "(pass --complete=max to fill from facets)"
            ) from None
        F = Stack(host, values)
    ok, witness = validate_stack(F)
    if not ok:
        raise StackError(f"not a stack: F{witness[0]} < F{witness[1]}")
    return F


def _ref_serialize_complex(X):
    return "".join(" ".join(map(str, x)) + "\n" for x in X.sorted_faces())


def _ref_serialize_stack(F):
    return "".join(
        " ".join(map(str, x)) + f" : {F.altitude[x]}\n" for x in F.host.sorted_faces()
    )


def _ref_serialize_labels(result):
    lines = []
    for x in sorted(result.labels, key=face_key):
        lab = result.labels[x]
        tag = "W" if lab == WATERSHED_LABEL else str(lab)
        lines.append(" ".join(map(str, x)) + f" : {tag}\n")
    return "".join(lines)


def _fixture_stacks():
    yield cyc6_stack()
    yield branching_collapse_counterexample()[0]
    for seed, X in enumerate((cyc6_host(), wedge(), branching_triangles(), tetrahedron_boundary())):
        yield random_stack(X, seed=seed)
    for n in range(3, 9):
        yield random_morse_stack(generate_torus(n, n), seed=n, n_minima=1 + n % 4)
        yield random_stack(generate_torus(n, n), seed=n)


def _outcome(parse, text, **kwargs):
    """(host, altitudes, alt_array) of the parsed stack, or the type and
    message of the error."""
    try:
        F = parse(text, **kwargs)
    except (io.ParseError, StackError, InvalidSimplexError) as exc:
        return type(exc), str(exc)
    return F.host, dict(F.altitude), F.alt_array().tolist()


def test_array_parse_matches_line_loop():
    rng = random.Random(7)
    for F in _fixture_stacks():
        text = _ref_serialize_stack(F)
        lines = text.splitlines(keepends=True)
        rng.shuffle(lines)
        for t in (text, "".join(lines)):  # the array path takes any line order
            assert io._parse_canonical_stack(t) is not None
            G = io.parse_stack(t)
            assert G.host == F.host
            assert G.altitude == F.altitude and dict(G.altitude) == dict(F.altitude)
            assert G.alt_array().tolist() == F.alt_array().tolist()
            assert G.lambda_min == F.lambda_min
            for complete in ("none", "max"):
                assert _outcome(io.parse_stack, t, complete=complete) == _outcome(
                    _ref_parse_stack, t, complete=complete
                )


_BASE = "0 : 0\n1 : 5\n2 : 5\n0 1 : 5\n0 2 : 5\n1 2 : 5\n0 1 2 : 7\n"


@pytest.mark.parametrize(
    "text",
    [
        "# comment\n" + _BASE,
        _BASE.replace("1 : 5\n", "1 : 5\n\n"),  # blank line
        _BASE.replace("\n", "\r\n"),
        _BASE.replace("0 1 : 5", "0\t1 : 5"),
        _BASE.replace("0 1 : 5", "0  1 : 5"),  # double space
        _BASE.replace("0 1 : 5", "0 1 :  5"),
        _BASE.replace("0 1 : 5", "0 1: 5"),
        _BASE.replace("0 1 : 5", "0 1 :5"),
        _BASE.replace("0 1 : 5", " 0 1 : 5"),
        _BASE.replace("0 1 : 5", "0 1 : 5 "),
        _BASE[:-1],  # no final newline
        _BASE.replace("0 1 : 5", "00 01 : 05"),  # leading zeros
        _BASE.replace("0 : 0", "-0 : -0"),
        "1000000000000000000 : 3\n",  # 19-digit id
        "0000000000000000001 : 3\n",
        "0 : 1000000000000000000\n",  # 19-digit altitude
        "0 : -9223372036854775808\n",
        "0 : 9223372036854775808\n",  # int64 overflow
        "0 : 99999999999999999999\n",
        "9223372036854775808 : 0\n",
        "-1 : 0\n",  # negative id
        _BASE.replace("0 1 2 : 7", "0 2 1 : 7"),  # non-ascending ids
        _BASE.replace("0 1 : 5", "1 0 : 5"),
        _BASE + "0 0 : 5\n",  # repeated vertex
        _BASE + "1 2 : 5\n",  # duplicate identical line
        _BASE + "1 2 : 6\n",  # conflicting altitudes
        _BASE.replace("2 : 5\n", ""),  # missing face
        _BASE.replace("0 1 : 5\n", ""),
        _BASE.replace("0 1 2 : 7", "0 1 2 : 4"),  # not a stack
        _BASE.replace("0 1 : 5", "0 1 : x"),
        _BASE.replace("0 1 : 5", "0 1 : -"),
        _BASE.replace("0 1 : 5", "0 1 : 5-"),
        _BASE.replace("0 1 : 5", "0 1 : 5 : 5"),
        _BASE.replace("0 1 : 5", "0 1"),
        "5\n" + _BASE,  # a first line without a colon
        _BASE.replace("0 1 : 5", "0 1   5"),
        _BASE.replace("0 1 : 5", ": 5"),
        _BASE.replace("0 1 : 5", "0 1 : +5"),
        _BASE.replace("0 1 : 5", "0 1 : 5_0"),
        "",
        "\n",
        "0 : 0\n0 1 : 1\n",
        "5 : 1\n",
    ],
)
def test_malformed_stack_text_gets_the_loop_outcome(text):
    for complete in ("none", "max"):
        assert _outcome(io.parse_stack, text, complete=complete) == _outcome(
            _ref_parse_stack, text, complete=complete
        )


_MUTATION_TOKENS = [*"0123456789", " ", ":", "-", "\n", "\t", "#", "00", " : "]


def _mutant(text, rng):
    """`text` with one to three tokens replaced, inserted or deleted at
    random places; a token is one character of the text, or one of
    `_MUTATION_TOKENS` or a 19-digit run in its place."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        token = rng.choice(_MUTATION_TOKENS + [str(rng.randrange(10**18, 10**19))])
        edit = rng.randrange(3)
        if edit == 0:  # replace
            text = text[:at] + token + text[at + 1:]
        elif edit == 1:  # insert
            text = text[:at] + token + text[at:]
        else:  # delete
            text = text[:at] + text[at + 1:]
    return text


def test_mutated_stack_texts_get_the_loop_outcome():
    # the tokenizer must accept exactly what the line loop reads the same
    # way: a mutant either takes the array path with the loop's stack, or
    # falls back to the loop
    rng = random.Random(29)
    texts = [_ref_serialize_stack(F) for F in _fixture_stacks() if len(F.host) <= 150]
    array_path = 0
    for _ in range(1000):
        t = _mutant(rng.choice(texts), rng)
        array_path += io._read_rows(t, tagged=True) is not None
        for complete in ("none", "max"):
            assert _outcome(io.parse_stack, t, complete=complete) == _outcome(
                _ref_parse_stack, t, complete=complete
            ), repr(t)
    assert array_path >= 100  # the mutants reach the array path too


def test_kept_tokenizer_buffers_across_sizes_and_threads(monkeypatch):
    # the tokenizer writes its masks and lengths into buffers kept per
    # thread, grown for a longer text and sliced for a shorter one; a text
    # past the cap gets buffers of its own, and threads never share one
    import threading

    monkeypatch.setattr(io, "_kept", threading.local())
    texts = [io.serialize_stack(random_morse_stack(generate_torus(n, n), seed=n, n_minima=2))
             for n in (3, 12, 5)]
    want = [[b.tolist() for b in io._read_rows(t, tagged=True)] for t in texts]
    for t, rows in zip(texts + texts[::-1], want + want[::-1]):
        assert [b.tolist() for b in io._read_rows(t, tagged=True)] == rows
    assert io._kept.masks.size == 3 * len(texts[1])  # grown once, for TOR(12)
    bad = texts[1].replace("\n", "\n\n", 1)  # read last, it must not pass on stale masks
    assert io._read_rows(bad, tagged=True) is None
    kept = io._kept.masks
    monkeypatch.setattr(io, "_KEEP_BYTES", 3 * len(texts[0]))
    assert [b.tolist() for b in io._read_rows(texts[1], tagged=True)] == want[1]
    assert io._kept.masks is kept  # the text past the cap kept nothing

    def parse_many(k, out):
        out[k] = all([b.tolist() for b in io._read_rows(texts[k], tagged=True)] == want[k]
                     for _ in range(30))

    monkeypatch.setattr(io, "_KEEP_BYTES", 1 << 20)
    out = [None] * 3
    threads = [threading.Thread(target=parse_many, args=(k, out)) for k in range(3)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert out == [True] * 3


# -- the tokenizer's word reads against Python's int ---------------------------

_TOKEN_LENGTHS = (1, 8, 9, 16, 17, 18)  # one word read, two, and three


def _ref_read_rows(text, tagged):
    """Reference for `io._read_rows`: the layout by a regular expression and
    each number by `int`; (width, rows) for each line width from the
    narrowest a text can have, or None."""
    number = "-?[0-9]+"
    line = f"{number}(?: {number})*" + (f" : {number}" if tagged else "")
    if re.fullmatch(f"(?:{line}\n)+", text) is None:
        return None
    tokens = [line.replace(" : ", " ").split(" ") for line in text.splitlines()]
    if max(len(t) for line in tokens for t in line) > 18:
        return None
    rows = [[int(t) for t in line] for line in tokens]
    for row in rows:
        ids = row[:len(row) - tagged]
        if ids[0] < 0 or any(a >= b for a, b in zip(ids, ids[1:])):
            return None
    return [(w, [r for r in rows if len(r) == w]) for w in range(1 + tagged, max(map(len, rows)) + 1)]


def _blocks(blocks):
    """(width, rows) of each block `io._read_rows` returns, or None."""
    if blocks is None:
        return None
    assert all(b.dtype == np.int64 for b in blocks)
    return [(b.shape[1], b.tolist()) for b in blocks]


def _digits(rng, k):
    return "".join(rng.choice("0123456789") for _ in range(k))


def _tokenizer_text(rng, tagged):
    """A text in the canonical layout, in no particular line order, whose
    numbers have 1, 8, 9, 16, 17 or 18 characters: ids with leading
    zeros and `-0`, and tags of either sign."""
    lines = []
    for _ in range(rng.randint(1, 8)):
        ids = sorted(rng.sample(range(10 ** rng.choice(_TOKEN_LENGTHS)), rng.randint(1, 3)))
        tokens = [
            "-0" if v == 0 and rng.random() < 0.3
            else str(v).zfill(rng.choice([k for k in _TOKEN_LENGTHS if k >= len(str(v))]))
            for v in ids
        ]
        if tagged:
            k = rng.choice(_TOKEN_LENGTHS)
            if k > 1 and rng.random() < 0.5:
                tokens += [":", "-" + ("0" * (k - 1) if rng.random() < 0.1 else _digits(rng, k - 1))]
            else:
                tokens += [":", _digits(rng, k)]
        lines.append(" ".join(tokens) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("tagged", [True, False])
def test_tokenizer_reads_every_number_as_int_does(tagged):
    rng = random.Random(36 + tagged)
    lengths = set()
    for _ in range(500):
        text = _tokenizer_text(rng, tagged)
        lengths.update(map(len, text.replace(" : ", " ").split()))
        ref = _ref_read_rows(text, tagged)
        assert ref is not None and _blocks(io._read_rows(text, tagged)) == ref, text
    assert lengths >= set(_TOKEN_LENGTHS)


_BAD_NUMBERS = ["1" * 19, "0" * 19, "-" + "1" * 18, "-", "--1", "1-2", "12-", "-1-"]
_STRAY_BYTES = ["x", "+", ".", "#", "\t", "\r", "\0", "\x7f", "é"]


@pytest.mark.parametrize("tagged", [True, False])
def test_tokenizer_rejects_malformed_numbers(tagged):
    # a number of 19 characters, a lone or misplaced "-", or a byte outside
    # the layout anywhere in a text: the tokenizer returns None
    rng = random.Random(63 + tagged)
    for _ in range(300):
        text = _tokenizer_text(rng, tagged)
        number = rng.choice(list(re.finditer("-?[0-9]+", text)))
        at = rng.randrange(len(text) + 1)
        for bad in (text[:number.start()] + rng.choice(_BAD_NUMBERS) + text[number.end():],
                    text[:at] + rng.choice(_STRAY_BYTES) + text[at:]):
            assert _ref_read_rows(bad, tagged) is None
            assert io._read_rows(bad, tagged) is None, bad


def _stack_text(F, rng):
    """F's lines with each id zero-padded to one of `_TOKEN_LENGTHS`
    characters and each zero altitude written `0` or `-0`, shuffled."""
    lines = []
    for x, a in zip(F.host.sorted_faces(), F.alt_array().tolist()):
        ids = [str(v).zfill(rng.choice([k for k in _TOKEN_LENGTHS if k >= len(str(v))])) for v in x]
        tag = "-0" if a == 0 and rng.random() < 0.5 else str(a)
        lines.append(" ".join(ids) + f" : {tag}\n")
    rng.shuffle(lines)
    return "".join(lines)


def test_parse_stack_of_long_and_negative_numbers_matches_the_line_loop():
    rng = random.Random(18)
    stacks = [cyc6_stack(), random_morse_stack(generate_torus(4, 4), seed=3, n_minima=2),
              random_stack(generate_torus(5, 5), seed=1, high=6)]
    array_path = 0
    for F in stacks:
        for shift in (-(10**17), -(10**16), -(10**8), -1, 0, 10**8 - 7, 10**16, 10**17):
            G = _stack_from_array(F.host, F.alt_array() + shift)
            text = _stack_text(G, rng)
            longest = max(map(len, text.replace(" : ", " ").split()))
            assert (io._read_rows(text, tagged=True) is not None) == (longest <= 18)
            array_path += longest <= 18
            A, B = io.parse_stack(text), io._parse_stack_lines(text, "none")
            assert A.host == B.host == F.host
            assert A.alt_array().tolist() == B.alt_array().tolist() == G.alt_array().tolist()
            assert A.lambda_min == B.lambda_min
    assert array_path == 22  # -(10**17) is 19 characters long, on two stacks an altitude
    # and the seeded texts of the tokenizer tests, stacks or not
    for _ in range(200):
        text = _tokenizer_text(rng, tagged=True)
        assert _outcome(io.parse_stack, text) == _outcome(io._parse_stack_lines, text, complete="none")


def test_kept_decimal_tables_across_widths(monkeypatch):
    # the writers take the strings of 0..n-1 from one kept table, rebuilt
    # for a longer range and sliced for a shorter one
    monkeypatch.setattr(io, "_RANGE", io._range_table(1))
    calls = []
    decimals = io._decimals
    monkeypatch.setattr(io, "_decimals", lambda v: calls.append(v.size) or decimals(v))
    small = random_morse_stack(generate_torus(3, 3), seed=1, n_minima=2)
    large = random_morse_stack(generate_torus(40, 40), seed=1, n_minima=20)
    from_zero = _stack_from_array(small.host, small.alt_array() - small.lambda_min)
    stacks = (small, large, small, cyc6_stack(), from_zero)
    for k, F in enumerate(stacks):
        result = morse_watershed(F)
        calls.clear()
        assert io.serialize_labels(result) == _ref_serialize_labels(result)
        if k == 2:  # TOR(3) after TOR(40): every string from the kept table
            assert calls == []
        assert io.serialize_stack(F) == _ref_serialize_stack(F)
        assert io.serialize_complex(F.host) == _ref_serialize_complex(F.host)
        assert not io._RANGE.flags.writeable
    assert len(io._RANGE) == 1600  # the TOR(40) vertex ids, the longest range written
    for n in (1, 9, 10, 11, 100, 1600, 9600):
        strings = io._range_decimals(n)
        assert strings.tolist() == decimals(np.arange(n)).tolist()
        assert not strings.flags.writeable
        spaced = io._range_decimals(n, spaced=True)  # the id table of the writers
        assert spaced[:, :-1].tolist() == strings.tolist()
        assert (spaced[:, -1] == ord(" ")).all() and not spaced.flags.writeable


def test_array_writers_match_per_face_writers():
    results = []
    for F in _fixture_stacks():
        assert io.serialize_stack(F) == _ref_serialize_stack(F)
        assert io.serialize_complex(F.host) == _ref_serialize_complex(F.host)
        try:
            results.append(morse_watershed(F))
        except StackError:  # not Morse, or not a pseudomanifold
            pass
        try:
            results += [watershed_collapse(F, seed=s) for s in range(2)]
        except StackError:
            pass
    parsed = io.parse_stack(_ref_serialize_stack(random_morse_stack(generate_torus(9, 9), seed=1)))
    results.append(morse_watershed(parsed))
    X = branching_triangles()
    results.append(WatershedResult({x: 1 for x in X.faces}))
    results.append(morse_watershed(Stack(Complex(()), {})))
    assert len(results) > 30
    for r in results:
        assert io.serialize_labels(r) == _ref_serialize_labels(r)
    assert io.serialize_complex(Complex(())) == io.serialize_stack(Stack(Complex(()), {})) == ""


def _rescaled(F, values):
    """F with its distinct altitudes replaced, in order, by `values`: a
    non-decreasing map, so the result is again a stack."""
    levels = sorted(set(F.altitude.values()))
    assert len(values) >= len(levels)
    to = dict(zip(levels, values))
    return Stack(F.host, {x: to[a] for x, a in F.altitude.items()})


def _check_text_paths(F, array_path=True):
    """The writers and the parser on F against the per-face writers and the
    line loop; `array_path` says whether the text takes the numpy path."""
    text = io.serialize_stack(F)
    assert text == _ref_serialize_stack(F)
    assert io.serialize_complex(F.host) == _ref_serialize_complex(F.host)
    assert (io._parse_canonical_stack(text) is not None) == array_path
    for complete in ("none", "max"):
        assert _outcome(io.parse_stack, text, complete=complete) == _outcome(
            _ref_parse_stack, text, complete=complete
        )
    assert io.parse_stack(text).alt_array().tolist() == F.alt_array().tolist()
    assert io.parse_complex(io.serialize_complex(F.host)) == F.host


def test_text_paths_on_extreme_altitudes():
    F = random_stack(generate_torus(4, 4), seed=2, high=6)
    low, high = -(2**63), 2**63 - 1
    _check_text_paths(_rescaled(F, [low, -7, -1, 0, 3, 10**17, high]), array_path=False)
    _check_text_paths(_rescaled(F, [-(10**16), -123, -10, -9, -1, 0, 99]))
    _check_text_paths(_rescaled(F, [-(10**16) - 5, -(10**15), -54321, -50, -9, -2, -1]))
    cyc = cyc6_stack()
    _check_text_paths(_rescaled(cyc, [low] * len(set(cyc.altitude.values()))), array_path=False)


def test_labels_with_many_basins():
    for seed in range(3):
        r = morse_watershed(random_morse_stack(generate_torus(8, 8), seed=seed, n_minima=12))
        assert max(r.labels.values()) >= 10
        text = io.serialize_labels(r)
        assert text == _ref_serialize_labels(r)
        assert io.parse_labels(text) == r.labels
        labels = dict(r.labels)  # the same labels through a dict-built result
        assert io.serialize_labels(WatershedResult(labels)) == text


def test_a_result_built_from_its_labels_is_the_route_result():
    results = [morse_watershed(cyc6_stack()), morse_watershed(Stack(Complex(()), {}))]
    for n in (3, 5, 8):
        F = random_morse_stack(generate_torus(n, n), seed=n, n_minima=n - 1)
        results += [morse_watershed(F), watershed_collapse(F, seed=n)]
    for r in results:
        hand = WatershedResult(dict(r.labels))
        assert hand == r and r == hand
        assert hand._label.dtype == np.int64 and hand._label.tolist() == r._label.tolist()
        assert hand.watershed == r.watershed and hand.basins == r.basins
        assert hand.basin_sizes() == r.basin_sizes()
        assert io.serialize_labels(hand) == io.serialize_labels(r)
        assert cli.export_labels(hand, "dot") == cli.export_labels(r, "dot")
    # three triangles on one edge: the dot export gets the host check's error
    hand = WatershedResult({x: 1 for x in branching_triangles().faces})
    with pytest.raises(ValueError, match="not a non-branching pseudomanifold"):
        cli.export_labels(hand, "dot")


@pytest.mark.parametrize(
    "labels, message",
    [
        ({(0, 5): 2, (3,): 0, (1,): 7}, r"not closed: \(0, 5\) present but its face \(0,\) missing"),
        ({(0,): 1, (1,): -1, (0, 1): 1}, r"label -1 of \(1,\) is not an int64 >= 0"),
        ({(0,): 1, (1,): 2**63, (0, 1): 1}, r"label 9223372036854775808 of \(1,\)"),
        ({(0,): 1, (1,): 1.0, (0, 1): 1}, r"label 1.0 of \(1,\)"),
        ({(0,): "W", (1,): 1, (0, 1): 1}, r"label 'W' of \(0,\)"),
        ({(0,): 1, (1,): 1, (1, 0): 0}, r"label None of \(0, 1\)"),
        ({(0,): 1, (1,): 1, (0, 1): 0, (1, 0): 0}, "labelled twice"),
    ],
)
def test_a_bad_labels_map_raises_at_construction(labels, message):
    with pytest.raises(ValueError, match=message):
        WatershedResult(labels)


def test_a_label_keyed_in_another_vertex_order_is_named():
    with pytest.raises(ValueError) as err:
        WatershedResult({(1, 0): 0, (0,): 1, (1,): 1})
    assert str(err.value) == (
        "label None of (0, 1): the face is keyed only as (1, 0), in another vertex order")
    labels = dict(morse_watershed(cyc6_stack()).labels)
    labels[(3, 2)] = labels.pop((2, 3))
    with pytest.raises(ValueError, match=r"of \(2, 3\): the face is keyed only as \(3, 2\),"):
        WatershedResult(labels)


@pytest.mark.parametrize(
    "facets",
    [
        [(0, 7, 10**15)],
        [(0, 7), (7, 10**15), (3,)],
        [(1, 2, 3), (2, 3, 4)],  # dense but not from 0
        [(0, 2, 5), (0, 1, 2)],  # from 0 but not dense
        [(5, 2**63 - 2, 2**63 - 1), (2**63 - 3, 2**63 - 2, 2**63 - 1)],
        [(10**17, 10**17 + 1, 999999999999999999)],
    ],
)
def test_text_paths_on_sparse_and_huge_vertex_ids(facets):
    X = closure(facets)
    pk = X.packed()
    ids = pk.vertex_ids
    for r in pk.rows:
        ranks = complexes._vertex_ranks(ids, r)
        assert ranks is not r  # the ids are not 0..n-1
        assert ranks.tolist() == [[ids.tolist().index(v) for v in row] for row in r.tolist()]
    huge = ids[-1] >= 10**18  # 19 digits: the line loop reads it
    for seed in range(2):
        _check_text_paths(random_stack(X, seed=seed, low=-3, high=4), array_path=not huge)
    labels = {x: seed % 3 for seed, x in enumerate(X.sorted_faces())}
    r = WatershedResult(labels)
    assert io.serialize_labels(r) == _ref_serialize_labels(r)
    facet_text = "".join(" ".join(map(str, x)) + "\n" for x in facets)
    assert (io._read_rows(facet_text, tagged=False) is None) == huge
    assert io.parse_complex(facet_text) == X


def test_vertex_ranks_of_dense_ids():
    ids = np.arange(4)
    r = np.array([[0, 1], [2, 3]])
    assert complexes._vertex_ranks(ids, r) is r  # each id is its own rank
    assert complexes._vertex_ranks(ids, np.array([[0, 4]])) is None
    assert complexes._vertex_ranks(ids, np.array([[-1, 2]])) is None
    assert complexes._vertex_ranks(np.zeros(0, dtype=np.int64), r) is None


def test_text_paths_on_one_vertex_and_the_empty_complex():
    for v in (0, 5, 10**15):
        X = Complex([(v,)])
        assert io.serialize_complex(X) == f"{v}\n" == _ref_serialize_complex(X)
        assert io.parse_complex(f"{v}\n") == X
        for a in (-(2**63), -4, 0, 2**63 - 1):
            F = Stack(X, {(v,): a})
            assert io.serialize_stack(F) == f"{v} : {a}\n" == _ref_serialize_stack(F)
            assert _outcome(io.parse_stack, f"{v} : {a}\n") == _outcome(_ref_parse_stack, f"{v} : {a}\n")
            assert io.parse_stack(f"{v} : {a}\n").altitude == F.altitude
        for lab in (WATERSHED_LABEL, 1, 12, 10**15, 2**63 - 1):  # above 1 face: a tag per face
            r = WatershedResult({(v,): lab})
            assert io.serialize_labels(r) == _ref_serialize_labels(r)
    empty = Complex(())
    assert io.serialize_complex(empty) == io.serialize_stack(Stack(empty, {})) == ""
    assert io.serialize_labels(WatershedResult({})) == ""
    assert io.serialize_labels(morse_watershed(Stack(empty, {}))) == ""
    assert io.parse_complex("") == io.parse_complex("\n") == empty


def _interleaved(text):
    """The lines of a canonical text dealt round-robin from the groups of
    each vertex count, so the dimensions alternate."""
    groups = {}
    for line in text.splitlines(keepends=True):
        groups.setdefault(len(line.partition(" : ")[0].split()), []).append(line)
    out, queues = [], list(groups.values())
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop())
    return "".join(out)


def test_interleaved_dimensions_take_the_array_path():
    for F in _fixture_stacks():
        text = _interleaved(io.serialize_stack(F))
        assert text != io.serialize_stack(F)
        G = io._parse_canonical_stack(text)
        assert G is not None
        assert G.host == F.host and G.alt_array().tolist() == F.alt_array().tolist()
        assert _outcome(io.parse_stack, text) == _outcome(_ref_parse_stack, text)
        ctext = _interleaved(io.serialize_complex(F.host))
        assert io._read_rows(ctext, tagged=False) is not None
        assert io.parse_complex(ctext) == F.host


def test_array_complex_parse_matches_line_loop():
    rng = random.Random(3)
    for F in _fixture_stacks():
        X = F.host
        text = io.serialize_complex(X)
        facets = "".join(" ".join(map(str, x)) + "\n" for x in X.facets())
        lines = text.splitlines(keepends=True)
        rng.shuffle(lines)
        for t in (text, facets, "".join(lines), text + facets):  # repeats are allowed
            assert io._read_rows(t, tagged=False) is not None
            assert io.parse_complex(t) == X
            assert io.parse_complex(t).packed().rows[-1].tolist() == X.packed().rows[-1].tolist()


@pytest.mark.parametrize(
    "text",
    [
        "0 1 : 5\n",
        "0 1\n1 0\n",
        "0 0\n",
        "-1 2\n",
        "0  1\n",
        "0 1 \n",
        "0\t1\n",
        "0 1\r\n",
        "0 1\n\n2\n",
        "# c\n0 1\n",
        "0 1",
        "1 -2\n",
        "0 9223372036854775808\n",
        "0 x\n",
    ],
)
def test_malformed_complex_text_gets_the_loop_outcome(text):
    def loop(t):
        return closure([io._read_face(line, i) for i, line in io._content_lines(t)])

    outcomes = []
    for parse in (io.parse_complex, loop):
        try:
            outcomes.append(parse(text))
        except io.ParseError as exc:
            outcomes.append((exc.lineno, str(exc)))
    assert outcomes[0] == outcomes[1]


def test_flood_pipeline_stays_on_the_arrays(monkeypatch):
    # text to text, the pipeline builds one Complex (the host) and neither
    # the face tuples, the altitude dict nor the result's views
    text = io.serialize_stack(random_morse_stack(generate_torus(6, 6), seed=4, n_minima=3))
    inits = []
    original = Complex.__init__

    def counting(self, *args, **kwargs):
        inits.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counting)
    F = io.parse_stack(text)
    r = morse_watershed(F)
    out = io.serialize_labels(r)
    assert len(inits) == 1
    with pytest.raises(AttributeError):
        Complex.__dict__["face_list"].__get__(F.host)  # the slot is still unset
    assert "altitude" not in vars(F)
    for view in ("labels", "watershed", "basins"):
        with pytest.raises(AttributeError):
            WatershedResult.__dict__[view].__get__(r)  # the slot is still unset
    assert out == _ref_serialize_labels(r)  # reads the labels
    assert len(inits) == 1
    assert r.watershed.faces == {x for x, v in r.labels.items() if v == WATERSHED_LABEL}
    assert len(inits) == 2


def _count_calls(monkeypatch, owner, name, calls):
    """Count the calls of owner.name under `name`, through every module of
    the package that binds it."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod in [m for n, m in sys.modules.items() if n.startswith("morseshed")]:
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counting)
    calls[name] = 0


def _tor66_file(tmp_path):
    F = random_morse_stack(generate_torus(6, 6), seed=3, n_minima=4)
    p = tmp_path / "t66.stack"
    p.write_text(io.serialize_stack(F))
    return str(p)


def test_cli_commands_compute_each_array_once(capsys, monkeypatch, tmp_path):
    from morseshed import _kernels, watershed

    path = _tor66_file(tmp_path)
    calls = {}
    _count_calls(monkeypatch, _kernels, "flat_zones", calls)
    _count_calls(monkeypatch, _kernels, "top_adjacency", calls)
    _count_calls(monkeypatch, watershed, "morse_watershed", calls)
    assert cli.main(["watershed", path, "--algo", "morse"]) == 0
    assert ": W\n" in capsys.readouterr().out
    # the Morse cut is checked from the flat-link roots: no flat-zone labelling
    assert calls["flat_zones"] == 0, calls
    assert calls["top_adjacency"] == 1, calls
    calls.update(dict.fromkeys(calls, 0))
    # a later command on the file reads the kept host's facet graph
    assert cli.main(["watershed", path, "--algo", "collapse"]) == 0
    assert ": W\n" in capsys.readouterr().out
    assert calls["top_adjacency"] == 0, calls
    assert calls["flat_zones"] == 0, calls  # the collapse and the check read the roots
    calls.update(dict.fromkeys(calls, 0))
    assert cli.main(["msf", path, "--verify"]) == 0
    assert capsys.readouterr().out.count("=True\n") == 5
    assert calls["top_adjacency"] == 0 and calls["morse_watershed"] == 0, calls
    assert calls["flat_zones"] == 0, calls  # the forest's roots come from the facet graph
    calls.update(dict.fromkeys(calls, 0))
    cplx = tmp_path / "t66.cplx"
    cplx.write_text(io.serialize_complex(generate_torus(6, 6)))
    assert cli.main(["validate", str(cplx)]) == 0
    assert "is_normal=True\n" in capsys.readouterr().out


def test_no_module_builds_inclusion_pairs():
    # links, components and the cut check read the covering pairs and the
    # `bd` rows: no module defines, reads or names the pairs x ⊊ y
    src = Path(morseshed.__file__).parent
    named = [p.name for p in src.glob("*.py")
             if re.search("inclusion[ _]pair", p.read_text(encoding="utf-8"), re.IGNORECASE)]
    assert named == []
    assert "inclusion_pairs" not in Complex.__slots__ + tuple(Complex._VIEWS)
    assert not hasattr(complexes, "_inclusion_pairs")
    with pytest.raises(AttributeError):
        generate_torus(3, 3).inclusion_pairs


def test_cli_builds_no_face_tuple(capsys, monkeypatch, tmp_path):
    # on a parsed stack, every watershed and msf command reads the packed
    # host: no face tuple list, and no Complex besides the host, which the
    # first command packs and the later ones find kept
    path = _tor66_file(tmp_path)
    faces, inits = [], []

    def counting_faces(pk):
        faces.append(1)
        return [x for r in pk.rows for x in map(tuple, r.tolist())]

    init = Complex.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setitem(Complex._VIEWS, "face_list", counting_faces)
    monkeypatch.setattr(Complex, "__init__", counting_init)
    for argv in (
        ["watershed", "--algo", "morse"],
        ["watershed", "--algo", "collapse"],
        ["msf"],
        ["msf", "--dot"],
        ["msf", "--verify"],
    ):
        assert cli.main([argv[0], path, *argv[1:]]) == 0, argv
        assert capsys.readouterr().out
        assert faces == [] and inits == [1], argv
    closure([(0, 1)]).packed().face_list  # the patches count
    assert faces == [1] and inits == [1, 1]


def test_msf_builds_no_graph_or_forest(capsys, monkeypatch, tmp_path):
    # the msf command and verify_msf_theorem read the forest's masks on the
    # host: neither tuple object of the facet graph is constructed
    path = _tor66_file(tmp_path)
    made = []

    def counting(cls):
        class Counting(cls):
            def __new__(sub, *args, **kwargs):
                made.append(cls.__name__)
                return object.__new__(sub)

        return Counting

    for name in ("WeightedFacetGraph", "Forest"):
        monkeypatch.setattr(oracles, name, counting(getattr(oracles, name)))
    for argv in (["msf"], ["msf", "--dot"], ["msf", "--verify"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 0, argv
        assert capsys.readouterr().out
    F = io.parse_stack(Path(path).read_text())
    assert all(watershed.verify_msf_theorem(F).values())
    assert made == []
    oracles.build_facet_graph(F)  # the patches count
    oracles.watershed_forest(F)
    assert made == ["WeightedFacetGraph", "Forest"]
