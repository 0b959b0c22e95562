import random
import subprocess
import sys

import pytest

from morseshed import cli, forest, io
from morseshed.complexes import Complex, closure, face_key
from morseshed.fixtures import branching_triangles, cyc6_stack, wedge
from morseshed.manifolds import generate_torus
from morseshed.morse import gradient, random_morse_stack
from morseshed.stacks import StackError
from morseshed.watershed import WATERSHED_LABEL, WatershedResult, morse_watershed


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
    faces = {io._parse_face(ln.split(":")[0].strip(), 0) for ln in text.splitlines()}
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


def test_labels_round_trip():
    r = morse_watershed(cyc6_stack())
    text = io.serialize_labels(r)
    lines = text.splitlines()
    assert len(lines) == 12
    assert sum(1 for ln in lines if ln.endswith(": W")) == 2
    assert io.parse_labels(text) == r.labels


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
    G, Y = forest.build_facet_graph(F), forest.watershed_forest(F)
    expected = "".join(
        f"{' '.join(map(str, a))} | {' '.join(map(str, b))} : {G.edges[(a, b)]}\n"
        for a, b in sorted(Y.edges)
    )
    expected += f"total_weight={Y.weight(G)}\n"
    expected += "".join(
        f"check_{k}={v}\n" for k, v in sorted(forest.verify_msf_theorem(F).items())
    )
    calls = {"build_facet_graph": 0, "watershed_forest": 0}

    def counting(name):
        original = getattr(forest, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapper = counting(name)
        monkeypatch.setattr(forest, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    assert cli.main(["msf", str(p), "--verify"]) == 0
    assert capsys.readouterr().out == expected
    assert calls == {"build_facet_graph": 1, "watershed_forest": 1}


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
    # three triangles on one edge: every pair of them is adjacent
    X = branching_triangles()
    results.append(WatershedResult({x: 1 for x in X.faces}, Complex(()), ()))
    for r in results:
        dot = cli.export_labels(r, "dot")
        edges = [ln for ln in dot.splitlines() if " -- " in ln]
        assert edges == _pairwise_dot_edges(r)
        # one red edge per (d-1)-face of the cut
        d = max(len(x) - 1 for x in r.labels)
        red = [ln for ln in edges if ln.endswith(" [style=bold color=red];")]
        assert len(red) == sum(1 for z in r.watershed.faces if len(z) == d)


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


def test_cli_exit_codes(capsys, tmp_path):
    assert cli.main([]) == 1  # usage
    assert cli.main(["bogus-command"]) == 1
    bad = tmp_path / "bad.cplx"
    bad.write_text("not a face\n")
    assert cli.main(["validate", str(bad)]) == 2
    assert cli.main(["minima", str(tmp_path / "missing.stack")]) == 1
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


def test_cli_routes_reject_the_same_hosts(capsys, tmp_path):
    hosts = {
        "not pure of top dimension": closure(list(generate_torus(3, 3).faces_of_dim(2)) + [(99,)]),
        "not a non-branching pseudomanifold": branching_triangles(),
    }
    for message, X in hosts.items():
        path = tmp_path / "host.stack"
        path.write_text(io.serialize_stack(random_morse_stack(X, seed=1)))
        capsys.readouterr()
        errs = []
        for algo in ("collapse", "morse"):
            assert cli.main(["watershed", str(path), "--algo", algo]) == 3
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == f"error: complex is {message}\n"


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "morseshed.cli", "gen", "cyc6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "0 1 : 0" in proc.stdout
