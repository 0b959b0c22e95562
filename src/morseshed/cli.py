"""Command-line surface.

Exit codes: 0 success, 1 usage (also an unreadable input or a request
too large for memory), 2 parse error (a file that is not UTF-8 too), 3
validation failure, 4 verification failure (also a kernel that runs past
its round bound, `_kernels.ConvergenceError`).  All randomness flows from
--seed; identical inputs and flags produce byte-identical output.
The exports read a result's packed host and label array only.
"""

from __future__ import annotations

import argparse
import codecs
import sys
from pathlib import Path

import numpy as np

from . import fixtures, io as mio
from ._kernels import ConvergenceError
from .complexes import face_key
from .manifolds import generate_torus, validate
from .morse import classify, is_morse, random_morse_stack
from .stacks import Stack, StackError, minima
from .watershed import (
    WATERSHED_LABEL,
    WatershedResult,
    _forest_masks,
    _labels_hold,
    _msf_certificate,
    _top_rows,
    _verify_watershed,
    morse_watershed,
    watershed_collapse,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_VERIFICATION = 4


def _fmt_face(x) -> str:
    return " ".join(map(str, x))


def _read(path: str) -> str:
    """The text of a UTF-8 file less a leading byte-order mark; a
    ParseError names the line of a bad byte."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # number the lines as the parsers do
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise mio.ParseError(lineno, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def _load_stack(args) -> Stack:
    return mio.parse_stack(_read(args.input), complete=args.complete)


def _dot(name: str, pk, node=("", ()), edge=("", ())) -> str:
    """The facet graph of a packed host in dot syntax: node i labelled with
    the vertex ids of d-face i, and its edges in (lo, hi) order.  `node`
    and `edge` are a %-template appended to each node's label and to each
    edge, and its columns: arrays over the d-faces and the (d-1)-faces.  A
    host without a facet graph raises ValueError."""
    rows, (lo, hi) = _top_rows(pk), pk.facet_graph
    k = np.lexsort((hi, lo))
    face = " ".join(["%d"] * rows.shape[1])
    return (
        f"graph {name} {{\n"
        + mio._format_table(f'  n%d [label="{face}"{node[0]}];\n', list(range(len(rows))),
                            *rows.T.tolist(), *[c.tolist() for c in node[1]])
        + mio._format_table(f"  n%d -- n%d{edge[0]};\n", lo[k].tolist(), hi[k].tolist(),
                            *[c[k].tolist() for c in edge[1]])
        + "}\n"
    )


def export_labels(result: WatershedResult, format: str, coords=None) -> str:
    """Serialize a watershed result as labels, the facet graph in dot
    syntax (`_dot`), or an OFF mesh (d = 2 only, vertex coordinates
    required)."""
    if format == "labels":
        return mio.serialize_labels(result)
    if format == "dot":
        pk, label = result._pk, result._label
        cut = np.where(label[pk.seps] == WATERSHED_LABEL, " [style=bold color=red]", "")
        return _dot("basins", pk, node=(" basin=%d", [label[pk.tops]]), edge=("%s", [cut]))
    if format == "off":
        if coords is None:
            raise ValueError("off export needs a vertex-coordinate sidecar file")
        pk, label = result._pk, result._label
        if len(pk.rows) != 3:
            d = len(pk.rows) - 1
            raise ValueError(f"off export needs a 2-dimensional complex, not {d}-dimensional")
        tris, verts = pk.rows[2], np.unique(pk.rows[2])
        for v in verts.tolist():
            if v not in coords:
                raise ValueError(f"vertex {v} has no coordinates in the --coords file")
        palette = ["0.8 0.2 0.2", "0.2 0.6 0.9", "0.3 0.8 0.3", "0.9 0.8 0.2",
                   "0.7 0.3 0.9", "0.9 0.5 0.2"]
        color = [palette[(b - 1) % len(palette)] if b else "0 0 0" for b in label[pk.tops].tolist()]
        cut = pk.rows[1][label[pk.seps] == WATERSHED_LABEL]
        return (
            f"OFF\n{verts.size} {len(tris)} 0\n# cut edges:\n"
            + mio._format_table("#   %d %d\n", *cut.T.tolist())
            + "".join("%s %s %s\n" % tuple(coords[v]) for v in verts.tolist())
            + mio._format_table("3 %d %d %d %s\n", *np.searchsorted(verts, tris).T.tolist(), color)
        )
    raise ValueError(f"unknown export format {format!r}")


def _parse_coords(text: str) -> dict[int, tuple[float, float, float]]:
    out = {}
    for i, line in mio._content_lines(text):
        parts = line.split()
        if len(parts) != 4:
            raise mio.ParseError(i, "expected `vertex x y z`")
        try:
            out[int(parts[0])] = (float(parts[1]), float(parts[2]), float(parts[3]))
        except ValueError:
            raise mio.ParseError(i, f"bad number in {line!r}") from None
    return out


def _cmd_validate(args) -> int:
    X = mio.parse_complex(_read(args.input))
    rep = validate(X)
    for line in rep.as_lines():
        print(line)
    return EXIT_OK


def _cmd_check_stack(args) -> int:
    try:
        F = _load_stack(args)  # the parser rejects a map that is not a stack
    except StackError as exc:
        print("ok=False")
        print(f"error={exc}")
        return EXIT_VALIDATION
    print("ok=True")
    morse_ok, witness = is_morse(F)
    print(f"morse={morse_ok}")
    if witness is not None:
        print(f"witness_morse={_fmt_face(witness)}")
    return EXIT_OK


def _cmd_minima(args) -> int:
    F = _load_stack(args)
    dec = minima(F)
    for i, (zone, lam) in enumerate(dec.minima, start=1):
        faces = ", ".join(_fmt_face(x) for x in sorted(zone, key=face_key))
        print(f"minimum {i} @ {lam}: {faces}")
    print(f"divide_faces={len(dec.divide)}")
    return EXIT_OK


def _cmd_critical(args) -> int:
    F = _load_stack(args)
    try:
        rep = classify(F)
    except StackError:
        print(f"error=not a Morse stack (witness {_fmt_face(is_morse(F)[1])})")
        return EXIT_VALIDATION
    for p in range(F.host.dim + 1):
        for x in rep.critical_of_dim(p):
            print(f"critical {p}: {_fmt_face(x)}")
    print(f"regular_faces={len(rep.regular)}")
    return EXIT_OK


def _run_watershed(F, algo: str, seed: int) -> WatershedResult:
    if algo == "morse":
        return morse_watershed(F)
    return watershed_collapse(F, seed=seed)


def _cmd_watershed(args) -> int:
    F = _load_stack(args)
    result = _run_watershed(F, args.algo, args.seed)
    sys.stdout.write(mio.serialize_labels(result))
    print(f"# seed={args.seed} algo={args.algo}")
    in_w = result._label == WATERSHED_LABEL
    cut, drop, classes = _verify_watershed(F, in_w)
    if not cut:
        print("# verify_cut=False")
        return EXIT_VERIFICATION
    if not drop:
        print("# verify_drop_of_water=False")
        return EXIT_VERIFICATION
    if not _labels_hold(result._label, in_w, *classes):
        print("# verify_labels=False")
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_msf(args) -> int:
    F = _load_stack(args)
    in_y, is_root = _forest_masks(F)
    pk = F.host.packed()
    lo, hi = pk.facet_graph
    w = F.alt_array()[pk.seps]
    rows = _top_rows(pk)
    face = " ".join(["%d"] * rows.shape[1])
    k = np.flatnonzero(in_y)
    k = k[np.lexsort((hi[k], lo[k]))]  # lexicographic by the two face rows
    sys.stdout.write(
        mio._format_table(f"{face} | {face} : %d\n", *rows[lo[k]].T.tolist(),
                          *rows[hi[k]].T.tolist(), w[k].tolist())
    )
    print(f"total_weight={sum(w[k].tolist())}")  # Python ints: no int64 wrap-around
    if args.dot:
        style = np.where(in_y, " style=bold color=blue", "")
        sys.stdout.write(_dot("facets", pk, edge=(' [label="%d"%s]', [w, style])))
    if args.verify:
        checks = _msf_certificate(F, in_y, is_root)
        for k, v in sorted(checks.items()):
            print(f"check_{k}={v}")
        if not all(checks.values()):
            return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.what == "torus":
        if min(args.n, args.m) < 3:
            print(f"gen torus needs --n, --m >= 3, not {args.n}, {args.m}", file=sys.stderr)
            return EXIT_USAGE
        if args.n * args.m > np.iinfo(np.intp).max:  # past what numpy can index
            print(f"gen torus: a {args.n} x {args.m} grid is too large", file=sys.stderr)
            return EXIT_USAGE
        X = generate_torus(args.n, args.m)
        sys.stdout.write(mio.serialize_complex(X))
    elif args.what == "cyc6":
        sys.stdout.write(mio.serialize_stack(fixtures.cyc6_stack()))
    elif args.what == "wedge":
        sys.stdout.write(mio.serialize_complex(fixtures.wedge()))
    elif args.what == "branch":
        sys.stdout.write(mio.serialize_complex(fixtures.branching_triangles()))
    elif args.what == "random-morse":
        if not args.input:
            print("gen random-morse needs a complex file", file=sys.stderr)
            return EXIT_USAGE
        if args.minima < 1:
            print(f"gen random-morse needs --minima >= 1, not {args.minima}", file=sys.stderr)
            return EXIT_USAGE
        X = mio.parse_complex(_read(args.input))
        sys.stdout.write(
            mio.serialize_stack(
                random_morse_stack(X, seed=args.seed, n_minima=args.minima)
            )
        )
    return EXIT_OK


def _cmd_export(args) -> int:
    F = _load_stack(args)
    result = _run_watershed(F, args.algo, args.seed)
    coords = None
    if args.format == "off":
        if not args.coords:
            print("off export needs --coords", file=sys.stderr)
            return EXIT_USAGE
        coords = _parse_coords(_read(args.coords))
    sys.stdout.write(export_labels(result, args.format, coords))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseshed",
        description="Watersheds of simplicial stacks on normal pseudomanifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stack_flags(p):
        p.add_argument("input")
        p.add_argument("--complete", choices=("none", "max"), default="none")

    p = sub.add_parser("validate", help="pseudomanifold validation report")
    p.add_argument("input")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-stack", help="stack and Morse-stack checks")
    add_stack_flags(p)
    p.set_defaults(func=_cmd_check_stack)

    p = sub.add_parser("minima", help="regional minima and divide")
    add_stack_flags(p)
    p.set_defaults(func=_cmd_minima)

    p = sub.add_parser("critical", help="critical faces of a Morse stack")
    add_stack_flags(p)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("watershed", help="compute and verify a watershed")
    add_stack_flags(p)
    p.add_argument("--algo", choices=("collapse", "morse"), default="collapse")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_watershed)

    p = sub.add_parser("msf", help="watershed forest of a Morse stack")
    add_stack_flags(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_msf)

    p = sub.add_parser("gen", help="generate fixtures")
    p.add_argument("what", choices=("torus", "cyc6", "wedge", "branch", "random-morse"))
    p.add_argument("input", nargs="?")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--minima", type=int, default=1,
                   help="number of regional minima for random-morse")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export", help="export watershed labels")
    add_stack_flags(p)
    p.add_argument("--format", choices=("labels", "dot", "off"), default="labels")
    p.add_argument("--coords")
    p.add_argument("--algo", choices=("collapse", "morse"), default="morse")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_export)
    return parser


_parser = None  # built on the first call of `main`; parse_args leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except mio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StackError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, MemoryError) as exc:  # an unreadable input, or too large a request
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:  # a faulty kernel: its result cannot be checked
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
