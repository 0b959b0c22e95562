"""Line-oriented text formats for complexes, stacks, gradients and labels.

complex : one face per line, ascending vertex ids separated by spaces;
          the loader applies simplicial closure, so listing facets suffices
stack   : `v0 v1 ... vk : value`, one line per face
gradient: `x-face | y-face`
labels  : `face : W` or `face : <basin id>`

Lines beginning with `#` and blank lines are ignored everywhere.

`parse_stack` reads a text in the canonical layout with numpy: ASCII, one
`v0 ... vk : a` line per face ending in a newline, single spaces, at most
18 characters per number (so `np.fromstring`, which saturates longer
ones, reads every number exactly), no comments, blank lines, tabs or
carriage returns, and ascending non-negative vertex ids listing every face
exactly once.  Any other text, including every malformed one, goes through
the line loop, which is the only place a parse error is raised.

Every line loop reads its faces with `_read_face`, which takes a canonical
face as read and leaves any other token to `_parse_face` for its ParseError.

The writers format one dimension at a time from the vertex arrays of the
packed host, whose order is canonical, with one `%`-format per dimension.
"""

from __future__ import annotations

from itertools import groupby
from operator import lt

import numpy as np

from .complexes import (
    _INT64_MAX,
    Complex,
    Face,
    InvalidSimplexError,
    closure,
    face_key,
    make_face,
)
from .morse import GradientField
from .stacks import Stack, StackError, _stack_from_array, complete_from_facets, validate_stack
from .watershed import WATERSHED_LABEL, WatershedResult


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield i, line


def _parse_face(token: str, lineno: int) -> Face:
    try:
        ids = [int(t) for t in token.split()]
    except ValueError as exc:
        raise ParseError(lineno, f"bad vertex id in {token!r}") from exc
    try:
        face = make_face(ids)
    except InvalidSimplexError as exc:
        raise ParseError(lineno, str(exc)) from exc
    if tuple(ids) != face:
        raise ParseError(lineno, f"vertex ids must be strictly ascending: {token!r}")
    return face


def _read_face(token: str, lineno: int) -> Face:
    """The face a token lists: accepted as read when canonical, and
    otherwise handed to `_parse_face` for its ParseError."""
    try:
        face = tuple(map(int, token.split()))
    except ValueError:
        face = ()
    if not _is_canonical(face):
        _parse_face(token.strip(), lineno)  # raises the matching ParseError
    return face


def parse_complex(text: str) -> Complex:
    return closure([_read_face(line, i) for i, line in _content_lines(text)])


def _format_table(line: str, *columns) -> str:
    """`line` once per row, %-formatted from the row's entry in each column
    (lists of equal length); one `%`-format for all the rows."""
    n, k = len(columns[0]), len(columns)
    args = [None] * (n * k)
    for j, column in enumerate(columns):
        args[j::k] = column
    return (line * n) % tuple(args)


def _format_rows(rows, tags=None) -> str:
    """One line per row of the int array `rows`: its ids joined by single
    spaces, then ` : ` and the row's tag when `tags` is given."""
    n, k = rows.shape
    line = " ".join(["%d"] * k)
    if tags is None:
        return ((line + "\n") * n) % tuple(rows.ravel().tolist())
    return _format_table(line + " : %s\n", *rows.T.tolist(), tags)


def serialize_complex(X: Complex) -> str:
    return "".join(map(_format_rows, X.packed().rows))


def _is_canonical(face: Face) -> bool:
    """Non-empty, strictly ascending, non-negative and within int64: what
    `_parse_face` accepts."""
    return (
        bool(face)
        and face[0] >= 0
        and face[-1] <= _INT64_MAX
        and all(map(lt, face, face[1:]))
    )


_MAX_NUMBER_LEN = 18  # every number of at most 18 characters fits in int64


def _parse_canonical_stack(text: str) -> Stack | None:
    """The stack of a text in the canonical layout (see the module
    docstring), or None for any other text."""
    if not text.endswith("\n") or not text.isascii():
        return None
    raw = text.encode("ascii")
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = (a - np.uint8(ord("0"))) < 10  # wraps around below "0"
    num = digit | (a == ord("-"))  # the characters of a number
    if not num[0] or np.count_nonzero(
        num | (a == ord(" ")) | (a == ord(":")) | (a == ord("\n"))
    ) != a.size:
        return None
    # maximal runs alternate: number, gap, number, gap, ..., the final gap
    bounds = np.flatnonzero(num[1:] != num[:-1]) + 1
    starts = np.concatenate(([0], bounds[1::2]))
    ends = bounds[0::2]  # where each number ends and its gap begins
    gap_len = np.append(bounds[1::2], a.size) - ends
    if (ends - starts).max() > _MAX_NUMBER_LEN:
        return None
    # "-" only as the first character of a number, before a digit; a[-1]
    # is the final newline, so a "-" at 0 passes the first test
    minus = np.flatnonzero(a == ord("-"))
    if minus.size and (num[minus - 1].any() or not digit[minus + 1].all()):
        return None
    space = (gap_len == 1) & (a[ends] == ord(" "))
    newline = (gap_len == 1) & (a[ends] == ord("\n"))
    colon = gap_len == 3
    at = ends[colon]
    colon[colon] = (a[at] == ord(" ")) & (a[at + 1] == ord(":")) & (a[at + 2] == ord(" "))
    # each line: ids joined by single spaces, " : ", the altitude, "\n"
    if not (space | colon | newline).all() or newline[0] or not np.array_equal(
        colon[:-1], newline[1:]
    ):
        return None
    nums = np.fromstring(raw.replace(b":", b" "), dtype=np.int64, sep=" ")
    if nums.size != starts.size:
        return None
    alt_at = np.flatnonzero(newline)  # the altitude of each line
    first_id = np.concatenate(([0], alt_at[:-1] + 1))
    k = alt_at - first_id  # vertices per line
    rows, alts = [], []
    for p in range(int(k.max())):
        lines = np.flatnonzero(k == p + 1)
        r = nums[first_id[lines, None] + np.arange(p + 1)]
        if r.size and (r[:, 0].min() < 0 or (r[:, 1:] <= r[:, :-1]).any()):
            return None  # ids not ascending, or negative
        order = np.lexsort(r.T[::-1])
        rows.append(r[order])
        alts.append(nums[alt_at[lines]][order])
    try:
        host = Complex(_rows=rows)
    except InvalidSimplexError:  # a face repeated or missing
        return None
    return _stack_from_array(host, np.concatenate(alts))


def parse_stack(text: str, complete: str = "none") -> Stack:
    """The stack a text lists.  `complete="max"` gives each face without a
    line the largest altitude of its cofaces; a text in the canonical
    layout lists every face, so both modes read it on the array path."""
    F = _parse_canonical_stack(text)
    if F is None:
        F = _parse_stack_lines(text, complete)
    ok, witness = validate_stack(F)
    if not ok:
        raise StackError(f"not a stack: F{witness[0]} < F{witness[1]}")
    return F


def _parse_stack_lines(text: str, complete: str) -> Stack:
    values: dict[Face, int] = {}
    for i, line in _content_lines(text):
        face_part, colon, value_part = line.partition(":")
        if not colon:
            raise ParseError(i, "expected `face : value`")
        face = _read_face(face_part, i)
        try:
            value = int(value_part)
        except ValueError as exc:
            raise ParseError(i, f"bad altitude {value_part.strip()!r}") from exc
        if values.setdefault(face, value) != value:
            raise ParseError(i, f"conflicting altitudes for {face}")
    host = closure(values)
    if complete == "max":
        return complete_from_facets(host, values)
    if len(host) != len(values):  # the listed faces are not closed
        missing = host.faces - values.keys()
        raise StackError(
            f"no altitude for face {min(missing, key=face_key)} "
            "(pass --complete=max to fill from facets)"
        )
    return Stack(host, values)


def serialize_stack(F: Stack) -> str:
    pk, alt = F.host.packed(), F.alt_array()
    off = pk.dim_offset.tolist()
    return "".join(
        _format_rows(rows, alt[off[p]:off[p + 1]].tolist())
        for p, rows in enumerate(pk.rows)
    )


def parse_gradient(text: str) -> GradientField:
    pairs = set()
    for i, line in _content_lines(text):
        if "|" not in line:
            raise ParseError(i, "expected `x-face | y-face`")
        xs, _, ys = line.partition("|")
        x = _read_face(xs, i)
        y = _read_face(ys, i)
        if len(x) != len(y) - 1 or not set(x) <= set(y):
            raise ParseError(i, f"({x}, {y}) is not a covering pair")
        pairs.add((x, y))
    return GradientField(frozenset(pairs))


def serialize_gradient(V: GradientField) -> str:
    pairs = sorted(V.pairs, key=lambda p: (face_key(p[0]), face_key(p[1])))
    return "".join(
        " ".join(map(str, x)) + " | " + " ".join(map(str, y)) + "\n"
        for x, y in pairs
    )


def serialize_labels(result: WatershedResult) -> str:
    if result._label is not None:
        rows, label = result._pk.rows, result._label.tolist()
        table = [str(v) for v in range(max(label, default=0) + 1)]
        table[WATERSHED_LABEL] = "W"
        tags = list(map(table.__getitem__, label))
    else:  # built from a labels dict: sort its faces
        faces = sorted(result.labels, key=face_key)
        rows = [np.array(list(g), dtype=np.int64) for _, g in groupby(faces, key=len)]
        tags = [
            "W" if v == WATERSHED_LABEL else str(v) for v in map(result.labels.__getitem__, faces)
        ]
    out, lo = [], 0
    for r in rows:
        out.append(_format_rows(r, tags[lo:lo + len(r)]))
        lo += len(r)
    return "".join(out)


def parse_labels(text: str) -> dict[Face, int]:
    out: dict[Face, int] = {}
    for i, line in _content_lines(text):
        face_part, _, tag = line.partition(":")
        face = _read_face(face_part, i)
        tag = tag.strip()
        out[face] = WATERSHED_LABEL if tag == "W" else int(tag)
    return out
