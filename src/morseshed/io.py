"""Line-oriented text formats for complexes, stacks, gradients and labels.

complex : one face per line, ascending vertex ids separated by spaces;
          the loader applies simplicial closure, so listing facets suffices
stack   : `v0 v1 ... vk : value`, one line per face
gradient: `x-face | y-face`
labels  : `face : W` or `face : <basin id>`

Lines beginning with `#` and blank lines are ignored everywhere.

`parse_stack` and `parse_complex` read a text in the canonical layout
with numpy: ASCII, one line per face ending in a newline, its ascending
non-negative vertex ids joined by single spaces and, in a stack, ` : `
and the altitude; at most 18 characters per number (so `np.fromstring`,
which saturates longer ones, reads every number exactly), no comments,
blank lines, tabs or carriage returns.  The parsed numbers of the lines
with k vertices form an (n, k + 1) array (k without the tag column) by
one `reshape` of a contiguous slice when the lines come grouped by vertex
count, as every text of the writers does; other line orders are grouped
by one stable argsort of the per-line counts first.  `Complex` then packs
the rows, and the altitudes follow the packer's row order.  Any other
text, including every malformed one, goes through the line loop, which
is the only place a parse error is raised.

Every line loop reads its faces with `_read_face`, which takes a canonical
face as read and raises the ParseError of any other token.

The writers share `_write_rows`, which lays out each dimension as one
fixed-width byte record per face: the vertex ids gathered by rank from a
table of their NUL-padded decimal strings, the separators at fixed
columns, and the tag gathered from a second table (`_value_table`): the
values lo..hi, or each face's value when that range is wider than the
face count, with `W` for the cut in a label table.  One pass then drops
the NUL padding.
"""

from __future__ import annotations

from operator import lt

import numpy as np

from .complexes import (
    _INT64_MAX,
    Complex,
    Face,
    InvalidSimplexError,
    _closure,
    _vertex_ranks,
    closure,
    face_key,
    make_face,
)
from .morse import GradientField
from .stacks import (
    Stack,
    StackError,
    _stack_from_array,
    _value_table,
    complete_from_facets,
    validate_stack,
)
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


def _read_face(token: str, lineno: int) -> Face:
    """The face a token lists, accepted as read when canonical; any other
    token raises the ParseError that names its fault."""
    try:
        face = tuple(map(int, token.split()))
    except ValueError as exc:
        raise ParseError(lineno, f"bad vertex id in {token.strip()!r}") from exc
    if not _is_canonical(face):
        try:
            make_face(face)
        except InvalidSimplexError as exc:
            raise ParseError(lineno, str(exc)) from exc
        raise ParseError(lineno, f"vertex ids must be strictly ascending: {token.strip()!r}")
    return face


def parse_complex(text: str) -> Complex:
    """The closure of the faces a text lists."""
    rows = _read_rows(text, tagged=False)
    if rows is None:
        return closure([_read_face(line, i) for i, line in _content_lines(text)])
    return _closure(rows)


def _format_table(line: str, *columns) -> str:
    """`line` once per row, %-formatted from the row's entry in each column
    (lists of equal length); one `%`-format for all the rows."""
    n, k = len(columns[0]), len(columns)
    args = [None] * (n * k)
    for j, column in enumerate(columns):
        args[j::k] = column
    return (line * n) % tuple(args)


_POWERS_OF_TEN = 10 ** np.arange(19, -1, -1, dtype=np.uint64)  # 10**19, ..., 10, 1


def _decimals(values):
    """The decimal strings of the int64 array `values`, as an (n, W) uint8
    table: row i holds the characters of values[i], right-aligned and
    padded on the left with NULs, W the length of the longest."""
    neg = values < 0
    magnitude = values.view(np.uint64)
    if negative := neg.any():
        magnitude = np.where(neg, -magnitude, magnitude)  # wraps to |v|, also for -2**63
    width = max(len(str(values.min())), len(str(values.max()))) if values.size else 1
    out = np.empty((values.size, width), dtype=np.uint8)
    rest = magnitude
    for c in range(width - 1, -1, -1):  # one division by a scalar per column
        q = rest // np.uint64(10)
        out[:, c] = rest - q * np.uint64(10)
        rest = q
    out += np.uint8(ord("0"))
    lead = magnitude[:, None] < _POWERS_OF_TEN[20 - width:]  # a zero before the first digit
    lead[:, -1] = False
    out[lead] = 0
    if negative:
        out[neg, lead[neg].sum(axis=1) - 1] = ord("-")
    return out


def _write_rows(vertex_ids, rows, tags=None) -> str:
    """One line per row of the int64 arrays `rows`, taken in turn: the
    row's vertex ids joined by single spaces, then, when `tags` is a pair
    (table, index) of a `_decimals`-style byte table and an int array,
    ` : ` and the tag `table[index[i]]` of row number i.  `vertex_ids`
    holds every id of the rows, distinct and ascending.

    Each row becomes a fixed-width byte record: every id is gathered by
    rank from a table of the NUL-padded id strings, each followed by a
    space (the last one a newline when there is no tag), and the tag from
    a table of ` : `, the padded tag and a newline.  One pass then drops
    every NUL."""
    if not rows:
        return ""
    ids = _decimals(vertex_ids)
    w = ids.shape[1] + 1
    id_table = np.full((len(ids), w), ord(" "), dtype=np.uint8)
    id_table[:, :-1] = ids
    if tags is not None:
        table, index = tags
        tag_table = np.zeros((len(table), table.shape[1] + 3), dtype=np.uint8)
        tag_table[:, :2] = np.frombuffer(b": ", dtype=np.uint8)
        tag_table[:, 2:-1] = table
        tag_table[:, -1] = ord("\n")
    records, lo = [], 0
    for r in rows:
        n, k = r.shape
        rec = id_table.take(_vertex_ranks(vertex_ids, r), axis=0).reshape(n, k * w)
        if tags is None:
            rec[:, -1] = ord("\n")
        else:
            rec = np.concatenate((rec, tag_table.take(index[lo:lo + n], axis=0)), axis=1)
            lo += n
        records.append(rec.ravel())
    return np.concatenate(records).tobytes().translate(None, b"\0").decode("ascii")


def serialize_complex(X: Complex) -> str:
    pk = X.packed()
    return _write_rows(pk.vertex_ids, pk.rows)


def _is_canonical(face: Face) -> bool:
    """Non-empty, strictly ascending, non-negative and within int64: what
    `_read_face` accepts."""
    return (
        bool(face)
        and face[0] >= 0
        and face[-1] <= _INT64_MAX
        and all(map(lt, face, face[1:]))
    )


_MAX_NUMBER_LEN = 18  # every number of at most 18 characters fits in int64


def _read_rows(text: str, tagged: bool):
    """The numbers of a text in the canonical layout (see the module
    docstring), one (n, k + 1) int64 array per vertex count k = 1, 2, ...
    when `tagged` (each line's vertex ids, then the number after ` : `,
    which every line has) and one (n, k) array otherwise (no line has a
    tag); the rows in line order.  None for any other text."""
    if not text.endswith("\n") or not text.isascii():
        return None
    raw = text.encode("ascii")
    a = np.frombuffer(raw, dtype=np.uint8)
    digit = (a - np.uint8(ord("0"))) < 10  # wraps around below "0"
    num = digit | (a == ord("-"))  # the characters of a number
    allowed = num | (a == ord(" ")) | (a == ord("\n"))
    if tagged:
        allowed |= a == ord(":")
    if not num[0] or np.count_nonzero(allowed) != a.size:
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
    if tagged:
        colon = gap_len == 3
        at = ends[colon]
        colon[colon] = (a[at] == ord(" ")) & (a[at + 1] == ord(":")) & (a[at + 2] == ord(" "))
        # each line: ids joined by single spaces, " : ", the tag, "\n"
        if not (space | colon | newline).all() or newline[0] or not np.array_equal(
            colon[:-1], newline[1:]
        ):
            return None
        raw = raw.replace(b":", b" ")
    elif not (space | newline).all():  # each line: ids joined by single spaces, "\n"
        return None
    nums = np.fromstring(raw, dtype=np.int64, sep=" ")
    if nums.size != starts.size:
        return None
    last = np.flatnonzero(newline)  # the last number of each line
    first = np.concatenate(([0], last[:-1] + 1))
    pair = np.flatnonzero(space)  # number i and i + 1 are ids of one line
    if nums[first].min() < 0 or (nums[pair + 1] <= nums[pair]).any():
        return None  # ids not ascending, or negative
    width = last - first + 1  # the numbers of each line
    if (width[1:] < width[:-1]).any():  # group the lines by width
        order = np.argsort(width, kind="stable")
        width = width[order]
        start = np.cumsum(width) - width  # of each line, once grouped
        nums = nums[np.repeat(first[order] - start, width) + np.arange(nums.size)]
    blocks, lo = [], 0
    for w, n in enumerate(np.bincount(width).tolist()[1 + tagged:], start=1 + tagged):
        blocks.append(nums[lo:lo + n * w].reshape(n, w))
        lo += n * w
    return blocks


def _parse_canonical_stack(text: str) -> Stack | None:
    """The stack of a text in the canonical layout (see the module
    docstring), or None for any other text."""
    blocks = _read_rows(text, tagged=True)
    if blocks is None:
        return None
    try:
        host = Complex(_rows=[np.ascontiguousarray(b[:, :-1]) for b in blocks])
    except InvalidSimplexError:  # a face repeated or missing
        return None
    order = host.packed().order  # the altitudes follow the packer's rows
    return _stack_from_array(
        host, np.concatenate([b[:, -1] if o is None else b[o, -1] for b, o in zip(blocks, order)])
    )


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
    pk = F.host.packed()
    table, index = _value_table(F.alt_array(), F.lambda_min)
    return _write_rows(pk.vertex_ids, pk.rows, (_decimals(table), index))


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
    """One `face : W` or `face : <basin id>` line per face of the host, in
    canonical order.  The tags come from a table of the ids 0..max, or of
    each face's label when the largest label exceeds the number of faces
    (`_value_table`)."""
    pk = result._pk
    values, index = _value_table(result._label, 0)
    table = _decimals(values)
    cut = values == WATERSHED_LABEL
    table[cut] = 0
    table[cut, -1] = ord("W")
    return _write_rows(pk.vertex_ids, pk.rows, (table, index))


def parse_labels(text: str) -> dict[Face, int]:
    out: dict[Face, int] = {}
    for i, line in _content_lines(text):
        face_part, colon, tag = line.partition(":")
        if not colon:
            raise ParseError(i, "expected `face : label`")
        face = _read_face(face_part, i)
        tag = tag.strip()
        try:
            out[face] = WATERSHED_LABEL if tag == "W" else int(tag)
        except ValueError as exc:
            raise ParseError(i, f"bad label {tag!r}") from exc
    return out
