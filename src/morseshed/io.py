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
and the altitude; at most 18 characters per number (a sign and 17
digits, or 18 digits: every such number fits in int64), no comments,
blank lines, tabs or carriage returns.  The tokenizer `_read_rows` finds
where each number ends and how long it is from byte masks, checks the
layout on those positions, and then reads the digits itself with
whole-array word arithmetic (the SWAR digit parsing of Lemire, "Number
parsing at a gigabyte per second", Softw. Pract. Exp. 51(8), 2021): the
text sits after 8 zero bytes, so an unaligned little-endian uint64 view
with a stride of one byte holds the 8 bytes before every position; one
gather at the ends gives each number's last 8 bytes, a mask picked by
its digit count keeps the digits, and three multiply-shift-mask rounds
join them into the value.  A longer number repeats this 8 and 16 bytes
earlier, and a number that starts with `-` loses one digit and its sign.
The parsed numbers of the lines with k vertices form an (n, k + 1) array
(k without the tag column) by one `reshape` of a contiguous slice when
the lines come grouped by vertex count, as every text of the writers
does; other line orders are grouped by one stable argsort of the
per-line counts first.  `Complex` then packs the rows, and the
altitudes follow the packer's row order.  Any other text, including
every malformed one, goes through the line loop, which is the only place
a parse error is raised.  The padded text, the three byte masks and the
lengths (of the numbers, then their digits, then scratch space for the
word gather, then the lengths of the gaps) live in buffers kept per
thread (`_work`), grown for a longer text, up to 1 MiB each: a parse
then writes them into pages it wrote before, where fresh ones per call
left the job's page faults to the heap state the caller left.

Beside those buffers, each thread keeps the hosts that the stack parser
packed (`_kept.hosts`), keyed by the shapes of the parsed blocks, up to
_KEEP_FACES faces in all; the least recently used host goes out first,
and a larger host is packed and not kept.  A text whose vertex columns,
read through a kept host's `order`, are that host's rows is read onto
it: nothing is copied or packed, the altitudes are gathered by `order`,
and the facet graph and the assembly map built for an earlier stack
serve this one (a complex's arrays are read-only, so sharing them is
safe).  Any other text, a repeated or missing face included, is packed
as before.  So a process that reads many stacks on one host packs it
once; one that parses a single stack (a `morseshed` command) gains
nothing and pays one dict lookup.

Every line loop reads its faces with `_read_face`, which takes a canonical
face as read and raises the ParseError of any other token.

The writers share `_write_rows`, which lays out each dimension as one
fixed-width byte record per face: the vertex ids gathered by rank from a
table of their NUL-padded decimal strings, the separators at fixed
columns, and the tag gathered from a second table (`_value_table`): the
values lo..hi, or each face's value when that range is wider than the
face count, with `W` for the cut in a label table.  One pass then drops
the NUL padding.  The strings of a range 0..n-1 (dense vertex ids, the
label ids 0..max, a stack table from 0) are a read-only slice of one
table kept for the process (`_range_decimals`), rebuilt only for a
longer range, so a process that writes many texts formats them once;
the table keeps a space after each string, so the id table of dense ids,
space included, is a slice as well.  Every other table goes through
`_decimals`.
"""

from __future__ import annotations

import threading
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


def _spaced(strings):
    """A `_decimals`-style table with a space after each row."""
    table = np.full((len(strings), strings.shape[1] + 1), ord(" "), dtype=np.uint8)
    table[:, :-1] = strings
    return table


def _range_table(n: int):
    """The strings of 0..n-1 as `_decimals` lays them out, each followed
    by a space, read-only: the form `_RANGE` keeps."""
    table = _spaced(_decimals(np.arange(n, dtype=np.int64)))
    table.flags.writeable = False
    return table


_RANGE = _range_table(1)  # of 0..N-1, the longest range asked for


def _range_decimals(n: int, spaced: bool = False):
    """`_decimals(np.arange(n))` for n >= 1, each row followed by a space
    when `spaced`, as a read-only view of the kept table `_RANGE`: its
    first n rows, less the NUL columns that the width of n - 1 leaves out.
    A longer range rebuilds the table; the slice is taken from the table
    read or built here, so a rebuild in another thread cannot shorten it."""
    global _RANGE
    table = _RANGE
    if n > len(table):
        table = _RANGE = _range_table(n)
    w = table.shape[1]
    return table[:n, w - 1 - len(str(n - 1)):w if spaced else w - 1]


def _tags(values, lo: int):
    """(table, strings, index): `_value_table(values, lo)` and the
    `_decimals` of its table, read from the kept table when that is a
    range from 0 (`_value_table` returns `values` itself when it is no
    range)."""
    table, index = _value_table(values, lo)
    if lo or table is values:
        return table, _decimals(table), index
    return table, _range_decimals(table.size), index


_COLON = np.frombuffer(b": ", dtype=np.uint8)


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
    nv = vertex_ids.size  # distinct, ascending and non-negative: 0..nv-1 when the last is nv - 1
    if vertex_ids[-1] == nv - 1:
        id_table = _range_decimals(nv, spaced=True)
    else:
        id_table = _spaced(_decimals(vertex_ids))
    w = id_table.shape[1]
    if tags is not None:
        table, index = tags
        tag_table = np.empty((len(table), table.shape[1] + 3), dtype=np.uint8)
        tag_table[:, :2] = _COLON
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
_KEEP_BYTES = 1 << 20  # the largest tokenizer buffer kept between calls
_KEEP_FACES = 1 << 16  # the most faces of the hosts kept between calls
_kept = threading.local()


def _work(name: str, n: int, dtype):
    """n entries of the tokenizer buffer `name`: a slice of one kept for
    this thread and grown for a longer text, or, past _KEEP_BYTES, one
    made for this call alone."""
    if n * np.dtype(dtype).itemsize > _KEEP_BYTES:
        return np.empty(n, dtype=dtype)
    buf = getattr(_kept, name, None)
    if buf is None or buf.size < n:
        buf = np.empty(n, dtype=dtype)
        setattr(_kept, name, buf)
    return buf[:n]


# k digits are the last (highest) k bytes of a little-endian word, the
# first digit in the lowest of them; the mask keeps their low nibbles,
# which are the digits ("0" is 0x30), and zeros in front of them
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F << 8 * (8 - k) & (1 << 64) - 1 for k in range(9)], dtype=np.uint64
)
# (multiplier, shift, mask) of the rounds that join fields of n = 1, 2 and 4
# digits, 8n bits each: the multiply adds 10**n times each field into the
# next, the shift moves the sums down one field, and the mask keeps every
# other field, each now the 2n digits of two.  The last round needs no
# mask: the one field left is below 10**8.
_ROUNDS = (
    (np.uint64(1 + (10 << 8)), np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(1 + (100 << 16)), np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(1 + (10000 << 32)), np.uint64(32), None),
)
_TEN_TO_THE_8 = np.uint64(10**8)


def _digit_values(words, at, ndigits, longest: int):
    """The values of the numbers of ndigits[i] digits, at most `longest`,
    that end before the text positions at[i]: `words` holds the 8 bytes
    before each position as a little-endian word.  The digits before the
    last 8 are a number of their own, read 8 positions earlier.  The
    int64 array `ndigits` is overwritten."""
    if longest > 8:
        long = np.flatnonzero(ndigits > 8)
        high = _digit_values(words, at[long] - 8, ndigits[long] - 8, longest - 8)
    out = _DIGIT_MASKS.take(ndigits, mode="clip")
    out &= words.take(at, out=ndigits.view(np.uint64), mode="clip")
    for mul, shift, keep in _ROUNDS:
        out *= mul
        out >>= shift
        if keep:
            out &= keep
    if longest > 8:
        high *= _TEN_TO_THE_8
        out[long] += high
    return out


def _read_rows(text: str, tagged: bool):
    """The numbers of a text in the canonical layout (see the module
    docstring), one (n, k + 1) int64 array per vertex count k = 1, 2, ...
    when `tagged` (each line's vertex ids, then the number after ` : `,
    which every line has) and one (n, k) array otherwise (no line has a
    tag); the rows in line order.  None for any other text."""
    if not text.endswith("\n") or not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # the text, the byte masks and the lengths are slices of the kept
    # buffers; the text follows 8 zero bytes, so every position has a
    # word of the 8 bytes before it
    padded = _work("text", raw.size + 8, np.uint8)
    padded[:8] = 0
    a = padded[8:]
    a[:] = raw
    digit, num, other = _work("masks", 3 * a.size, np.bool_).reshape(3, -1)
    np.subtract(a, np.uint8(ord("0")), out=digit.view(np.uint8))
    np.less(digit.view(np.uint8), 10, out=digit)  # wraps around below "0"
    np.equal(a, ord("-"), out=num)
    num |= digit  # the characters of a number
    allowed = np.count_nonzero(num)  # the classes are disjoint: their counts add
    for c in " \n:" if tagged else " \n":
        allowed += np.count_nonzero(np.equal(a, ord(c), out=other))
    if not num[0] or allowed != a.size:
        return None
    # maximal runs alternate: number, gap, number, gap, ..., the final gap
    bounds = np.flatnonzero(np.not_equal(num[1:], num[:-1], out=other[:-1]))
    bounds += 1
    ends = bounds[0::2]  # where each number ends and its gap begins
    starts = bounds[1::2]  # where each number but the first begins
    count = ends.size  # of numbers
    length = _work("lengths", count, np.int64)  # first each number's length
    length[0] = ends[0]
    np.subtract(ends[1:], starts, out=length[1:])
    longest = int(length.max())
    if longest > _MAX_NUMBER_LEN:
        return None
    # "-" only as the first character of a number, before a digit; a[-1]
    # is the final newline, so a "-" at 0 passes the first test
    minus = np.flatnonzero(np.equal(a, ord("-"), out=other))
    if minus.size and (num[minus - 1].any() or not digit[minus + 1].all()):
        return None
    # the 8 bytes before each position, as one little-endian word
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    if minus.size:
        negative = np.searchsorted(ends, minus)  # the number each "-" starts
        length[negative] -= 1  # now the number of digits
    nums = _digit_values(words, ends, length, longest).view(np.int64)
    if minus.size:
        nums[negative] *= -1
    gap_len = length  # `_digit_values` is done with it
    np.subtract(starts, ends[:-1], out=gap_len[:-1])  # the gap after each number
    gap_len[-1] = a.size - ends[-1]
    gap = a[ends]  # the first character of each gap
    single = gap_len == 1
    space = gap == ord(" ")
    space &= single
    newline = gap == ord("\n")
    newline &= single
    if tagged:
        # " : " from the first three bytes of each gap; a[-1] is the final
        # newline, so a gap that the clip cuts short has no colon
        colon = gap_len == 3
        colon &= gap == ord(" ")
        colon &= a.take(ends + 1, mode="clip") == ord(":")
        colon &= a.take(ends + 2, mode="clip") == ord(" ")
        # each line: ids joined by single spaces, " : ", the tag, "\n"
        if (not (space | colon | newline).all() or newline[0]
                or (colon[:-1] != newline[1:]).any()):
            return None
    elif not (space | newline).all():  # each line: ids joined by single spaces, "\n"
        return None
    del raw, padded, a, bounds, ends, starts, words
    last = np.flatnonzero(newline)  # the last number of each line
    first = np.empty_like(last)
    first[0] = 0
    np.add(last[:-1], 1, out=first[1:])
    descent = np.less_equal(nums[1:], nums[:-1])
    descent &= space[:-1]  # number i and i + 1 are ids of one line
    if descent.any() or minus.size and nums[first].min() < 0:
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


def _kept_host(key, blocks) -> Complex | None:
    """The host kept for this thread under `key` when the vertex columns
    of the parsed blocks, read through its `order`, are its rows; None
    when there is none.  A host found becomes the most recently used."""
    hosts = getattr(_kept, "hosts", None)
    host = hosts.get(key) if hosts else None
    if host is None or not all(
        np.array_equal(b[:, :-1] if o is None else b[o, :-1], r)
        for b, o, r in zip(blocks, host.order, host.rows)
    ):
        return None
    hosts[key] = hosts.pop(key)  # the dict runs from least to most recently used
    return host


def _keep_host(key, host: Complex) -> None:
    """Keep `host` for this thread under `key`, in place of any host kept
    there, putting out the least recently used ones while the kept faces
    number more than _KEEP_FACES; a host larger than that is not kept."""
    if len(host) > _KEEP_FACES:
        return
    hosts = getattr(_kept, "hosts", None)
    if hosts is None:
        hosts = _kept.hosts = {}
    hosts.pop(key, None)
    total = len(host) + sum(map(len, hosts.values()))
    while total > _KEEP_FACES:
        total -= len(hosts.pop(next(iter(hosts))))
    hosts[key] = host


def _parse_canonical_stack(text: str) -> Stack | None:
    """The stack of a text in the canonical layout (see the module
    docstring), or None for any other text.  Its host is the one kept for
    the shapes of the parsed blocks when the text lists that host's
    faces; otherwise the rows are packed, and the new host is kept."""
    blocks = _read_rows(text, tagged=True)
    if blocks is None:
        return None
    key = tuple(b.shape for b in blocks)
    host = _kept_host(key, blocks)
    if host is None:
        try:
            host = Complex(_rows=[np.ascontiguousarray(b[:, :-1]) for b in blocks])
        except InvalidSimplexError:  # a face repeated or missing
            return None
        _keep_host(key, host)
    # the altitudes follow the packer's rows
    return _stack_from_array(host, np.concatenate(
        [b[:, -1] if o is None else b[o, -1] for b, o in zip(blocks, host.order)]
    ))


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
    _, strings, index = _tags(F.alt_array(), F.lambda_min)
    return _write_rows(pk.vertex_ids, pk.rows, (strings, index))


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
    values, strings, index = _tags(result._label, 0)
    w = np.zeros(strings.shape[1], dtype=np.uint8)
    w[-1] = ord("W")
    table = np.where((values == WATERSHED_LABEL)[:, None], w, strings)
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
