"""Line-oriented text formats for complexes, stacks, gradients and labels.

complex : one face per line, ascending vertex ids separated by spaces;
          the loader applies simplicial closure, so listing facets suffices
stack   : `v0 v1 ... vk : value`, one line per face
gradient: `x-face | y-face`
labels  : `face : W` or `face : <basin id>`

Lines beginning with `#` and blank lines are ignored everywhere.
"""

from __future__ import annotations

from operator import lt

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
from .stacks import Stack, StackError
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


def parse_complex(text: str) -> Complex:
    faces = [_parse_face(line, i) for i, line in _content_lines(text)]
    return closure(faces)


def serialize_complex(X: Complex) -> str:
    return "".join(" ".join(map(str, x)) + "\n" for x in X.sorted_faces())


def _is_canonical(face: Face) -> bool:
    """Non-empty, strictly ascending, non-negative and within int64: what
    `_parse_face` accepts."""
    return (
        bool(face)
        and face[0] >= 0
        and face[-1] <= _INT64_MAX
        and all(map(lt, face, face[1:]))
    )


def parse_stack(text: str, complete: str = "none") -> Stack:
    values: dict[Face, int] = {}
    for i, line in _content_lines(text):
        face_part, colon, value_part = line.partition(":")
        if not colon:
            raise ParseError(i, "expected `face : value`")
        try:
            face = tuple(map(int, face_part.split()))
        except ValueError:
            face = ()
        if not _is_canonical(face):
            _parse_face(face_part.strip(), i)  # raises the matching ParseError
        try:
            value = int(value_part)
        except ValueError as exc:
            raise ParseError(i, f"bad altitude {value_part.strip()!r}") from exc
        if values.setdefault(face, value) != value:
            raise ParseError(i, f"conflicting altitudes for {face}")
    if complete == "max":
        host = closure(values)
        missing_facets = [x for x in host.facets() if x not in values]
        if missing_facets:
            raise StackError(f"no altitude for facet {missing_facets[0]}")
        alt: dict[Face, int] = {}
        for p in range(host.dim, -1, -1):
            for x in host.faces_of_dim(p):
                if x in values:
                    alt[x] = values[x]
                else:
                    alt[x] = max(alt[y] for y in host.cofaces[x])
        F = Stack(host, alt)
    else:
        try:
            host = Complex(values, _trusted=True)
        except InvalidSimplexError:
            missing = closure(values).faces - values.keys()
            raise StackError(
                f"no altitude for face {min(missing, key=face_key)} "
                "(pass --complete=max to fill from facets)"
            ) from None
        F = Stack(host, values)
    from .stacks import validate_stack

    ok, witness = validate_stack(F)
    if not ok:
        raise StackError(f"not a stack: F{witness[0]} < F{witness[1]}")
    return F


def serialize_stack(F: Stack) -> str:
    return "".join(
        " ".join(map(str, x)) + f" : {F.altitude[x]}\n"
        for x in F.host.sorted_faces()
    )


def parse_gradient(text: str) -> GradientField:
    pairs = set()
    for i, line in _content_lines(text):
        if "|" not in line:
            raise ParseError(i, "expected `x-face | y-face`")
        xs, _, ys = line.partition("|")
        x = _parse_face(xs.strip(), i)
        y = _parse_face(ys.strip(), i)
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
    lines = []
    for x in sorted(result.labels, key=face_key):
        lab = result.labels[x]
        tag = "W" if lab == WATERSHED_LABEL else str(lab)
        lines.append(" ".join(map(str, x)) + f" : {tag}\n")
    return "".join(lines)


def parse_labels(text: str) -> dict[Face, int]:
    out: dict[Face, int] = {}
    for i, line in _content_lines(text):
        face_part, _, tag = line.partition(":")
        face = _parse_face(face_part.strip(), i)
        tag = tag.strip()
        out[face] = WATERSHED_LABEL if tag == "W" else int(tag)
    return out
