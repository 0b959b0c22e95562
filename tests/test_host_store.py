"""The hosts that the stack parser keeps per thread (`io._kept.hosts`): a
text that lists a kept host's faces is read onto that host, and every
result equals that of a parse with an empty store."""

import random
import threading

import numpy as np
import pytest

from morseshed import io
from morseshed.complexes import Complex
from morseshed.fixtures import cyc6_stack
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.stacks import random_stack
from morseshed.watershed import morse_watershed, morse_watershed_direct, watershed_collapse


def _text(n, m=None, seed=1, minima=3):
    return io.serialize_stack(random_morse_stack(generate_torus(n, m or n), seed=seed, n_minima=minima))


def _cold_parse(text):
    """`parse_stack` with an empty host store; the kept hosts stay kept."""
    kept = io._kept
    io._kept = threading.local()
    try:
        return io.parse_stack(text)
    finally:
        io._kept = kept


def _labels(F):
    return io.serialize_labels(morse_watershed(F))


def _shuffled(text, rng):
    lines = text.splitlines(keepends=True)
    rng.shuffle(lines)
    return "".join(lines)


def test_the_same_text_parsed_twice_shares_its_host(monkeypatch):
    text = _text(5)
    inits = []
    init = Complex.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Complex, "__init__", counting_init)
    F, G = io.parse_stack(text), io.parse_stack(text)
    assert F.host is G.host and inits == [1]  # the second parse packs nothing
    assert np.array_equal(F.alt_array(), G.alt_array())
    assert _labels(F) == _labels(G) == _labels(_cold_parse(text))
    assert io.serialize_stack(G) == text


def test_a_second_stack_on_a_kept_host_reads_as_a_cold_parse():
    X = generate_torus(6, 6)
    texts = [io.serialize_stack(random_morse_stack(X, seed=s, n_minima=k))
             for s, k in ((1, 3), (2, 5), (3, 1))]
    tied = io.serialize_stack(random_stack(X, seed=1, high=3))
    first = io.parse_stack(texts[0])
    for text in texts[1:] + [texts[0]]:
        F, cold = io.parse_stack(text), _cold_parse(text)
        assert F.host is first.host and cold.host is not F.host
        assert F == cold and io.serialize_stack(F) == text
        assert _labels(F) == _labels(cold)
        assert morse_watershed(F).watershed == morse_watershed_direct(F)
    F, cold = io.parse_stack(tied), _cold_parse(tied)  # ties that act: the collapse's heap
    assert F.host is first.host and F == cold
    assert watershed_collapse(F, seed=2)._label.tolist() == watershed_collapse(cold, seed=2)._label.tolist()


def test_equal_shapes_with_other_rows_miss():
    a, b = _text(4, 6), _text(6, 4)
    key = a.count("\n")
    assert [x.shape for x in io._read_rows(a, tagged=True)] == [
        x.shape for x in io._read_rows(b, tagged=True)] and b.count("\n") == key  # one key
    F = io.parse_stack(a)
    assert io._kept.hosts[key][1] is a  # a miss lays out nothing: it keeps the text
    G = io.parse_stack(b)  # lays out a, then misses
    assert G.host is not F.host and io._kept.hosts[key][1] is b
    assert G.host == generate_torus(6, 4) and G == _cold_parse(b)
    assert _labels(G) == _labels(_cold_parse(b))
    assert io.parse_stack(b).host is G.host  # the new host took the key
    assert not isinstance(io._kept.hosts[key][1], str)  # b, laid out


def test_a_miss_with_a_repeated_or_missing_face_gives_the_cold_outcome():
    text = _text(4)
    X = io.parse_stack(text).host
    lines = text.splitlines(keepends=True)
    edge = next(i for i, ln in enumerate(lines) if ln.count(" ") == 3)  # "u v : a"
    repeated = "".join(lines[:edge] + [lines[edge + 1]] + lines[edge + 1:])  # one edge twice
    missing = "".join(lines[:edge] + lines[edge + 1:])  # an edge gone
    for bad in (repeated, missing):
        assert io._parse_canonical_stack(bad) is None
        with pytest.raises(ValueError) as warm:
            io.parse_stack(bad)
        with pytest.raises(ValueError) as cold:
            _cold_parse(bad)
        assert type(warm.value) is type(cold.value) and str(warm.value) == str(cold.value)
    assert io.parse_stack(text).host is X  # still kept


def test_shuffled_lines_hit_through_the_packer_order():
    X = generate_torus(5, 5)
    texts = [io.serialize_stack(random_morse_stack(X, seed=s, n_minima=3)) for s in (1, 2)]
    shuffled = [_shuffled(t, random.Random(7)) for t in texts]  # one permutation
    F = io.parse_stack(shuffled[0])  # a miss: the packer sorts the rows
    assert sum(o is not None for o in F.host.order) == 3
    G = io.parse_stack(shuffled[1])  # a hit, the altitudes gathered by `order`
    assert G.host is F.host
    assert G == _cold_parse(texts[1]) and io.serialize_stack(G) == texts[1]
    assert _labels(G) == _labels(_cold_parse(texts[1]))
    H = io.parse_stack(texts[1])  # canonical lines: other rows, so a miss
    assert H.host is not F.host and H == G


def _outcome(parse, text):
    """(host, altitudes) of the stack `parse` reads, or the type and the
    message of what it raises."""
    try:
        F = parse(text)
    except Exception as exc:  # whatever the cold parse raises is the reference
        return type(exc), str(exc)
    return F.host, F.alt_array().tolist()


def _tag(rng):
    """A tag of 0 to 20 characters: digits, signs, leading zeros, nines
    about the 18-character bound, empty."""
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 20)))
    return rng.choice([digits, "-" + digits[:19], "--" + digits[:18], "-0", "0" * len(digits), "0" + digits[:17],
                       "9" * rng.randint(17, 20), "-" + "9" * rng.randint(16, 19), "", "-"])


def _mutants(text, rng):
    """Texts a few edits away from a canonical `text`: tags of 1 to 20
    characters, signs and leading zeros, empty ones, a stray character in
    a tag, an edited vertex id, a moved ` : `, lines swapped, dropped or
    doubled; twelve of each kind."""
    lines = text.splitlines(keepends=True)
    n = len(lines)

    def edit(i, line):
        out = lines[:]
        out[i] = line
        return "".join(out)

    for _ in range(12):
        i = rng.randrange(n)
        face, _, tag = lines[i][:-1].partition(" : ")
        yield edit(i, f"{face} : {_tag(rng)}\n")
        out = lines[:]
        for j in rng.sample(range(n), rng.randint(2, n)):  # many tags, zero-padded
            out[j] = f"{out[j].partition(' : ')[0]} : {rng.randint(-10**17, 10**17):0{rng.randint(1, 18)}d}\n"
        yield "".join(out)
        k, stray = rng.randint(0, len(tag)), rng.choice(" \r\tx:/")  # ":" and "/" border the digits
        yield edit(i, f"{face} : {tag[:k]}{stray}{tag[k:]}\n")
        t = rng.randrange(n - n // 3, n)  # a triangle: its first id is a word away from the tag
        ids = lines[t].partition(" : ")[0].split()
        j = rng.choice([0, rng.randrange(len(ids))])
        ids[j] = rng.choice([str(int(ids[j]) ^ 1), str(int(ids[j]) + 10), ids[j] + "0", "0" + ids[j]])
        yield edit(t, f"{' '.join(ids)} : {lines[t].partition(' : ')[2]}")
        words = lines[i][:-1].split(" ")
        colon = words.index(":")
        words.insert(rng.randrange(len(words)), words.pop(colon))
        yield edit(i, " ".join(words) + "\n")
        j = rng.randrange(n)
        out = lines[:]
        out[i], out[j] = out[j], out[i]
        yield "".join(out)
        yield "".join(lines[:i] + lines[i + 1:])
        yield "".join(lines[:i + 1] + lines[i:])
        yield "".join(lines[:i] + lines[i + 1:j + 1] + lines[j:]) if i < j else edit(i, lines[j])


@pytest.mark.parametrize("n,m,seed", [(4, 4, 1), (6, 6, 2), (4, 6, 3)])
def test_mutated_texts_on_a_kept_host_read_as_a_cold_parse(n, m, seed):
    rng = random.Random(seed)
    X = generate_torus(n, m)
    base = io.serialize_stack(random_morse_stack(X, seed=seed, n_minima=2))
    shifted = ["".join(f"{face} : {int(tag) + s}\n" for face, _, tag in
                       (line.partition(" : ") for line in base.splitlines()))
               for s in (10**17, -(10**16), 10**8)]  # 18, 17 and 9 digits: three and two words
    key, read = base.count("\n"), 0
    texts = shifted + list(_mutants(base, rng)) + [_shuffled(base, rng)]
    for text in texts:
        host = io.parse_stack(base).host
        assert io.parse_stack(base).host is host  # kept and laid out
        read += text.count("\n") == key and io._read_tags(text, io._kept.hosts[key][1]) is not None
        assert _outcome(io.parse_stack, text) == _outcome(_cold_parse, text), text
    assert 20 <= read <= len(texts) - 20  # both paths taken


def test_least_recently_used_hosts_go_out_first(monkeypatch):
    texts = {n: _text(n, minima=2) for n in (3, 4, 5, 6, 8)}
    faces = {n: 6 * n * n for n in texts}
    monkeypatch.setattr(io, "_KEEP_FACES", faces[3] + faces[4] + faces[5])
    hosts = {n: io.parse_stack(texts[n]).host for n in (3, 4, 5)}
    assert all(io.parse_stack(texts[n]).host is hosts[n] for n in (3, 4, 5))
    io.parse_stack(texts[3])  # 4 is now the least recently used, then 5
    six = io.parse_stack(texts[6]).host
    assert [h for h, _ in io._kept.hosts.values()] == [hosts[3], six]  # 4, then 5, went out
    assert io.parse_stack(texts[3]).host is hosts[3]
    assert io.parse_stack(texts[4]).host is not hosts[4]
    kept = dict(io._kept.hosts)
    big = io.parse_stack(texts[8])  # past the cap: packed, not kept
    assert len(big.host) > io._KEEP_FACES and io._kept.hosts == kept
    again = io.parse_stack(texts[8])
    assert again.host is not big.host and again == big


def test_threads_keep_separate_stores():
    text = _text(5)
    main = io.parse_stack(text).host
    out = [None] * 3

    def parse_twice(k):
        out[k] = [io.parse_stack(text).host for _ in range(2)]

    threads = [threading.Thread(target=parse_twice, args=(k,)) for k in range(3)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    firsts = [a for a, b in out if a is b]  # each thread finds its own host kept
    assert len(firsts) == 3 and len({id(h) for h in firsts + [main]}) == 4
    assert all(h == main for h in firsts)
    assert io.parse_stack(text).host is main


def test_a_kept_host_is_read_only():
    text = _shuffled(_text(4), random.Random(3))  # every dimension's rows reordered
    X = io.parse_stack(text).host
    assert io.parse_stack(text).host is X
    owner, blocks = X.assembly_map
    arrays = [*X.rows, X.sub, X.sup, X.dim_offset, *X.keys[1:], *X.order, *X.bd,
              X.n_cofaces, *X.facet_graph, owner, *(a for b in blocks for a in b), X.vertex_ids]
    assert len(arrays) == 21  # three dimensions, one block
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
    rows = np.array([[0], [1]])  # a caller's own rows keep their flag
    Complex(_rows=[rows, np.array([[0, 1]])])
    rows[0, 0] = 0
    F = cyc6_stack()  # a stack's altitudes are its own
    F.alt_array()[0] = F.alt_array()[0]
