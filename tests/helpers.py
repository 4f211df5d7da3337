"""Shared test helpers: functions only the tests use, and seeded inputs.

Importable from every test module because pytest puts this directory on
``sys.path``.
"""

import functools
import itertools
import os
import random
import sys
from dataclasses import replace

import numpy as np

from hnnembed.hnn import PartialAscendingHNN, validate
from hnnembed.parsing import parse_word
from hnnembed.presentation import Presentation, best_piece_decomposition
from hnnembed.stallings import CoreGraph, canonical_form
from hnnembed.subquotient import (
    LiftFailure,
    NoDuplicatesReport,
    SubcomplexSpec,
    TwoCellDiagram,
    quotient,
)
from hnnembed.suffixes import PieceReport
from hnnembed.words import (
    Alphabet,
    Word,
    cyclic_reduce,
    cyclically_equal,
    exponent,
    random_reduced_word,
    relabel,
)

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def presentation_from_strings(gens: str, rels, names=()) -> Presentation:
    """Build from space-separated generator names and relator words."""
    ab = Alphabet(tuple(gens.split()))
    return Presentation(ab, tuple(parse_word(ab, r) for r in rels), tuple(names))


def hnn_from_strings(ascending, free=(), stable: str = "t") -> PartialAscendingHNN:
    """Build from (generator, image word) pairs and free generator names."""
    names = tuple(n for n, _ in ascending)
    ab = Alphabet(names + tuple(free) + (stable,))
    return PartialAscendingHNN(
        names, tuple(free), tuple(parse_word(ab, w) for _, w in ascending), stable
    )


def count_projections(monkeypatch) -> list:
    """Record each spec whose projection is computed, not read back."""
    calls: list = []
    real = SubcomplexSpec.__dict__["projection"].func

    def counted(spec):
        calls.append(spec)
        return real(spec)

    prop = functools.cached_property(counted)
    prop.__set_name__(SubcomplexSpec, "projection")
    monkeypatch.setattr(SubcomplexSpec, "projection", prop)
    return calls


def digrams(w: Word) -> set[tuple[int, int]]:
    """Set of consecutive letter pairs of the literal (linear) word."""
    ls = w.letters
    return {(ls[i], ls[i + 1]) for i in range(len(ls) - 1)}


def graphs_equal(a: CoreGraph, b: CoreGraph) -> bool:
    """Equal alphabets and equal based labeled graphs up to vertex naming."""
    return a.alphabet == b.alphabet and canonical_form(a) == canonical_form(b)


def _spell(
    edges: list[tuple[int, int, int]], n: int, start: int, w: Word, end: int | None
) -> tuple[int, int]:
    """Append a path reading ``w`` from ``start`` through fresh vertices to
    ``end``, or to one more fresh vertex when ``end`` is None.  Returns the
    new vertex count and the path's last vertex."""
    if not w:
        return n, start
    fresh = len(w) - (end is not None)
    path = [start, *range(n, n + fresh)]
    if end is not None:
        path.append(end)
    edges += [
        (p, q, x) if x > 0 else (q, p, -x) for p, q, x in zip(path, path[1:], w.letters)
    ]
    return n + fresh, path[-1]


def hang(core: CoreGraph, loops) -> CoreGraph:
    """The core with each loop hung at its basepoint: an oracle for the
    irreducible certificate's wedge test, which builds no graph.

    A loop's stem (its conjugator) becomes a path out of the basepoint
    and its cyclically reduced part a cycle at the stem's end.  The
    result is marked folded exactly when the core is and the basepoint
    reads no signed label twice, the certificate's own test; the tests
    check that flag against :func:`hnnembed.stallings.fold`.
    """
    edges = list(core.edges)
    n = core.num_vertices
    star = list(core.outgoing_labels(core.basepoint))
    for w in loops:
        if w.max_letter() > core.alphabet.size:
            raise ValueError("generator word outside alphabet")
        inner, stem = cyclic_reduce(w)
        if stem:
            star.append(stem[0])
        elif inner:
            star += (inner[0], -inner[-1])
        n, at = _spell(edges, n, core.basepoint, stem, None)
        n, _ = _spell(edges, n, at, inner, at)
    folded = core.folded and len(star) == len(set(star))
    return replace(core, num_vertices=n, edges=tuple(edges), folded=folded)


def random_cyclically_reduced_word(rng, rank: int, length: int) -> Word:
    """Like ``random_reduced_word`` but also reduced around the wrap."""
    if length <= 1:
        return random_reduced_word(rng, rank, length)
    while True:
        w = random_reduced_word(rng, rank, length)
        if w.letters[0] != -w.letters[-1]:
            return w


def stack_free_reduce(w: Word) -> Word:
    """``free_reduce`` as one stack pass over every letter, the oracle for
    the numpy-cut version."""
    out: list[int] = []
    for x in w.letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return Word(tuple(out))


def min_piece_decomposition(per_offset) -> int | None:
    """Fewest pieces whose concatenation is some rotation of the word."""
    return best_piece_decomposition(per_offset)


def all_starts_piece_decomposition(per_offset) -> int | None:
    """Fewest pieces by greedy longest jumps from every start: an oracle
    for :func:`hnnembed.presentation.best_piece_decomposition`, which
    tries only the starts after a shortest piece."""
    n = len(per_offset)
    if any(v == 0 for v in per_offset):
        return None
    best: int | None = None
    for start in range(n):
        covered = count = 0
        pos = start
        while covered < n and (best is None or count < best):
            step = per_offset[pos % n]
            covered += step
            pos += step
            count += 1
        if covered >= n and (best is None or count < best):
            best = count
    return best


def inside_cells(spec: SubcomplexSpec) -> tuple[int, ...]:
    """The cells whose boundary reads only the subcomplex's generators,
    letter by letter: an oracle for ``quotient(spec).dropped``, which the
    projection reads off the empty projected words."""
    gens = spec.sub_generators
    return tuple(i for i, r in enumerate(spec.parent.relators) if all(abs(x) in gens for x in r))


def pairwise_no_duplicates(spec: SubcomplexSpec) -> NoDuplicatesReport:
    """Every pair of cells compared: an oracle for
    :func:`hnnembed.subquotient.check_no_duplicates`, which compares only
    cells whose projections share a least rotation."""
    q = quotient(spec)
    cells = [(pr.source, spec.parent.relators[pr.source], pr.word) for pr in q.projected]
    collisions = []
    inverted = []
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            s1, r1, p1 = cells[a]
            s2, r2, p2 = cells[b]
            # projections that are empty or differ in length never collide
            if not p1 or len(p1) != len(p2):
                continue
            if cyclically_equal(p1, p2) and not cyclically_equal(r1, r2):
                collisions.append((s1, s2))
            if cyclically_equal(p1, p2.inverse()) and not cyclically_equal(r1, r2.inverse()):
                inverted.append((s1, s2))
    return NoDuplicatesReport(not collisions, tuple(collisions), tuple(inverted))


def pairwise_liftability_search(spec: SubcomplexSpec) -> LiftFailure | None:
    """Every pair of cells and every pair of their rotations compared: an
    oracle for :func:`hnnembed.subquotient.liftability_counterexample_search`,
    which keys rotations by least rotation and residue."""
    parent = spec.parent
    cells = []
    for pr in quotient(spec).projected:
        if not pr.word:
            continue
        rel = parent.relators[pr.source]
        kept_positions = [k for k, x in enumerate(rel.letters) if abs(x) not in spec.sub_generators]
        cells.append((pr.source, pr.word.letters, rel.letters, kept_positions))

    def rotation(ls, off):
        return ls[off:] + ls[:off]

    for a in range(len(cells)):
        for b in range(a, len(cells)):
            s1, p1, r1, kp1 = cells[a]
            s2, p2, r2, kp2 = cells[b]
            if len(p1) != len(p2):
                continue
            for o1 in range(len(p1)):
                q1 = rotation(p1, o1)
                for o2 in range(len(p2)):
                    if a == b and o1 == o2:
                        continue
                    if q1 != rotation(p2, o2):
                        continue
                    u1 = kp1[o1]
                    u2 = kp2[o2]
                    if rotation(r1, u1) != rotation(r2, u2):
                        return LiftFailure(TwoCellDiagram(s1, s2, q1[0], o1, o2), u1, u2)
    return None


def pairwise_distinct(stored) -> bool:
    """Every two stored words compared up to rotation: an oracle for the
    certificate's ``pairwise_distinct``, which keys by least rotation only
    the words that share their length with another."""
    return not any(cyclically_equal(u, v) for u, v in itertools.combinations(stored, 2))


def pairwise_plain_image_rank(h: PartialAscendingHNN, images) -> int | None:
    """Every two ends compared: an oracle for ``hnn._plain_image_rank``,
    which compares each sorted half with its successor only.  The new
    images must all be nonempty."""
    base = len(h.ascending) + len(h.free)
    new = [w.letters for w in images[len(h.ascending) :]]
    if any(min(map(abs, ls)) <= base for ls in new):
        return None
    ends = [(ls, False) for ls in new] + [(ls, True) for ls in new]
    for k, (u, u_inv) in enumerate(ends):
        for v, v_inv in ends[k + 1 :]:
            half = (min(len(u), len(v)) + 1) // 2  # 2p < |u|, |v| iff p < half
            a = (-x for x in reversed(u)) if u_inv else iter(u)
            b = (-x for x in reversed(v)) if v_inv else iter(v)
            if all(x == y for x, y in zip(itertools.islice(a, half), b)):
                return None
    return len(images)


def cancellable_alignment(p: Presentation, d: TwoCellDiagram) -> bool:
    """Do the two rotated boundaries read the same closed path?"""
    for r, rot in ((d.r1, d.rot1), (d.r2, d.rot2)):
        if not 0 <= r < len(p.relators):
            raise ValueError(f"relator index {r} out of range")
        if not 0 <= rot < len(p.relators[r]):
            raise ValueError(f"rotation {rot} out of range for relator {r}")
    b1 = p.relators[d.r1].letters[d.rot1 :] + p.relators[d.r1].letters[: d.rot1]
    b2 = p.relators[d.r2].letters[d.rot2 :] + p.relators[d.r2].letters[: d.rot2]
    if b1[0] != d.shared_edge or b2[0] != d.shared_edge:
        raise ValueError("rotated boundaries do not start with the shared edge")
    return b1 == b2


def _letter_suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array by prefix doubling; works for any integer alphabet."""
    n = text.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    rank = np.unique(text, return_inverse=True)[1].astype(np.int64)
    sa = np.argsort(rank, kind="stable")
    k = 1
    while rank[sa[-1]] != n - 1:
        second = np.full(n, -1, dtype=np.int64)
        second[: n - k] = rank[k:]
        sa = np.lexsort((second, rank))
        heads = np.ones(n, dtype=bool)
        heads[1:] = (rank[sa[1:]] != rank[sa[:-1]]) | (second[sa[1:]] != second[sa[:-1]])
        new = np.empty(n, dtype=np.int64)
        new[sa] = np.cumsum(heads) - 1
        rank = new
        k *= 2
    return sa


def _letter_lcp_array(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Kasai table: ``lcp[i]`` = common prefix of suffixes ``sa[i-1]``, ``sa[i]``."""
    n = text.size
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    t = text.tolist()  # plain list access is much faster in the python loop
    sal = sa.tolist()
    rankl = rank.tolist()
    h = 0
    for i in range(n):
        r = rankl[i]
        if r > 0:
            j = sal[r - 1]
            while i + h < n and j + h < n and t[i + h] == t[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def letter_match_table(relators, include_inverses=True) -> PieceReport:
    """The letter-level piece scan: suffix array and LCP over the letters of
    the combined text, swept twice keeping the two best appearance classes.
    An independent oracle for :func:`hnnembed.suffixes.match_table`."""
    words = [tuple(r) for r in relators]
    if any(len(w) == 0 for w in words):
        raise ValueError("empty word in scan input")
    periods = [len(w) // exponent(Word(w)) for w in words]

    # Section layout: doubled word then one unique sentinel per section.
    orients = (1, -1) if include_inverses else (1,)
    max_abs = max(abs(x) for w in words for x in w)
    sections = []  # (word index, orient, length, start)
    chunks: list[int] = []
    sep = -(max_abs + 1)
    for j, w in enumerate(words):
        for o in orients:
            lw = w if o == 1 else tuple(-x for x in reversed(w))
            sections.append((j, o, len(w), len(chunks)))
            chunks.extend(lw)
            chunks.extend(lw)
            chunks.append(sep)
            sep -= 1
    text = np.asarray(chunks, dtype=np.int64)
    n = text.size

    # Appearance class per position; -1 marks inert text (second copies
    # and sentinels).  cap[] is the word length, the match-length ceiling.
    pos_class = [-1] * n
    pos_cap = [0] * n
    base = 0
    for j, o, lw, start in sections:
        p = periods[j]
        for off in range(lw):
            pos_class[start + off] = base + (off % p)
            pos_cap[start + off] = lw
        base += p

    sa = _letter_suffix_array(text)
    lcp = _letter_lcp_array(text, sa)
    sal = sa.tolist()
    lcpl = lcp.tolist()
    best = [0] * n

    def sweep(indices, lcp_at):
        # Keep the two best (class, value) pairs with distinct classes;
        # values decay through the min-LCP chain, so anything dropped can
        # never beat the kept pair later.
        c1 = c2 = -2
        v1 = v2 = 0
        for i in indices:
            d = lcp_at(i)
            if v1 > d:
                v1 = d
            if v2 > d:
                v2 = d
            p = sal[i]
            cp = pos_class[p]
            if cp < 0:
                continue
            cap = pos_cap[p]
            if c1 != cp:
                cand = v1 if v1 < cap else cap
            elif c2 != -2:
                cand = v2 if v2 < cap else cap
            else:
                cand = 0
            if cand > best[p]:
                best[p] = cand
            if c1 == cp:
                if cap > v1:
                    v1 = cap
            elif c2 == cp:
                if cap > v2:
                    v2 = cap
                if v2 > v1:
                    c1, c2, v1, v2 = c2, c1, v2, v1
            elif cap >= v1:
                c2, v2 = c1, v1
                c1, v1 = cp, cap
            elif cap >= v2:
                c2, v2 = cp, cap

    nn = len(sal)
    sweep(range(nn), lambda i: lcpl[i])
    sweep(range(nn - 1, -1, -1), lambda i: lcpl[i + 1] if i + 1 < nn else 0)

    per_offset: list[tuple[int, ...]] = [()] * len(words)
    per_max = [0] * len(words)
    for j, o, lw, start in sections:
        vals = tuple(best[start : start + lw])
        m = max(vals)
        if m > per_max[j]:
            per_max[j] = m
        if o == 1:
            per_offset[j] = vals
    return PieceReport(tuple(map(len, words)), tuple(per_max), tuple(per_offset))


def _read(index, letters: tuple[int, ...], count: int, cap: int) -> tuple[list[int], list[int]]:
    """Matching statistics of ``letters`` against one length class of a
    solver's index, read right to left: for each p below ``count``, the
    length of the longest prefix of letters[p:] of at most ``cap`` letters
    that the class spells, and the state that prefix ends in.  Reaching the
    cap climbs suffix links to the state that holds the capped prefix."""
    trans, link, depth, _ = index
    lengths = [0] * count
    states = [0] * count
    state = 0
    length = 0
    for p in range(min(len(letters), count + cap - 1) - 1, -1, -1):
        x = letters[p]
        nxt = trans[state].get(x)
        while nxt is None and state:
            state = link[state]
            nxt = trans[state].get(x)
            length = depth[state]
        if nxt is None:
            length = 0
        else:
            state = nxt
            length += 1
            if length > cap:
                length = cap
                while depth[link[state]] >= cap:
                    state = link[state]
        if p < count:
            lengths[p] = length
            states[p] = state
    return lengths, states


def reading_best_match(solver, cur: Word):
    """``DehnSolver._best_match`` by reading every letter: the matching
    statistics of the doubled cyclic word against each class searched, with
    the cap min(ell, n), and the least (relator, position) among the
    positions whose reading is longest, with the least occurrence that
    their state stores.  Classes are cut as the solver cuts them."""
    n = len(cur)
    w2 = cur.letters + cur.letters
    best = None
    for ell, (index, _) in solver._classes.items():
        if best is not None and min(ell, n) < best[0]:
            break
        if 2 * n <= ell:
            continue
        lengths, states = _read(index, w2, n, min(ell, n))
        length = max(lengths)
        if 2 * length <= ell or (best is not None and length < best[0]):
            continue
        keys = index[3]
        j, pos = min((keys[states[p]][0], p) for p in range(n) if lengths[p] == length)
        _, srank, off = keys[states[pos]]
        cand = (length, j, pos, srank, off)
        if best is None or (-cand[0], *cand[1:]) < (-best[0], *best[1:]):
            best = cand
    return best


def letter_walk_segment_ends(solver, w: Word) -> list[int] | None:
    """Where ``DehnSolver.piece_count``'s greedy segments of free_reduce(w)
    end, right to left, found by walking each class's automaton letter by
    letter, up to ell letters, with no window; None when some letter occurs
    in no relator.  Its length is the piece count."""
    letters = stack_free_reduce(w).letters
    pos = len(letters)
    ends = []
    while pos:
        jump = 0
        for ell, ((trans, _, _, _), _) in solver._classes.items():
            if ell <= jump:
                break
            state = 0
            k = 0
            stop = min(ell, pos)
            while k < stop:
                state = trans[state].get(letters[pos - 1 - k])
                if state is None:
                    break
                k += 1
            jump = max(jump, k)
        if jump == 0:
            return None
        ends.append(pos)
        pos -= jump
    return ends


def _random_input(rng: random.Random, ni: int, nj: int) -> PartialAscendingHNN:
    """ni ascending generators with random reduced images of 1-12 letters
    over all ni + nj generators, nj free ones; not yet validated."""
    size = ni + nj
    images = []
    for _ in range(ni):
        length = rng.randint(1, 12)
        letters: list[int] = []
        while len(letters) < length:
            x = rng.choice([-1, 1]) * rng.randint(1, size)
            if letters and letters[-1] == -x:
                continue
            letters.append(x)
        images.append(Word.of(*letters))
    return PartialAscendingHNN(
        tuple(f"a{k + 1}" for k in range(ni)),
        tuple(f"b{k + 1}" for k in range(nj)),
        tuple(images),
    )


def hostile_group(n: int) -> tuple[PartialAscendingHNN, PartialAscendingHNN]:
    """An input of n free generators and a completed group of it whose n + 2
    images are distinct reduced 40-letter words over the two new letters:
    every stored word has one length, so every check that pairs the stored
    words or the new images meets all of them."""
    rng = random.Random(f"hostile:{n}")
    new = {x: x + n if x > 0 else x - n for x in (1, -1, 2, -2)}
    images: dict[Word, None] = {}  # distinct, in the order drawn
    while len(images) < n + 2:
        images[relabel(random_reduced_word(rng, 2, 40), new)] = None
    free = tuple(f"x{k + 1}" for k in range(n))
    g = PartialAscendingHNN(free + ("c1", "c2"), (), tuple(images))
    return PartialAscendingHNN((), free, ()), g


def criterion_6_inputs() -> list[PartialAscendingHNN]:
    """The 20 valid inputs of acceptance criterion 6: 0-3 ascending and
    1-3 free generators."""
    rng = random.Random(9006)
    out = []
    while len(out) < 20:
        ni = rng.randint(0, 3)
        nj = rng.randint(1, 3)
        h = _random_input(rng, ni, nj)
        if not validate(h):
            out.append(h)
    return out


def _complete_workload():
    # the benchmark's modules import one another by bare name
    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    from workloads import Complete

    return Complete


def sweep_input(n: int) -> PartialAscendingHNN:
    """The n+n input of ``scripts/sweep.py``: n ascending generators with
    random reduced images of 1-12 letters, and n free ones."""
    return _complete_workload()._draw(random.Random(f"sweep:{n}"), n, n)


def complete_workload_inputs(seed: int) -> list[PartialAscendingHNN]:
    """The 20 distinct inputs of the benchmark's ``complete`` workload at
    ``seed``, drawn by the workload's own generator from the same random
    stream: five draws of 0-3 ascending generators and one free one."""
    Complete = _complete_workload()
    rng = random.Random(f"complete:{seed}")
    return [
        Complete._draw(rng, ni, 1) for _ in range(Complete.draws) for ni in range(4)
    ]
