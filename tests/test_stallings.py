"""Folding, coring, rank, and basepoint structure of subgroup graphs.

The oracle is a deliberately naive fold: rescan the whole edge set for
any vertex with two equally-labeled outgoing edges, merge, repeat.  The
fast slot-map fold must produce an isomorphic based graph, on bouquets
and on arbitrary connected multigraphs alike; the naive trim is the
oracle for :func:`trim_to_core` in the same way.
"""

import random
import time
from dataclasses import replace

import pytest

from hnnembed.stallings import (
    CoreGraph,
    basepoint_degree,
    bouquet,
    canonical_form,
    fold,
    is_monomorphism,
    membership,
    rank,
    subgroup_core,
    trim_to_core,
    unused_basepoint_labels,
)
from hnnembed.parsing import parse_word
from hnnembed.words import (
    Alphabet,
    Word,
    free_reduce,
    random_reduced_word,
    relabel,
    signed_letters,
)

from helpers import graphs_equal, hang

AB = Alphabet.of("a", "b")
ABC = Alphabet.of("a", "b", "c")


def naive_fold(g: CoreGraph) -> CoreGraph:
    edges = set(g.edges)
    basepoint = g.basepoint
    while True:
        out: dict[tuple[int, int, int], int] = {}
        clash = None
        for u, v, lab in sorted(edges):
            for vert, key, tgt in ((u, (lab, 1), v), (v, (lab, -1), u)):
                prev = out.get((vert, *key))
                if prev is not None and prev != tgt:
                    clash = (prev, tgt)
                    break
                out[(vert, *key)] = tgt
            if clash:
                break
        if clash is None:
            break
        keep, gone = clash
        edges = {
            (keep if a == gone else a, keep if b == gone else b, lab)
            for a, b, lab in edges
        }
        if basepoint == gone:
            basepoint = keep
    verts = sorted({basepoint} | {a for a, _, _ in edges} | {b for _, b, _ in edges})
    renum = {v: i for i, v in enumerate(verts)}
    packed = tuple(sorted((renum[a], renum[b], lab) for a, b, lab in edges))
    return CoreGraph(g.alphabet, len(verts), renum[basepoint], packed, True, False)


def naive_trim(g: CoreGraph) -> CoreGraph:
    edges = set(g.edges)
    verts = set(range(g.num_vertices))
    while True:
        deg = {v: 0 for v in verts}
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        drop = {v for v in verts if v != g.basepoint and deg[v] <= 1}
        if not drop:
            break
        verts -= drop
        edges = {e for e in edges if e[0] not in drop and e[1] not in drop}
    order = sorted(verts)
    renum = {v: i for i, v in enumerate(order)}
    packed = tuple(sorted((renum[u], renum[v], lab) for u, v, lab in edges))
    return CoreGraph(g.alphabet, len(order), renum[g.basepoint], packed, True, True)


def random_words(rng: random.Random, size: int, count: int) -> list[Word]:
    words = []
    for _ in range(count):
        n = rng.randint(1, 8)
        words.append(Word.of(*(rng.choice([-1, 1]) * rng.randint(1, size) for _ in range(n))))
    return words


def random_connected_graph(rng: random.Random, alphabet: Alphabet, n: int) -> CoreGraph:
    """An unfolded based multigraph on n vertices: a random spanning tree
    plus extra edges, which are often self-loops and may repeat an edge."""
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.randint(0, n)):
        u = rng.randrange(n)
        edges.append((u, rng.choice([u, rng.randrange(n)])))
    labeled = [(u, v, rng.randint(1, alphabet.size)) for u, v in edges]
    if labeled and rng.random() < 0.3:
        labeled.append(rng.choice(labeled))
    rng.shuffle(labeled)
    return CoreGraph(alphabet, n, rng.randrange(n), tuple(labeled), False, False)


def renumbered(rng: random.Random, g: CoreGraph) -> CoreGraph:
    """The same graph under a random vertex renaming, edges shuffled."""
    perm = list(range(g.num_vertices))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], lab) for u, v, lab in g.edges]
    rng.shuffle(edges)
    return replace(g, basepoint=perm[g.basepoint], edges=tuple(edges))


def assert_well_formed(g: CoreGraph) -> None:
    assert 0 <= g.basepoint < g.num_vertices
    for u, v, lab in g.edges:
        assert 0 <= u < g.num_vertices and 0 <= v < g.num_vertices
        assert 1 <= lab <= g.alphabet.size


def test_bouquet_rejects_bad_generators():
    with pytest.raises(ValueError, match="empty generator"):
        bouquet(AB, [Word.of()])
    with pytest.raises(ValueError, match="outside alphabet"):
        bouquet(AB, [Word.of(3)])


def test_hang_rejects_loops_outside_the_alphabet():
    core = subgroup_core(AB, [parse_word(AB, "a")])
    with pytest.raises(ValueError, match="generator word outside alphabet"):
        hang(core, [parse_word(AB, "b"), Word.of(1, -3, 2)])


def test_built_graphs_are_well_formed():
    # CoreGraph checks nothing itself: words are checked where they become
    # edges, and every other graph is a renumbering of a checked one.
    rng = random.Random(41)
    for _ in range(200):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        gens = random_words(rng, size, rng.randint(0, 4))
        raw = bouquet(alphabet, gens)
        folded = fold(raw, order_seed=rng.randint(0, 3))
        core = trim_to_core(folded)
        hung = hang(core, random_words(rng, size, rng.randint(0, 3)))
        for g in (raw, folded, core, hung, fold(hung), trim_to_core(fold(hung))):
            assert_well_formed(g)


def test_fold_conjugate_loop_shape():
    g = fold(bouquet(AB, [parse_word(AB, "a b a'"), parse_word(AB, "b")]))
    core = trim_to_core(g)
    assert core.num_vertices == 2
    assert len(core.edges) == 3
    assert rank(core) == 2
    assert basepoint_degree(core) == 3
    assert unused_basepoint_labels(core) == [-1]


def test_fold_identifies_duplicate_generators():
    core = subgroup_core(AB, [parse_word(AB, "a b"), parse_word(AB, "a b")])
    assert core.num_vertices == 2
    assert len(core.edges) == 2
    assert rank(core) == 1


def test_membership_examples():
    core = subgroup_core(AB, [parse_word(AB, "a a")])
    assert membership(core, parse_word(AB, "a a"))
    assert membership(core, parse_word(AB, "a' a'"))
    assert membership(core, parse_word(AB, "a a b b' a a"))
    assert not membership(core, parse_word(AB, "a"))
    assert not membership(core, parse_word(AB, "b"))


def test_monomorphism_examples():
    assert is_monomorphism(AB, [parse_word(AB, "a a"), parse_word(AB, "b a b'")])
    assert not is_monomorphism(AB, [parse_word(AB, "a b"), parse_word(AB, "a b")])
    assert not is_monomorphism(AB, [parse_word(AB, "a"), parse_word(AB, "b"), parse_word(AB, "a b")])
    assert not is_monomorphism(AB, [parse_word(AB, "a"), parse_word(AB, "a a'")])
    assert is_monomorphism(AB, [])


def test_rank_preconditions():
    raw = bouquet(AB, [parse_word(AB, "a b a'")])
    with pytest.raises(ValueError, match="not folded"):
        rank(raw)
    folded = fold(raw)
    with pytest.raises(ValueError, match="not core-trimmed"):
        rank(folded)
    two_loops = CoreGraph(AB, 2, 0, ((0, 0, 1), (1, 1, 2)), True, True)
    with pytest.raises(ValueError, match="disconnected"):
        rank(two_loops)


def test_connected_flag_is_carried_from_the_bouquet():
    # Only a hand-built graph is left for rank to walk.
    for words in (["a b a'"], ["b b", "a"]):  # folding merges, folding merges nothing
        raw = bouquet(AB, [parse_word(AB, w) for w in words])
        core = trim_to_core(fold(raw))
        assert raw.connected and fold(raw).connected and core.connected
        assert hang(core, [parse_word(AB, "a a")]).connected
    assert not CoreGraph(AB, 1, 0, ((0, 0, 1),), True, True).connected


def test_fold_matches_naive_oracle():
    rng = random.Random(20260822)
    for _ in range(200):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        gens = random_words(rng, size, rng.randint(1, 4))
        slow = naive_fold(bouquet(alphabet, gens))
        fast = fold(bouquet(alphabet, gens))
        assert graphs_equal(slow, fast)
        assert graphs_equal(naive_trim(slow), trim_to_core(fast))


def test_fold_confluence_under_shuffled_orders():
    rng = random.Random(99)
    for _ in range(40):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        gens = random_words(rng, size, rng.randint(1, 4))
        base = fold(bouquet(alphabet, gens))
        for seed in (1, 2, 3):
            assert graphs_equal(base, fold(bouquet(alphabet, gens), order_seed=seed))


def test_fold_matches_naive_oracle_on_arbitrary_graphs():
    # Not bouquets: repeated edges, self-loops, and graphs hung on unfolded
    # cores, folded in shuffled orders.  Re-folding a renumbered fold merges
    # nothing and must hand back exactly the renumbered edges, sorted.
    rng = random.Random(20261018)
    hung_unfolded = 0
    for _ in range(300):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        if rng.random() < 0.3:
            gens = random_words(rng, size, rng.randint(1, 3))
            g = hang(bouquet(alphabet, gens), random_words(rng, size, rng.randint(1, 2)))
            hung_unfolded += 1
        else:
            g = random_connected_graph(rng, alphabet, rng.randint(1, 9))
        slow = naive_fold(g)
        for seed in (None, rng.randint(0, 99)):
            fast = fold(g, order_seed=seed)
            assert graphs_equal(slow, fast)
            assert (fast.folded, fast.cored) == (True, False)
        again = renumbered(rng, fast)
        refolded = fold(again, order_seed=rng.choice([None, 1]))
        assert refolded.edges == tuple(sorted(again.edges))
        assert (refolded.num_vertices, refolded.basepoint) == (again.num_vertices, again.basepoint)
    assert hung_unfolded > 50


def test_trim_matches_naive_oracle():
    # Folded graphs with hairs (random folds, stems hanging off the
    # basepoint) and without (their trims), basepoint degrees 0 and 1 included.
    rng = random.Random(1018)
    bare = CoreGraph(AB, 1, 0, (), True, False)
    hair = CoreGraph(AB, 2, 0, ((0, 1, 1),), True, False)
    stem = fold(bouquet(AB, [parse_word(AB, "a b a'")]))
    graphs = [bare, hair, stem]
    for _ in range(300):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        graphs.append(fold(random_connected_graph(rng, alphabet, rng.randint(1, 9))))
    degrees = set()
    for g in graphs:
        for h in (g, renumbered(rng, g)):
            trimmed = trim_to_core(h)
            assert graphs_equal(trimmed, naive_trim(h))
            assert (trimmed.folded, trimmed.cored) == (True, True)
            again = trim_to_core(trimmed)
            assert graphs_equal(again, trimmed)
            degrees.add(min(basepoint_degree(trimmed), 2))
    assert trim_to_core(bare).num_vertices == 1
    assert trim_to_core(hair).num_vertices == 1
    assert basepoint_degree(trim_to_core(stem)) == 1
    assert degrees == {0, 1, 2}


def test_hang_on_an_unfolded_core_is_not_marked_folded():
    # The one-loop graph reads no label twice, but it is not marked folded,
    # so nothing hung on it is either.
    loop = CoreGraph(AB, 1, 0, ((0, 0, 1),), False, False)
    assert not hang(loop, [parse_word(AB, "b")]).folded
    assert hang(replace(loop, folded=True), [parse_word(AB, "b")]).folded
    rng = random.Random(53)
    for _ in range(100):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        raw = bouquet(alphabet, random_words(rng, size, rng.randint(1, 3)))
        assert not hang(raw, random_words(rng, size, rng.randint(0, 2))).folded


def test_generators_stay_members_through_fold_and_trim():
    rng = random.Random(7)
    for _ in range(100):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        gens = random_words(rng, size, rng.randint(1, 4))
        core = subgroup_core(alphabet, gens)
        for w in gens:
            assert membership(core, w)
        product = Word.of()
        for _ in range(3):
            pick = rng.choice(gens)
            product = product * (pick if rng.random() < 0.5 else pick.inverse())
        assert membership(core, product)


def test_basepoint_degree_bounded_by_twice_generator_count():
    rng = random.Random(11)
    for _ in range(100):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        gens = [w for w in random_words(rng, size, rng.randint(1, 4)) if free_reduce(w)]
        if not gens:
            continue
        core = subgroup_core(alphabet, gens)
        assert basepoint_degree(core) <= 2 * len(gens)


def test_redundant_generating_sets_give_equal_cores():
    left = subgroup_core(AB, [parse_word(AB, "a"), parse_word(AB, "a b")])
    right = subgroup_core(AB, [parse_word(AB, "a"), parse_word(AB, "b")])
    assert graphs_equal(left, right)
    other = subgroup_core(AB, [parse_word(AB, "a a"), parse_word(AB, "b")])
    assert not graphs_equal(left, other)


def test_wedge_extension_check_cases():
    # The wedge test is hang's folded flag: a loop adds its stem's first
    # letter, or both ends of its cycle, to the basepoint star.
    loop_a = subgroup_core(AB, [parse_word(AB, "a")])
    assert hang(loop_a, [parse_word(AB, "b")]).folded
    assert not hang(loop_a, [parse_word(AB, "a b")]).folded
    loop_b = subgroup_core(AB, [parse_word(AB, "b")])
    assert hang(loop_b, [parse_word(AB, "a b a'")]).folded
    assert not hang(loop_b, [parse_word(AB, "a b a'"), parse_word(AB, "a b' a'")]).folded
    assert not hang(loop_b, [parse_word(AB, "b a")]).folded


def test_wedge_extension_matches_folded_union():
    # Whenever the check passes, attaching the loops must add exactly
    # one independent circle each: rank goes up by the loop count.
    rng = random.Random(31)
    accepted = 0
    for _ in range(200):
        gens = random_words(rng, 3, rng.randint(1, 3))
        loops = [w for w in random_words(rng, 3, rng.randint(1, 2)) if free_reduce(w)]
        core = subgroup_core(ABC, gens)
        if not loops or not hang(core, loops).folded:
            continue
        accepted += 1
        combined = subgroup_core(ABC, list(gens) + loops)
        assert rank(combined) == rank(core) + len(loops)
        assert graphs_equal(trim_to_core(fold(hang(core, loops))), combined)
    assert accepted > 20


def test_hang_spells_stem_and_cycle():
    core = subgroup_core(AB, [parse_word(AB, "b")])
    raw = hang(core, [parse_word(AB, "a b a'")])
    # the b loop, the stem a, and the b cycle at the stem's end
    assert raw.num_vertices == 2
    assert raw.edges == ((0, 0, 2), (0, 1, 1), (1, 1, 2))
    assert raw.folded
    folded = fold(raw)
    assert folded.num_vertices == 2 and folded.edges == raw.edges
    assert not hang(core, [parse_word(AB, "b a")]).folded  # a second b at the basepoint


def test_hang_is_marked_folded_exactly_when_folding_merges_nothing():
    # The oracle is the fold itself.  A fold-free hanging on a subgroup's
    # core trims to the core of the subgroup the loops extend it to.
    rng = random.Random(37)
    seen = {True: 0, False: 0}
    for _ in range(300):
        gens = random_words(rng, 3, rng.randint(0, 3))
        loops = [w for w in random_words(rng, 3, rng.randint(1, 3)) if free_reduce(w)]
        core = subgroup_core(ABC, [w for w in gens if free_reduce(w)])
        raw = hang(core, loops)
        merged = fold(raw)
        merges_nothing = merged.num_vertices == raw.num_vertices and len(merged.edges) == len(raw.edges)
        assert raw.folded == merges_nothing
        assert raw.cored == core.cored
        seen[raw.folded] += 1
        if raw.folded:
            trimmed = trim_to_core(raw)
            assert trimmed.num_vertices == raw.num_vertices
            assert len(trimmed.edges) == len(raw.edges)
            combined = subgroup_core(ABC, [w for w in gens + loops if free_reduce(w)])
            assert graphs_equal(raw, combined)
    assert min(seen.values()) > 30


def test_canonical_form_ignores_vertex_numbering():
    g1 = CoreGraph(AB, 3, 0, ((0, 1, 1), (1, 2, 2), (2, 0, 1)), True, True)
    g2 = CoreGraph(AB, 3, 1, ((1, 2, 1), (2, 0, 2), (0, 1, 1)), True, True)
    assert canonical_form(g1) == canonical_form(g2)
    g3 = CoreGraph(AB, 3, 0, ((0, 1, 1), (1, 2, 2), (0, 2, 1)), True, True)
    assert canonical_form(g1) != canonical_form(g3)


def _canonical_form_over_the_alphabet(g: CoreGraph) -> tuple:
    """Basepoint BFS trying every signed letter of the alphabet at each
    vertex: an oracle for :func:`canonical_form`, which sorts each vertex's
    own labels."""
    adj = [dict() for _ in range(g.num_vertices)]
    for u, v, lab in g.edges:
        adj[u][lab], adj[v][-lab] = v, u
    ids = {g.basepoint: 0}
    queue = [g.basepoint]
    for v in queue:
        for lab in g.alphabet.signed():
            if lab in adj[v] and adj[v][lab] not in ids:
                ids[adj[v][lab]] = len(ids)
                queue.append(adj[v][lab])
    return (g.num_vertices, tuple(sorted((ids[u], ids[v], lab) for u, v, lab in g.edges)))


def test_canonical_form_walks_only_the_labels_each_vertex_reads():
    """Equal to the walk that tries every letter of the alphabet, on seeded
    folded graphs and their renumberings.  On ten 40-letter words over
    the last ten of 100,000 generators, whose core has about 400 vertices,
    that walk makes about 80 million lookups; reading each vertex's own
    labels, the canonical form and a rank of the graph unmarked as
    connected take a fraction of a second."""
    rng = random.Random(1019)
    for _ in range(300):
        size = rng.randint(1, 3)
        alphabet = Alphabet.of(*ABC.names[:size])
        g = fold(random_connected_graph(rng, alphabet, rng.randint(1, 9)))
        for h in (g, renumbered(rng, g)):
            assert canonical_form(h) == _canonical_form_over_the_alphabet(h)
    wide = Alphabet(tuple(f"x{k}" for k in range(1, 100_001)))
    top = {x: x + 99_990 if x > 0 else x - 99_990 for x in signed_letters(10)}
    core = subgroup_core(wide, [relabel(random_reduced_word(rng, 10, 40), top) for _ in range(10)])
    start = time.perf_counter()
    form = canonical_form(core)
    assert rank(replace(core, connected=False)) == rank(core)
    assert time.perf_counter() - start < 1
    assert form[0] == core.num_vertices > 100
