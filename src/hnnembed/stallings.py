"""Folded labeled graphs for finitely generated subgroups of free groups.

A graph here is a based multigraph with edges labeled by generators and
stored direction-normalized: one (source, target, label) triple per
edge, label positive, traversal handling sign.  Folding identifies edge
pairs that break determinism until, at every vertex, each signed label
is readable outgoing at most once.  The result is the classic subgroup
graph: membership, rank, and basepoint structure all read off it.

Folding keeps one slot map per vertex, keyed by signed label, and
writes each half-edge into it once.  Only a half-edge whose slot is
already taken by another target queues a merge, so a long bouquet,
where almost nothing collides, costs about one dict write per
half-edge; a graph where nothing collides is returned without
renumbering.  Merges move the smaller vertex class into the larger one,
so big generator families stay near-linear.  The fold result is unique
up to based labeled isomorphism; use :func:`canonical_form` to compare
graphs modulo vertex naming.

Words are checked against the alphabet where they become edges, in
:func:`bouquet`.  Folding and trimming merge, renumber and drop
vertices and edges but add no label, so :class:`CoreGraph` itself checks
nothing; it carries what its builders know: ``folded``, ``cored`` and
``connected``.  Folding and trimming keep a bouquet connected, so
:func:`rank` walks only a graph not marked so, such as a hand-built one.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

from .words import Alphabet, Word, free_reduce


@dataclass(frozen=True)
class CoreGraph:
    alphabet: Alphabet
    num_vertices: int
    basepoint: int
    edges: tuple[tuple[int, int, int], ...]  # (source, target, positive label)
    folded: bool
    cored: bool
    connected: bool = False

    def outgoing_labels(self, vertex: int) -> set[int]:
        """Signed labels readable leaving the vertex."""
        out: set[int] = set()
        for u, v, g in self.edges:
            if u == vertex:
                out.add(g)
            if v == vertex:
                out.add(-g)
        return out


def bouquet(alphabet: Alphabet, generators: Sequence[Word]) -> CoreGraph:
    """Wedge of one loop path per generator word, unfolded."""
    edges: list[tuple[int, int, int]] = []
    n = 1
    for w in generators:
        if len(w) == 0:
            raise ValueError("empty generator word")
        if w.max_letter() > alphabet.size:
            raise ValueError("generator word outside alphabet")
        path = [0, *range(n, n + len(w) - 1), 0]
        edges += [
            (p, q, x) if x > 0 else (q, p, -x) for p, q, x in zip(path, path[1:], w.letters)
        ]
        n += len(w) - 1
    folded = not generators
    return CoreGraph(alphabet, n, 0, tuple(edges), folded, folded, True)


def fold(g: CoreGraph, order_seed: int | None = None) -> CoreGraph:
    """Identify non-deterministic edge pairs until none remain.

    Each half-edge goes into its vertex's slot map under its signed
    label.  A pair of vertices is queued for merging only when a slot is
    already taken by another target; when no slot is, and no edge
    repeats, the graph is already folded and comes back with its edges
    sorted and its vertices as they were.  Otherwise classes merge small
    into large, the smaller class's slots moving into the larger one's,
    and the classes are numbered in the order of their representatives.

    The result is independent of the fold order up to isomorphism;
    ``order_seed`` shuffles the edge order, which the tests use to
    exercise exactly that.
    """
    edges = g.edges
    if order_seed is not None:
        edges = list(edges)
        random.Random(order_seed).shuffle(edges)
    n = g.num_vertices
    slots: list[dict[int, int]] = [{} for _ in range(n)]
    pending: list[tuple[int, int]] = []
    for u, v, lab in edges:
        cur = slots[u].setdefault(lab, v)
        if cur != v:
            pending.append((cur, v))
        cur = slots[v].setdefault(-lab, u)
        if cur != u:
            pending.append((cur, u))
    if not pending and sum(map(len, slots)) == 2 * len(edges):
        return replace(g, edges=tuple(sorted(edges)), folded=True, cored=False)

    rep = list(range(n))  # each vertex's class representative
    members: dict[int, list[int]] = {}  # classes of more than one vertex
    while pending:
        a, b = pending.pop()
        ra, rb = rep[a], rep[b]
        if ra == rb:
            continue
        big, small = members.pop(ra, [ra]), members.pop(rb, [rb])
        if len(big) < len(small):
            ra, rb, big, small = rb, ra, small, big
        for x in small:
            rep[x] = ra
        big += small
        members[ra] = big
        into = slots[ra]
        for lab, nb in slots[rb].items():
            cur = into.setdefault(lab, nb)
            if cur != nb and rep[cur] != rep[nb]:
                pending.append((cur, nb))
        slots[rb] = {}

    index = [0] * n
    roots = [v for v in range(n) if rep[v] == v]
    for i, r in enumerate(roots):
        index[r] = i
    out = [
        (index[r], index[rep[nb]], lab)
        for r in roots
        for lab, nb in slots[r].items()
        if lab > 0
    ]
    out.sort()
    return CoreGraph(
        g.alphabet, len(roots), index[rep[g.basepoint]], tuple(out), True, False, g.connected
    )


def _require(g: CoreGraph, folded: bool = False, cored: bool = False) -> None:
    if folded and not g.folded:
        raise ValueError("graph is not folded")
    if cored and not g.cored:
        raise ValueError("graph is not core-trimmed")


def trim_to_core(g: CoreGraph) -> CoreGraph:
    """Drop non-basepoint vertices of degree at most 1, repeatedly.

    Degrees are counted in one pass.  When every vertex but the
    basepoint already has degree at least 2 nothing is dropped, and the
    graph comes back as it is, marked cored; a folded bouquet of freely
    reduced words always does.
    """
    _require(g, folded=True)
    deg = [0] * g.num_vertices
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    queue = [v for v, d in enumerate(deg) if d <= 1 and v != g.basepoint]
    if not queue:
        return replace(g, cored=True)
    incident: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for i, (u, v, _) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    dead_edge = [False] * len(g.edges)
    dead_vertex = [False] * g.num_vertices
    while queue:
        v = queue.pop()
        if dead_vertex[v] or v == g.basepoint:
            continue
        dead_vertex[v] = True
        for i in incident[v]:
            if dead_edge[i]:
                continue
            dead_edge[i] = True
            u, w, _ = g.edges[i]
            for end in (u, w):
                if end != v:
                    deg[end] -= 1
                    if end != g.basepoint and deg[end] <= 1 and not dead_vertex[end]:
                        queue.append(end)
    keep = [v for v in range(g.num_vertices) if not dead_vertex[v]]
    renum = {v: i for i, v in enumerate(keep)}
    edges = tuple(
        sorted(
            (renum[u], renum[v], lab)
            for i, (u, v, lab) in enumerate(g.edges)
            if not dead_edge[i]
        )
    )
    return CoreGraph(g.alphabet, len(keep), renum[g.basepoint], edges, True, True, g.connected)


def _adjacency(g: CoreGraph) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [dict() for _ in range(g.num_vertices)]
    for u, v, lab in g.edges:
        adj[u][lab] = v
        adj[v][-lab] = u
    return adj


def membership(g: CoreGraph, w: Word) -> bool:
    """Is the reduction of w readable as a closed basepoint path?"""
    _require(g, folded=True)
    adj = _adjacency(g)
    cur = g.basepoint
    for x in free_reduce(w):
        nxt = adj[cur].get(x)
        if nxt is None:
            return False
        cur = nxt
    return cur == g.basepoint


def _walk(g: CoreGraph) -> dict[int, int]:
    """Breadth-first numbering of the folded graph's vertices from the
    basepoint, each vertex's own labels read in canonical order, so the
    walk costs O(E log E) whatever the alphabet's size; ValueError when
    some vertex is not reached."""
    adj = _adjacency(g)
    ids = {g.basepoint: 0}
    queue = deque([g.basepoint])
    while queue:
        out = adj[queue.popleft()]
        for lab in sorted(sorted(out, reverse=True), key=abs):  # 1, -1, 2, -2, ...
            if out[lab] not in ids:
                ids[out[lab]] = len(ids)
                queue.append(out[lab])
    if len(ids) != g.num_vertices:
        raise ValueError("graph is disconnected")
    return ids


def rank(g: CoreGraph) -> int:
    """First Betti number |E| - |V| + 1 of the folded core."""
    _require(g, folded=True, cored=True)
    if not g.connected:
        _walk(g)
    return len(g.edges) - g.num_vertices + 1


def basepoint_degree(g: CoreGraph) -> int:
    """Edge ends at the basepoint: on a folded graph, the labels it reads."""
    _require(g, folded=True, cored=True)
    return len(g.outgoing_labels(g.basepoint))


def unused_basepoint_labels(g: CoreGraph) -> list[int]:
    """Signed letters not readable leaving the basepoint, canonical order."""
    _require(g, folded=True)
    used = g.outgoing_labels(g.basepoint)
    return [x for x in g.alphabet.signed() if x not in used]


def subgroup_core(alphabet: Alphabet, generators: Sequence[Word]) -> CoreGraph:
    """Folded, trimmed based graph of the generated subgroup."""
    return trim_to_core(fold(bouquet(alphabet, generators)))


def is_monomorphism(alphabet: Alphabet, images: Sequence[Word]) -> bool:
    """Do the images generate a free group of full rank |images|?

    Rank equality certifies injectivity of the induced map from the free
    group on len(images) generators: free groups are Hopfian, so a
    surjection onto an equal-rank free group cannot collapse anything.
    """
    images = list(images)
    if any(len(free_reduce(w)) == 0 for w in images):
        return False
    if not images:
        return True
    return rank(subgroup_core(alphabet, images)) == len(images)


def canonical_form(g: CoreGraph) -> tuple:
    """Basepoint-BFS normal form; equal iff based labeled graphs agree."""
    _require(g, folded=True)
    ids = _walk(g)
    edges = tuple(sorted((ids[u], ids[v], lab) for u, v, lab in g.edges))
    return (g.num_vertices, edges)
