"""Shared test helpers: functions only the tests use, and seeded inputs.

Importable from every test module because pytest puts this directory on
``sys.path``.
"""

import os
import random
import sys

from hnnembed.hnn import PartialAscendingHNN, validate
from hnnembed.presentation import Presentation, best_piece_decomposition
from hnnembed.subquotient import TwoCellDiagram
from hnnembed.words import Word, random_reduced_word

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def random_cyclically_reduced_word(rng, rank: int, length: int) -> Word:
    """Like ``random_reduced_word`` but also reduced around the wrap."""
    if length <= 1:
        return random_reduced_word(rng, rank, length)
    while True:
        w = random_reduced_word(rng, rank, length)
        if w.letters[0] != -w.letters[-1]:
            return w


def min_piece_decomposition(per_offset) -> int | None:
    """Fewest pieces whose concatenation is some rotation of the word."""
    best = best_piece_decomposition(per_offset)
    return None if best is None else best[0]


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


def complete_workload_inputs(seed: int) -> list[PartialAscendingHNN]:
    """The 20 distinct inputs of the benchmark's ``complete`` workload at
    ``seed``, drawn by the workload's own generator from the same random
    stream: five draws of 0-3 ascending generators and one free one."""
    # the benchmark's modules import one another by bare name
    if _PERFBENCH not in sys.path:
        sys.path.append(_PERFBENCH)
    from workloads import Complete

    rng = random.Random(f"complete:{seed}")
    return [
        Complete._draw(rng, ni, 1) for _ in range(Complete.draws) for ni in range(4)
    ]
