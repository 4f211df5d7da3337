"""The three workloads: seeded inputs, the timed op, and its output check.

Each workload generates one pass of inputs from the seed.  A run repeats
that pass as often as its length allows (``complete`` and ``area`` fill a
run with one pass), so every later pass must reproduce the first pass's
outputs exactly; the first pass is checked against the independent
criteria below.
The inputs are stratified over the properties that set an op's cost, so
every seed sees the same mix and seeds differ only in the words drawn.

Ops call the package through module attributes (``cli.main``,
``presentation.check_cprime``, ...), so a traced pass sees the wrappers
that :mod:`tracing` installs there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import oracle
from hnnembed import cli, dehn, hnn, parsing, presentation, stallings, subquotient
from hnnembed.words import Alphabet, Word


# The benchmark draws its own words, so the input stream for a seed does not
# change when the package's random helpers do.


def _reduced_word(rng: random.Random, rank: int, length: int) -> list[int]:
    out: list[int] = []
    while len(out) < length:
        x = rng.choice((-1, 1)) * rng.randint(1, rank)
        if not out or x != -out[-1]:
            out.append(x)
    return out


def _cyclically_reduced_word(rng: random.Random, rank: int, length: int) -> list[int]:
    while True:
        w = _reduced_word(rng, rank, length)
        if len(w) <= 1 or w[0] != -w[-1]:
            return w


def _free_reduce(letters: list[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Complete:
    """``hnnembed embed`` then ``hnnembed certify``, in-process, per input.

    Criterion-6 inputs with one free generator: 0-3 ascending generators
    with random reduced images of 1-12 letters.  One pass draws
    ``draws`` presentations per ascending count and runs each once plain
    and once ``--irreducible``, alternating: 40 distinct ops, so the
    percentiles fall inside a spread of inputs rather than between a few
    repeated ones, and one pass fills a run.  Two or three free generators
    take 1-2 s per op, too few ops for a tail percentile in one run.
    """

    name = "complete"
    tail_q = 0.75
    min_ops = 40
    draws = 5

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"complete:{seed}")
        self.g_path = os.path.join(workdir, "G.pres")
        self.cert_path = os.path.join(workdir, "cert.json")
        self.inputs: list[tuple[str, bool]] = []
        for d in range(self.draws):
            for ni in range(4):
                h = self._draw(rng, ni, 1)
                path = os.path.join(workdir, f"H{ni}-{d}.pres")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(parsing.hnn_source(h))
                self.inputs += [(path, False), (path, True)]

    @staticmethod
    def _draw(rng: random.Random, ni: int, nj: int) -> hnn.PartialAscendingHNN:
        while True:
            images = tuple(
                Word(tuple(_reduced_word(rng, ni + nj, rng.randint(1, 12)))) for _ in range(ni)
            )
            h = hnn.PartialAscendingHNN(
                tuple(f"a{k + 1}" for k in range(ni)),
                tuple(f"b{k + 1}" for k in range(nj)),
                images,
            )
            if not hnn.validate(h):
                return h

    def fresh_state(self):
        return None

    def op(self, state, i):
        h_path, irreducible = self.inputs[i]
        embed = ["embed", "--in", h_path, "--out", self.g_path, "--cert", self.cert_path]
        if irreducible:
            embed.append("--irreducible")
        certify = ["certify", "--in", h_path, "--g", self.g_path, "--cert", self.cert_path]
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            embedded = cli.main(embed)
            certified = cli.main(certify)
        return embedded, certified, text.getvalue()

    def collect(self, raw):
        embedded, certified, text = raw
        # read and remove, so an op that writes nothing cannot pass on the
        # previous op's files
        with open(self.g_path, "rb") as f:
            g = f.read()
        with open(self.cert_path, "rb") as f:
            cert = f.read()
        os.remove(self.g_path)
        os.remove(self.cert_path)
        return embedded, certified, text, g, cert

    def check(self, i, out) -> bool:
        embedded, certified, _, _, cert = out
        return embedded == 0 and certified == 0 and json.loads(cert)["all_true"] is True

    def digest_bytes(self, out) -> bytes:
        _, _, _, g, cert = out
        return g + b"\0" + cert + b"\0"


class Area:
    """``DehnSolver.solve``, ``piece_count`` and ``verify_steps`` on trivial
    words over the count-3 relator family, as in criterion 7.

    A word is a product of k conjugated relators (k = 1..4), each inverted
    with probability 1/2 and conjugated by a reduced word of 0-4 letters.
    One pass is one isoperimetry job as ``area_bound_check`` and
    ``hnnembed isoperimetry`` run it: 100 words (their default sample
    count) on one solver, so its ``piece_count`` cache grows over the
    whole job.  The pass holds 25 words of each k, with the starting
    relator cycling.
    """

    name = "area"
    tail_q = 0.90
    min_ops = 100
    pass_size = 100

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"area:{seed}")
        pair = Alphabet.of("c1", "c2")
        self.presentation = presentation.Presentation(
            pair, tuple(hnn.generate_relator_family(3, pair))
        )
        rels = [r.letters for r in self.presentation.relators]
        self.inputs: list[Word] = []
        for n in range(self.pass_size):
            k = n % 4 + 1
            first = n // 4 % len(rels)
            letters: list[int] = []
            for t in range(k):
                r = rels[(first + t) % len(rels)]
                if rng.random() < 0.5:
                    r = tuple(-x for x in reversed(r))
                g = _reduced_word(rng, 2, rng.randint(0, 4))
                letters += g + list(r) + [-x for x in reversed(g)]
            self.inputs.append(Word(_free_reduce(letters)))

    def fresh_state(self):
        return dehn.DehnSolver(self.presentation)

    def op(self, solver, i):
        w = self.inputs[i]
        result = solver.solve(w)
        pieces = solver.piece_count(w)
        valid, final = dehn.verify_steps(self.presentation, w, result.steps)
        return result, pieces, valid, final

    def collect(self, raw):
        result, pieces, valid, final = raw
        steps = tuple(
            (s.position, s.relator, s.orientation, s.offset, s.length) for s in result.steps
        )
        return result.trivial, steps, pieces, valid, final.letters

    def check(self, i, out) -> bool:
        trivial, steps, pieces, valid, final = out
        return trivial and valid and final == () and pieces is not None and len(steps) <= pieces

    def digest_bytes(self, out) -> bytes:
        trivial, steps, pieces, _, _ = out
        return repr((trivial, steps, len(steps), pieces)).encode()


_OUTSIDE = ("a", "b", "c")
_INSIDE = ("y", "z")


class SmallChecks:
    """Parse, overlap checks, subcomplex checks and a folded core on tiny
    presentations: 1-3 outside and 1-2 inside generators, 1-3 relators of
    1-10 letters (criteria 3-5).  Fixed per-call cost dominates here.

    A run repeats the pass, so the samples beyond a percentile are repeats
    of the costliest few inputs; the tail is p99 so that 20 distinct inputs
    lie beyond it, not the repeats of one or two."""

    name = "small-checks"
    tail_q = 0.99
    min_ops = 10_000
    pass_size = 2000

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"small-checks:{seed}")
        self.inputs: list[tuple[str, tuple[str, ...]]] = []
        for _ in range(self.pass_size):
            names = _OUTSIDE[: rng.randint(1, 3)] + _INSIDE[: rng.randint(1, 2)]
            lines = ["gens: " + " ".join(names)]
            for _ in range(rng.randint(1, 3)):
                w = _cyclically_reduced_word(rng, len(names), rng.randint(1, 10))
                lines.append(
                    "rel: " + " ".join(names[abs(x) - 1] + ("'" if x < 0 else "") for x in w)
                )
            kill = tuple(n for n in names if n in _INSIDE)
            self.inputs.append(("\n".join(lines) + "\n", kill))

    def fresh_state(self):
        return None

    def op(self, state, i):
        text, kill = self.inputs[i]
        p = parsing.parse_presentation(text)
        cprime = presentation.check_cprime(p.relators, 1, 6)
        cp = presentation.check_cp(p.relators, 7)
        spec = subquotient.SubcomplexSpec.spanned_by(p, kill)
        powers = subquotient.check_no_extra_powers(spec)
        duplicates = subquotient.check_no_duplicates(spec)
        lift = subquotient.liftability_counterexample_search(spec)
        core = stallings.subgroup_core(p.alphabet, p.relators)
        return (
            tuple(r.letters for r in p.relators),
            cprime.holds,
            cprime.max_piece,
            cp.holds,
            cp.min_pieces,
            powers.verdict,
            duplicates.verdict,
            lift,
            stallings.canonical_form(core),
        )

    def collect(self, raw):
        return raw

    def check(self, i, out) -> bool:
        words, cprime_holds, max_piece, cp_holds, mins, _, _, _, form = out
        rows, best = oracle.piece_table(list(words))
        if tuple(best) != max_piece:
            return False
        if tuple(oracle.min_pieces(r) for r in rows) != mins:
            return False
        if cprime_holds != all(m * 6 < len(w) for m, w in zip(best, words)):
            return False
        if cp_holds != all(m is None or m >= 7 for m in mins):
            return False
        alphabet = parsing.parse_presentation(self.inputs[i][0]).alphabet
        wedge = stallings.bouquet(alphabet, [Word(w) for w in words])
        return all(
            stallings.canonical_form(stallings.trim_to_core(stallings.fold(wedge, order_seed=s)))
            == form
            for s in (1, 2)
        )

    def digest_bytes(self, out) -> bytes:
        return repr(out).encode()


WORKLOADS = {w.name: w for w in (Complete, Area, SmallChecks)}
