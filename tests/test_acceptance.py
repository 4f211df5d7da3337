"""End-to-end acceptance gate.

Eight criteria, each a single test that prints one visible PASS/FAIL line
with its runtime.  Oracles are written out here independently of the
library-adjacent test files so this module stands on its own.
"""

import json
import random
import time
from contextlib import contextmanager

from hnnembed.cli import main as cli_main
from hnnembed.dehn import area_bound_check, random_trivial_words
from hnnembed.hnn import (
    construct_embedding,
    construct_irreducible_embedding,
    generate_relator_family,
)
from hnnembed.presentation import Presentation, piece_stats
from hnnembed.stallings import (
    basepoint_degree,
    bouquet,
    canonical_form,
    fold,
    subgroup_core,
    trim_to_core,
)
from hnnembed.subquotient import (
    SubcomplexSpec,
    check_no_duplicates,
    check_no_extra_powers,
    liftability_counterexample_search,
    quotient,
)
from hnnembed.words import (
    Alphabet,
    Word,
    exponent,
    random_reduced_word,
)

from helpers import (
    criterion_6_inputs,
    hnn_from_strings,
    min_piece_decomposition,
    presentation_from_strings,
    random_cyclically_reduced_word,
)


@contextmanager
def criterion(capsys, number, description, limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit else "FAIL"
    with capsys.disabled():
        print(
            f"criterion {number}: {verdict} - {description} "
            f"({elapsed:.2f}s, limit {limit:.0f}s)"
        )
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s"


INTRO = hnn_from_strings(
    [("a", " ".join(["a b c"] * 8)), ("b", " ".join(["a c"] * 9) + " b")],
    free=["c"],
)


def test_criterion_1_quotient_examples(capsys):
    with criterion(capsys, 1, "collapse examples match exactly", 1.0):
        x1 = presentation_from_strings("a b c", ["b c a b c b c"])
        x2 = presentation_from_strings("a b c", ["a b c", "a b c c"])

        spec = SubcomplexSpec.spanned_by(x1, ["a"])
        q = quotient(spec)
        assert q.alphabet.names == ("b", "c")
        assert q.alphabet.word_str(q.projected[0].word) == "b c b c b c"
        assert exponent(x1.relators[0]) == 1
        assert exponent(q.projected[0].word) == 3
        assert not check_no_extra_powers(spec).verdict

        spec = SubcomplexSpec.spanned_by(x1, ["c"])
        q = quotient(spec)
        assert q.alphabet.names == ("a", "b")
        assert q.alphabet.word_str(q.projected[0].word) == "b a b b"
        assert check_no_extra_powers(spec).verdict

        spec = SubcomplexSpec.spanned_by(x2, ["c"])
        q = quotient(spec)
        assert [q.alphabet.word_str(pr.word) for pr in q.projected] == ["a b", "a b"]
        rep = check_no_duplicates(spec)
        assert not rep.verdict and rep.collisions == ((0, 1),)

        spec = SubcomplexSpec.spanned_by(x2, ["a"])
        q = quotient(spec)
        assert [q.alphabet.word_str(pr.word) for pr in q.projected] == ["b c", "b c c"]
        assert check_no_duplicates(spec).verdict


def test_criterion_2_intro_embedding_shape(capsys, tmp_path):
    with criterion(capsys, 2, "intro completion: 2 new generators, 3 new relators, certified", 5.0):
        result = construct_embedding(INTRO)
        assert result.new_names == ("c1", "c2")
        assert len(result.new_names) == 2
        new_relators = len(result.pair.parent.relators) - len(INTRO.ascending)
        assert new_relators == 3
        assert result.certificate.all_true()

        # independent re-derivation through the CLI round trip
        h_path = tmp_path / "h.pres"
        h_path.write_text(
            "hnn: t; ascending: a b; free: c\n"
            "map a: ( a b c )^8\n"
            "map b: ( a c )^9 b\n"
        )
        g_path = tmp_path / "g.pres"
        cert_path = tmp_path / "cert.json"
        assert (
            cli_main(
                ["embed", "--in", str(h_path), "--out", str(g_path), "--cert", str(cert_path)]
            )
            == 0
        )
        assert (
            cli_main(
                ["certify", "--in", str(h_path), "--g", str(g_path), "--cert", str(cert_path)]
            )
            == 0
        )
        stored = json.loads(cert_path.read_text())
        assert stored["all_true"] and stored["new_generators"] == ["c1", "c2"]
    capsys.readouterr()


def _oracle_piece_table(words, include_inverses=True):
    """Quadratic piece scan: every occurrence pair, letter by letter."""
    periods = [len(w) // exponent(Word(w)) for w in words]
    occs = []
    for j, w in enumerate(words):
        for o in (1, -1) if include_inverses else (1,):
            lw = w if o == 1 else tuple(-x for x in reversed(w))
            for off in range(len(lw)):
                occs.append(((j, o, off % periods[j]), lw + lw, off, len(lw), j, o, off))
    per_off = [[0] * len(w) for w in words]
    per_max = [0] * len(words)
    for key_a, dbl_a, off_a, len_a, j_a, o_a, raw_a in occs:
        for key_b, dbl_b, off_b, len_b, _j_b, _o_b, _raw_b in occs:
            if key_a == key_b:
                continue
            cap = min(len_a, len_b)
            matched = 0
            while matched < cap and dbl_a[off_a + matched] == dbl_b[off_b + matched]:
                matched += 1
            if o_a == 1 and matched > per_off[j_a][raw_a]:
                per_off[j_a][raw_a] = matched
            if matched > per_max[j_a]:
                per_max[j_a] = matched
    return [tuple(r) for r in per_off], per_max


def _oracle_dp_decomposition(row):
    n = len(row)
    if any(v == 0 for v in row):
        return None
    best = None
    for start in range(n):
        inf = 10**9
        dp = [inf] * (n + 1)
        dp[n] = 0
        for i in range(n - 1, -1, -1):
            limit = min(row[(start + i) % n], n - i)
            for j in range(1, limit + 1):
                if 1 + dp[i + j] < dp[i]:
                    dp[i] = 1 + dp[i + j]
        if best is None or dp[0] < best:
            best = dp[0]
    return best


def test_criterion_3_piece_scan_oracle_equivalence(capsys):
    with criterion(capsys, 3, "piece scan and greedy decomposition match oracles on 500 presentations", 60.0):
        rng = random.Random(9001)
        for _ in range(500):
            rank = rng.randint(1, 3)
            words = [
                random_cyclically_reduced_word(rng, rank, rng.randint(1, 10))
                for _ in range(rng.randint(1, 3))
            ]
            Presentation(Alphabet.of(*"abc"[:rank]), tuple(words))  # shape sanity
            rep = piece_stats(words)
            oracle_rows, oracle_max = _oracle_piece_table([w.letters for w in words])
            assert list(rep.per_offset) == oracle_rows
            assert list(rep.max_piece) == oracle_max
            for row in rep.per_offset:
                assert min_piece_decomposition(row) == _oracle_dp_decomposition(row)


def test_criterion_4_liftability_search(capsys):
    with criterion(capsys, 4, "clean collapses never hide a cancellation; seeded counterexample found", 60.0):
        seeded = presentation_from_strings("a b c", ["a b c a b c c"])
        assert (
            liftability_counterexample_search(SubcomplexSpec.spanned_by(seeded, ["c"]))
            is not None
        )

        rng = random.Random(9004)
        passing = 0
        attempts = 0
        while passing < 500:
            attempts += 1
            assert attempts < 100000
            outside = rng.randint(1, 3)
            inside = rng.randint(1, 2)
            names = list("abc"[:outside]) + ["y", "z"][:inside]
            words = [
                random_cyclically_reduced_word(rng, len(names), rng.randint(1, 10))
                for _ in range(rng.randint(1, 3))
            ]
            try:
                p = Presentation(Alphabet.of(*names), tuple(words))
            except ValueError:
                continue
            spec = SubcomplexSpec.spanned_by(p, names[outside:])
            if not check_no_extra_powers(spec).verdict:
                continue
            if not check_no_duplicates(spec).verdict:
                continue
            passing += 1
            assert liftability_counterexample_search(spec) is None, str(p)


def test_criterion_5_folded_core_properties(capsys):
    with criterion(capsys, 5, "200 cores: basepoint degree bound and fold confluence", 30.0):
        rng = random.Random(9005)
        for _ in range(200):
            rank = rng.randint(1, 4)
            alphabet = Alphabet.of(*[f"g{i}" for i in range(rank)])
            count = rng.randint(1, 5)
            generators = []
            while len(generators) < count:
                w = random_reduced_word(rng, rank, rng.randint(1, 8))
                if w:
                    generators.append(w)
            core = subgroup_core(alphabet, generators)
            assert basepoint_degree(core) <= 2 * count
            wedge = bouquet(alphabet, generators)
            one = trim_to_core(fold(wedge, order_seed=1))
            two = trim_to_core(fold(wedge, order_seed=2))
            assert canonical_form(one) == canonical_form(two) == canonical_form(core)


def test_criterion_6_irreducible_certificates(capsys):
    with criterion(capsys, 6, "20 random inputs: irreducible completion certified with zero failures", 120.0):
        for h in criterion_6_inputs():
            result = construct_irreducible_embedding(h)
            cert = result.certificate
            assert cert.cprime.holds, "metric small-cancellation verdict"
            assert cert.irreducible is not None
            assert all(cert.irreducible.digram_coverage)
            assert cert.irreducible.wedge_check
            assert cert.monomorphism
            assert cert.all_true(), cert.failing()


def test_criterion_7_linear_area_demonstration(capsys):
    with criterion(capsys, 7, "100 random trivial words solve with linearly bounded area", 60.0):
        pair = Alphabet.of("c1", "c2")
        presentation = Presentation(pair, tuple(generate_relator_family(3, pair)))
        samples = random_trivial_words(presentation, 100, 4, seed=0)
        assert len(samples) == 100
        # raises if any sample fails to solve or any area exceeds its piece budget
        report = area_bound_check(presentation, samples)
        for row in report.rows:
            if row.ratio is not None:
                assert row.ratio <= 1
        assert report.max_ratio is not None and report.max_ratio <= 1


def test_criterion_8_certificates_carry_the_headline(capsys):
    with criterion(capsys, 8, "headline is existential; certificate suites carry acceptance", 30.0):
        plain = construct_embedding(INTRO)
        irreducible = construct_irreducible_embedding(INTRO)
        assert plain.certificate.all_true()
        assert irreducible.certificate.all_true()
        assert irreducible.certificate.irreducible is not None
