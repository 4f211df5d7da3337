import argparse
import collections
import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from hnnembed import cli, dehn, hnn
from hnnembed.cli import main
from hnnembed.parsing import hnn_source, parse_hnn, parse_presentation
from hnnembed.words import Alphabet, Word

from helpers import complete_workload_inputs, sweep_input


X1 = "gens: a b c\nrel: b c a b c b c\n"
X2 = "gens: a b c\nrel: a b c\nrel: a b c c\n"
SURFACE = "gens: a b c d\nrel: a b a' b' c d c' d'\n"
INTRO = "hnn: t; ascending: a b; free: c\nmap a: ( a b c )^8\nmap b: ( a c )^9 b\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("x1", X1),
        ("x2", X2),
        ("surface", SURFACE),
        ("intro", INTRO),
        ("subgroup", "gens: a b\nrel: a b a'\nrel: b b\n"),
        ("broken", "gens: a\nrel: a a'\n"),
    ]:
        p = tmp_path / f"{name}.pres"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    # canonical form: re-serializing is byte-identical
    data = json.loads(out)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out
    return code, data


def test_parse_describes_both_kinds(files, capsys):
    code, out, _ = run(capsys, "parse", files["x1"])
    assert code == 0 and "b c a b c b c" in out
    code, out, _ = run(capsys, "parse", files["intro"])
    assert code == 0 and "stable t" in out and "ascending a b" in out


def test_parse_emit_round_trips(files, capsys):
    code, out, _ = run(capsys, "parse", files["intro"], "--emit")
    assert code == 0
    assert parse_hnn(out) == parse_hnn(INTRO)
    code, out, _ = run(capsys, "parse", files["x2"], "--emit")
    assert parse_presentation(out) == parse_presentation(X2)


def test_parse_error_exits_2_with_line(files, capsys):
    code, _, err = run(capsys, "parse", files["broken"])
    assert code == 2
    assert "line 2" in err and "not cyclically reduced" in err


def test_parse_deep_nesting(tmp_path, capsys):
    nested = tmp_path / "nested.pres"
    nested.write_text("gens: a\nrel: " + "(" * 3000 + "a" + ")" * 3000 + "\n")
    code, out, err = run(capsys, "parse", str(nested))
    assert code == 0 and err == "" and "1 relators" in out
    unclosed = tmp_path / "unclosed.pres"
    unclosed.write_text("gens: a\nrel: " + "(" * 3000 + "a\n")
    code, out, err = run(capsys, "parse", str(unclosed))
    assert code == 2 and out == ""
    assert err == f"error: {unclosed}: line 2: missing ')'\n"


BUDGET = 2**21  # parsing.MAX_WORD_LETTERS, written out so the boundary is pinned


@pytest.mark.parametrize(
    "word,diagnostic",
    [
        (f"( a )^{BUDGET}", None),
        (f"( a )^{BUDGET + 1}", f"exponent above {BUDGET}"),
        (f"( a )^{BUDGET} a", f"word longer than {BUDGET} letters"),
        ("( ( a b )^65536 )^65536", f"word longer than {BUDGET} letters"),
        ("( a b )^" + "9" * 5000, f"exponent above {BUDGET}"),
    ],
    ids=["at-budget", "power-over", "letter-over", "nested", "5000-digit-exponent"],
)
def test_word_letter_budget(word, diagnostic, tmp_path, capsys):
    """A word may hold up to the budget of letters.  A power that would
    pass it is refused before it is expanded, so a hostile exponent exits
    2 with one line instead of a traceback or an unbounded expansion."""
    path = tmp_path / "h.pres"
    path.write_text(f"hnn: t; ascending: a; free: b\nmap a: {word}\n")
    if diagnostic is None:
        code, out, err = run(capsys, "parse", str(path))
        assert (code, err) == (0, "") and "ascending a" in out
        return
    for command in ("parse", "check-smallcancel"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: line 2: {diagnostic}\n")


def test_near_periodic_cells_are_compared_in_linear_time(tmp_path, capsys):
    """Two 2**17-letter projections that differ in one letter, with every
    rotation agreeing on the first letter: a rotation scan that slices
    the whole word at each candidate takes minutes here."""
    path = tmp_path / "p.pres"
    path.write_text("gens: a b y\nrel: ( a )^131072 y\nrel: ( a )^131071 b y\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check-rel", str(path), "--kill", "y")
    assert time.perf_counter() - start < 60
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert report["no_extra_powers"]["verdict"] is False
    assert report["no_duplicates"] == {
        "verdict": True, "collisions": [], "inverted_collisions": []
    }


def test_a_long_power_among_many_cells_is_scanned(tmp_path, capsys):
    """A power of 2**21 letters and 300 short cells: the scan's token ids
    pass 2**31, and the file still gets its verdict, not a traceback."""
    path = tmp_path / "w.pres"
    path.write_text(f"gens: a b\nrel: ( a )^{BUDGET}\n" + "rel: b a\n" * 300)
    code, data = run_json(capsys, "check-smallcancel", str(path))
    assert code in (0, 1)
    assert data["cprime"]["lengths"] == [BUDGET] + [2] * 300


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/nope.pres")
    assert code == 2 and "error:" in err


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.pres"
    path.write_bytes(b"gens: \xe9\n")
    code, out, err = run(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["pieces", "check-smallcancel"])
def test_a_file_without_relators_exits_2(command, tmp_path, capsys):
    path = tmp_path / "free.pres"
    path.write_text("gens: a b\n")
    assert run(capsys, command, str(path)) == (2, "", "error: no relators to scan\n")


def test_argument_parser_is_built_once_per_process(files, capsys, monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "hnnembed":  # the top-level parser, not a subcommand's
            builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    assert run(capsys, "parse", files["x1"])[0] == 0
    assert run(capsys, "parse", files["intro"], "--emit")[0] == 0
    assert run(capsys, "parse", "/nonexistent/nope.pres")[0] == 2
    assert len(builds) == 1
    code, out, err = run(capsys, "no-such-command")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ") and "invalid choice" in err


def test_pieces_reports_shared_subword(files, capsys):
    code, data = run_json(capsys, "pieces", files["x2"])
    assert code == 0
    rows = {r["name"]: r for r in data["relators"]}
    assert rows["r1"]["max_piece"] == 3
    assert rows["r2"]["max_piece"] == 3
    words = {p["word"] for r in rows.values() for p in r["maximal_pieces"]}
    assert "a b c" in words


def test_check_smallcancel_verdicts(files, capsys):
    code, data = run_json(capsys, "check-smallcancel", files["surface"], "--cp", "7")
    assert code == 0
    assert data["cprime"]["holds"] and data["cp"]["holds"]
    code, data = run_json(capsys, "check-smallcancel", files["x2"])
    assert code == 1 and not data["cprime"]["holds"]


@pytest.mark.parametrize(
    "bound,diagnostic",
    [
        (("--cprime", "7/3"), "--cprime wants a fraction strictly between 0 and 1, got 7/3"),
        (("--cprime", "0/6"), "--cprime wants a fraction strictly between 0 and 1, got 0/6"),
        (("--cprime", "1/-6"), "--cprime wants a fraction strictly between 0 and 1, got 1/-6"),
        (("--cprime", "1/0"), "--cprime wants a fraction strictly between 0 and 1, got 1/0"),
        (("--cprime", "1/x"), "--cprime wants N/D, got '1/x'"),
        (("--cp", "1"), "--cp wants at least 2, got 1"),
        (("--cp", "-3"), "--cp wants at least 2, got -3"),
    ],
)
def test_check_smallcancel_rejects_bad_bounds(bound, diagnostic, files, capsys):
    code, out, err = run(capsys, "check-smallcancel", files["surface"], *bound)
    assert (code, out, err) == (2, "", f"error: {diagnostic}\n")


def test_check_smallcancel_scans_once(files, capsys, monkeypatch):
    calls = []
    real = cli.piece_stats
    monkeypatch.setattr(cli, "piece_stats", lambda *a, **k: calls.append(a) or real(*a, **k))
    code, data = run_json(capsys, "check-smallcancel", files["surface"], "--cp", "7")
    assert code == 0 and data["cp"] == {"p": 7, "holds": True}
    assert len(calls) == 1


def test_quotient_projection(files, capsys):
    code, data = run_json(capsys, "quotient", files["x1"], "--kill", "a")
    assert code == 0
    assert data["generators"] == ["b", "c"]
    assert data["projected"] == [{"source": "r1", "word": "b c b c b c"}]
    assert data["dropped"] == []


def test_check_rel_flags_power_jump(files, capsys):
    code, data = run_json(capsys, "check-rel", files["x1"], "--kill", "a")
    assert code == 1
    assert not data["no_extra_powers"]["verdict"]
    (violation,) = data["no_extra_powers"]["violations"]
    assert violation["relator"] == "r1"
    assert (violation["before"], violation["after"]) == (1, 3)
    code, data = run_json(capsys, "check-rel", files["x1"], "--kill", "c")
    assert code == 0
    assert data["no_extra_powers"]["verdict"] and data["no_duplicates"]["verdict"]


def test_check_rel_flags_duplicates(files, capsys):
    code, data = run_json(capsys, "check-rel", files["x2"], "--kill", "c")
    assert code == 1
    assert data["no_duplicates"]["collisions"] == [["r1", "r2"]]


# 32,000 one-letter powers of a, a long one, and two cells that leave a:
# killing a collapses almost every cell of the file.
MOSTLY_INSIDE = (
    "gens: a b\n"
    + "".join(f"rel: ( a )^{1 + k % 40}\n" for k in range(32000))
    + "rel: ( a )^2097152\nrel: ( a b )^1000\nrel: a b a b b\n"
)


def _relative_check_cases():
    """(file text, kill list) pairs: X1, X2, the mostly-inside file, and
    seeded files shaped like the benchmark's small checks, with 1-3
    outside and 1-2 inside generators and 1-3 relators of 1-10 letters,
    some of them one-letter powers of an inside generator.  Each seeded
    file is collapsed along its inside generators, along none of its
    generators and along all of them."""
    cases = [(X1, k) for k in ("a", "c", "", "a b c")]
    cases += [(X2, k) for k in ("a", "c", "", "a b c")]
    cases.append((MOSTLY_INSIDE, "a"))
    rng = random.Random(33)
    for _ in range(300):
        names = ["a", "b", "c"][: rng.randint(1, 3)] + ["y", "z"][: rng.randint(1, 2)]
        inside = [n for n in names if n in ("y", "z")]
        lines = ["gens: " + " ".join(names)]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                lines.append(f"rel: ( {rng.choice(inside)} )^{rng.randint(1, 10)}")
                continue
            # drawn here, not by a package helper, so the pinned digest
            # moves only when the two commands' output does
            n = rng.randint(1, 10)
            while True:
                w = [rng.choice((1, -1)) * rng.randint(1, len(names))]
                while len(w) < n:
                    x = rng.choice((1, -1)) * rng.randint(1, len(names))
                    if x != -w[-1]:
                        w.append(x)
                if n == 1 or w[0] != -w[-1]:
                    break
            lines.append("rel: " + " ".join(names[abs(x) - 1] + ("'" if x < 0 else "") for x in w))
        text = "\n".join(lines) + "\n"
        cases += [(text, " ".join(kill)) for kill in (inside, [], names)]
    return cases


def test_relative_check_stdout_is_pinned(tmp_path, capsys):
    """The exit code and stdout of quotient and check-rel, byte for byte."""
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for k, (text, kill) in enumerate(_relative_check_cases()):
        path = tmp_path / f"{k}.pres"
        path.write_text(text)
        for command in ("quotient", "check-rel"):
            code, out, err = run(capsys, command, str(path), "--kill", kill)
            assert err == ""
            outcomes[command, code] += 1
            digest.update(f"{command} {k} {code}\n".encode() + out.encode() + b"\0")
    assert outcomes == {("quotient", 0): 909, ("check-rel", 0): 845, ("check-rel", 1): 64}
    assert digest.hexdigest() == "1acbc04f8bee877e56f1b10cd2d3d13001b886e4655543439322ccda8bdb52d4"


def test_fold_membership_exit_codes(files, capsys):
    code, data = run_json(capsys, "fold", files["subgroup"])
    assert code == 0
    assert data["rank"] == 2 and data["vertices"] == 3
    code, data = run_json(capsys, "fold", files["subgroup"], "--word", "b b b b")
    assert code == 0 and data["member"]
    code, data = run_json(capsys, "fold", files["subgroup"], "--word", "a")
    assert code == 1 and not data["member"]


# A generating set whose fold both merges and trims: a duplicate
# generator, a conjugate, an unreduced word and a word that reduces to 1.
GENERATING_SET = "gens: a b c\nrel: a b\nrel: a b\nrel: a c a'\nrel: b b' a a\nrel: c a a' c'\n"
GENERATING_SET_CORE = {
    "basepoint_degree": 3,
    "edges": [[0, 1, "a"], [1, 0, "a"], [1, 0, "b"], [1, 1, "c"]],
    "rank": 3,
    "vertices": 2,
}


@pytest.mark.parametrize(
    "word,exit_code,digest",
    [
        (None, 0, "4a4d42ee7bcd65ba85d99f44dc5f999bcaf4238a354ca32e7446157cf909a3bf"),
        ("a c c a'", 0, "ba021d115a463f23dedbae3f9f5cbbaa3e6f801ef5e804bcfac1447db1eac8c8"),
        ("b", 1, "43390af1a8d1cfcf2bb973d53e200aa6bc18812ec7e487dfcdc8a887068dfd8c"),
    ],
)
def test_fold_stdout_is_pinned(word, exit_code, digest, tmp_path, capsys):
    source = tmp_path / "gens.pres"
    source.write_text(GENERATING_SET)
    argv = ["fold", str(source)] + ([] if word is None else ["--word", word])
    code, data = run_json(capsys, *argv)
    assert code == exit_code
    expected = dict(GENERATING_SET_CORE)
    if word is not None:
        expected.update(word=word, member=exit_code == 0)
    assert data == expected
    out = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_embed_builds_alphabets_independent_of_ascending_count(tmp_path, capsys, monkeypatch):
    """An embed builds the input's alphabets once each, not once per
    ascending generator that the certificate renders."""
    builds = []
    init = Alphabet.__post_init__

    def counted(self):
        builds.append(self.names)
        init(self)

    monkeypatch.setattr(Alphabet, "__post_init__", counted)
    images = ["( a b c )^8", "( a c )^9 b", "c a c b", "b c ( a )^2"]
    counts = []
    for k in range(1, 5):
        ascending = ["a", "b", "d", "e"][:k]
        free = "b c" if k == 1 else "c"
        path = tmp_path / f"h{k}.pres"
        path.write_text(
            f"hnn: t; ascending: {' '.join(ascending)}; free: {free}\n"
            + "".join(f"map {g}: {img}\n" for g, img in zip(ascending, images))
        )
        builds.clear()
        code, _, err = run(
            capsys, "embed", "--in", str(path), "--out", str(tmp_path / "g.pres"),
            "--cert", str(tmp_path / "cert.json"),
        )
        assert code == 0, err
        counts.append(len(builds))
    assert len(set(counts)) == 1, counts


def test_embed_writes_files_and_certifies(files, tmp_path, capsys):
    out_pres = str(tmp_path / "g.pres")
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(
        capsys, "embed", "--in", files["intro"], "--out", out_pres, "--cert", cert_path
    )
    assert code == 0 and "c1, c2" in out
    group = parse_hnn(open(out_pres).read())
    assert group.free == ()
    assert group.ascending == ("a", "b", "c", "c1", "c2")
    cert = json.loads(open(cert_path).read())
    assert cert["all_true"] and cert["construction"] == "plain"
    assert cert["new_generators"] == ["c1", "c2"]
    assert len(cert["quotient"]["words"]) == 3
    # stored file is canonical too
    raw = open(cert_path).read()
    assert json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n" == raw

    code, out, _ = run(
        capsys,
        "certify", "--in", files["intro"], "--g", out_pres, "--cert", cert_path,
    )
    assert code == 0 and "verified" in out


def test_embed_unwritable_output_exits_2(files, tmp_path, capsys):
    good = str(tmp_path / "ok.out")
    missing = str(tmp_path / "missing_dir" / "x.out")
    for out_pres, cert_path in ((missing, good), (good, missing)):
        code, out, err = run(
            capsys, "embed", "--in", files["intro"], "--out", out_pres, "--cert", cert_path
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "missing_dir" in err
        assert len(err.splitlines()) == 1


def test_embed_irreducible_certifies(files, tmp_path, capsys):
    out_pres = str(tmp_path / "gi.pres")
    cert_path = str(tmp_path / "certi.json")
    code, _, _ = run(
        capsys,
        "embed", "--in", files["intro"], "--out", out_pres, "--cert", cert_path,
        "--irreducible",
    )
    assert code == 0
    cert = json.loads(open(cert_path).read())
    assert cert["construction"] == "irreducible"
    irr = cert["checks"]["irreducible"]
    assert irr["wedge_check"] and irr["core_matches_wedge"]
    assert irr["basepoint_degree"] <= irr["degree_bound"]
    code, _, _ = run(
        capsys,
        "certify", "--in", files["intro"], "--g", out_pres, "--cert", cert_path,
    )
    assert code == 0


# A 4+4 input whose irreducible completion fails C'(1/7) at scale 1 and
# passes at scale 2, so it goes once round the escalation loop.
ESCALATING = (
    "hnn: t; ascending: a1 a2 a3 a4; free: b1 b2 b3 b4\n"
    "map a1: b3\n"
    "map a2: a1' b3' b1 a1' a2' a4' b1\n"
    "map a3: a3 b2' b3' b4 a2 b3 b1' b2 b3' a1\n"
    "map a4: a1' b4 b2 b4 a1' b2' b4\n"
)

# sha256 of (cert.json, G.pres) as embed writes them
GOLDEN = {
    ("intro", False): (
        "0b55d629744926e5bff1383a685d2810d2401cee88023f13a84d8836845e1dd6",
        "b722dd535d1ddb8923e063666642ada56992085d5a25e56844807a2c5b8c50fb",
    ),
    ("intro", True): (
        "3908ac150c6b2b494ad9d0a6a70aa20fd08bae07a77834c57f173ed74f0e46a7",
        "856f2d8ba830c4b281c36d6863b3cceace6e33b0a9f4ea193a7e24ad3f00ff25",
    ),
    ("escalating", False): (
        "4653911e036968f7b14e638d405cb5644449993f5e3a8f3990a49ba91de9783c",
        "b1c52688f331e1b857ebe6a2a69d6456455457a13eda532962e18e5469daac9a",
    ),
    ("escalating", True): (
        "9519819749fb6f09a07d810aa90fe94f2defd174bb5b1776a1e40b66ff2df64b",
        "13c8f8d040d6a752c3d6915bcc9c3999f2cdabf93a69c023b83a7842d872bced",
    ),
}


# what embed prints for each GOLDEN case
EMBED_STDOUT = {
    ("intro", False): "adjoined c1, c2; 5 relators; all checks pass\n",
    ("intro", True): "adjoined c1, c2; 5 relators; all checks pass\n",
    ("escalating", False): "adjoined c1, c2; 10 relators; all checks pass\n",
    ("escalating", True): "adjoined c1, c2; 10 relators; all checks pass\n",
}


@pytest.mark.parametrize("name,irreducible", sorted(GOLDEN))
def test_embed_outputs_are_pinned(name, irreducible, tmp_path, capsys):
    source = tmp_path / "h.pres"
    source.write_text({"intro": INTRO, "escalating": ESCALATING}[name])
    out_pres, cert_path = tmp_path / "g.pres", tmp_path / "cert.json"
    argv = ["embed", "--in", str(source), "--out", str(out_pres), "--cert", str(cert_path)]
    code, out, err = run(capsys, *argv, *(["--irreducible"] if irreducible else []))
    assert (code, out, err) == (0, EMBED_STDOUT[name, irreducible], "")
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() for path in (cert_path, out_pres)
    )
    assert digests == GOLDEN[name, irreducible]


def test_certify_rejects_tampering(files, tmp_path, capsys):
    out_pres = str(tmp_path / "g.pres")
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "embed", "--in", files["intro"], "--out", out_pres, "--cert", cert_path)
    cert = json.loads(open(cert_path).read())
    cert["checks"]["monomorphism"] = False
    tampered = str(tmp_path / "tampered.json")
    open(tampered, "w").write(json.dumps(cert, sort_keys=True, indent=2) + "\n")
    code, _, err = run(
        capsys, "certify", "--in", files["intro"], "--g", out_pres, "--cert", tampered
    )
    assert code == 1 and "mismatch" in err


def test_certify_rejects_wrong_group_file(files, tmp_path, capsys):
    out_pres = str(tmp_path / "g.pres")
    cert_path = str(tmp_path / "cert.json")
    run(capsys, "embed", "--in", files["intro"], "--out", out_pres, "--cert", cert_path)
    other_pres = str(tmp_path / "gi.pres")
    other_cert = str(tmp_path / "certi.json")
    run(
        capsys,
        "embed", "--in", files["intro"], "--out", other_pres, "--cert", other_cert,
        "--irreducible",
    )
    code, _, err = run(
        capsys, "certify", "--in", files["intro"], "--g", other_pres, "--cert", cert_path
    )
    assert code == 1 and "does not match" in err


VERIFIED = "certificate verified: construction and all checks reproduced\n"


def embed_files(tmp_path, capsys, text, irreducible):
    """Write H, embed it, and return the paths of H, G and the certificate."""
    source = tmp_path / "h.pres"
    source.write_text(text)
    out_pres, cert_path = tmp_path / "g.pres", tmp_path / "cert.json"
    argv = ["embed", "--in", str(source), "--out", str(out_pres), "--cert", str(cert_path)]
    code, _, _ = run(capsys, *argv, *(["--irreducible"] if irreducible else []))
    assert code == 0
    return str(source), str(out_pres), str(cert_path)


@pytest.mark.parametrize("name,irreducible", sorted(GOLDEN))
def test_certify_runs_no_construction(name, irreducible, tmp_path, capsys, monkeypatch):
    h, g, cert = embed_files(
        tmp_path, capsys, {"intro": INTRO, "escalating": ESCALATING}[name], irreducible
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("certify ran construction code")

    for module in (hnn, cli):
        for attr in (
            "generate_relator_family",
            "_escalate",
            "construct_embedding",
            "construct_irreducible_embedding",
        ):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, forbidden)
    code, out, err = run(capsys, "certify", "--in", h, "--g", g, "--cert", cert)
    assert (code, out, err) == (0, VERIFIED, "")


def single_leaf_tampers(node, path=()):
    """Every certificate that differs from ``node`` in one leaf: each bool
    flipped, each int plus one, each string changed, each null made 0,
    and each nonempty list one element short."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from single_leaf_tampers(node[key], path + (key,))
    elif isinstance(node, list):
        if node:
            yield path, node[:-1]
        for i, item in enumerate(node):
            yield from single_leaf_tampers(item, path + (i,))
    elif isinstance(node, bool):
        yield path, not node
    elif isinstance(node, int):
        yield path, node + 1
    elif isinstance(node, str):
        yield path, node + "'"
    else:
        yield path, 0


@pytest.mark.parametrize("irreducible", [False, True], ids=["plain", "irreducible"])
def test_certify_rejects_every_single_leaf_tamper(irreducible, tmp_path, capsys, monkeypatch):
    h, g, cert_path = embed_files(tmp_path, capsys, INTRO, irreducible)
    # Tampering leaves H and G alone, so the certificate they give for
    # each construction is computed once.
    monkeypatch.setattr(cli, "certify_completion", functools.cache(hnn.certify_completion))
    cert = json.loads(open(cert_path).read())
    tampered = tmp_path / "tampered.json"
    cases = list(single_leaf_tampers(cert))
    assert len(cases) > 40
    for path, value in cases:
        changed = copy.deepcopy(cert)
        node = changed
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        tampered.write_text(json.dumps(changed, sort_keys=True, indent=2) + "\n")
        code, out, err = run(capsys, "certify", "--in", h, "--g", g, "--cert", str(tampered))
        assert (code, out) == (1, ""), path
        assert "certificate mismatch at: " in err, path


def test_certify_rejects_groups_that_do_not_extend_the_input(tmp_path, capsys):
    h, g, cert = embed_files(tmp_path, capsys, INTRO, False)
    group = parse_hnn(open(g).read())
    other_map = dataclasses.replace(group, images=(Word.of(1),) + group.images[1:])
    # a b c c1 c2 c3 t: the third new generator c3 is letter 6
    third = hnn.PartialAscendingHNN(
        group.ascending + ("c3",), (), group.images + (Word.of(6, 4),), group.stable
    )
    # a b c c1 c2 t: an image that uses the stable letter
    uses_t = dataclasses.replace(
        group, images=group.images[:3] + (group.images[3] * Word.of(6),) + group.images[4:]
    )
    bad = tmp_path / "bad.pres"
    for wrong in (other_map, third, uses_t):
        bad.write_text(hnn_source(wrong))
        code, out, err = run(capsys, "certify", "--in", h, "--g", str(bad), "--cert", cert)
        assert (code, out, err) == (1, "", "group file does not match the input\n")


@pytest.mark.parametrize("flag", ["--in", "--g", "--cert"])
def test_certify_names_the_file_that_is_not_utf8(flag, tmp_path, capsys):
    h, g, cert = embed_files(tmp_path, capsys, INTRO, False)
    paths = {"--in": h, "--g": g, "--cert": cert}
    bad = tmp_path / "latin1"
    bad.write_bytes(b"gens: \xe9\n")
    paths[flag] = str(bad)
    code, out, err = run(capsys, "certify", *itertools.chain(*paths.items()))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode") and len(err.splitlines()) == 1


def test_certify_rejects_an_honest_certificate_of_a_non_injective_group(tmp_path, capsys):
    """G gives c1 and c2 the same image.  Its certificate, recomputed
    honestly, matches and still fails, so certify rejects it."""
    h, g, _ = embed_files(tmp_path, capsys, INTRO, False)
    group = parse_hnn(open(g).read())
    equal = dataclasses.replace(group, images=group.images[:4] + group.images[3:4])
    result = hnn.certify_completion(parse_hnn(INTRO), equal, False)
    assert "monomorphism" in result.certificate.failing()
    bad_g, bad_cert = tmp_path / "bad.pres", tmp_path / "bad.json"
    bad_g.write_text(hnn_source(equal))
    bad_cert.write_text(cli._canonical(cli._certificate_json(result)))
    code, out, err = run(
        capsys, "certify", "--in", h, "--g", str(bad_g), "--cert", str(bad_cert)
    )
    assert (code, out, err) == (1, "", "reconstructed certificate has failing checks\n")


def test_certify_rejects_an_image_that_misses_a_digram(tmp_path, capsys):
    """G is the intro example's irreducible completion with c2's image
    taken from the plain completion, which threads no digram pattern.
    Only that image's digram coverage fails, and certify rejects the
    honest certificate."""
    h, g, _ = embed_files(tmp_path, capsys, INTRO, True)
    group = parse_hnn(open(g).read())
    plain = hnn.construct_embedding(parse_hnn(INTRO)).group
    spoilt = dataclasses.replace(group, images=group.images[:-1] + plain.images[-1:])
    result = hnn.certify_completion(parse_hnn(INTRO), spoilt, True)
    assert result.certificate.irreducible.digram_coverage == (True, True, False)
    assert result.certificate.failing() == ["irreducible"]
    bad_g, bad_cert = tmp_path / "bad.pres", tmp_path / "bad.json"
    bad_g.write_text(hnn_source(spoilt))
    bad_cert.write_text(cli._canonical(cli._certificate_json(result)))
    code, out, err = run(
        capsys, "certify", "--in", h, "--g", str(bad_g), "--cert", str(bad_cert)
    )
    assert (code, out, err) == (1, "", "reconstructed certificate has failing checks\n")


# An input with two free generators b and c, and the images of b and c in
# hand-built completions where b's quotient cell is a proper power, or the
# cells of b and c are equal.
POWER_OR_EQUAL_INPUT = "hnn: t; ascending: a; free: b c\nmap a: a b\n"
POWER_OR_EQUAL_IMAGES = {
    "proper-power": ("c1 c2 c1 c2", "c1 c1 c2"),
    "equal-cells": ("c1 c2 c2", "c1 c2 c2"),
}


def power_or_equal_images(free_images) -> dict[str, str]:
    """Every image of the completion of POWER_OR_EQUAL_INPUT in which b and
    c map to ``free_images``."""
    images = {"a": "a b", "b": free_images[0], "c": free_images[1]}
    return images | {"c1": "c1 c2 c2 c2", "c2": "c2 c1 c2 c2 c2 c2"}


def hnn_text(images: dict[str, str]) -> str:
    return f"hnn: t; ascending: {' '.join(images)}; free:\n" + "".join(
        f"map {name}: {w}\n" for name, w in images.items()
    )


@pytest.mark.parametrize(
    "name,no_proper_powers,pairwise_distinct",
    [
        ("proper-power", [False, True, True, True], True),
        ("equal-cells", [True, True, True, True], False),
    ],
    ids=["proper-power", "equal-cells"],
)
def test_certify_rejects_cells_that_are_powers_or_equal(
    name, no_proper_powers, pairwise_distinct, tmp_path, capsys
):
    """Hand-built group files in which a free generator's quotient cell is
    a proper power, or two free generators' cells are equal.  The two cell
    verdicts match a literal recomputation from the images, and so do
    their restatements under the relative checks' names, and certify
    rejects the honest certificate."""
    h_text = POWER_OR_EQUAL_INPUT
    images = power_or_equal_images(POWER_OR_EQUAL_IMAGES[name])
    g_text = hnn_text(images)
    # The quotient cells: a free generator's image already reads only new
    # letters; a new generator's is its image after its own inverse.
    cells = [tuple(images[x].split()) for x in "bc"]
    cells += [(x + "'", *images[x].split()) for x in ("c1", "c2")]
    assert [
        not any(len(w) % d == 0 and w == w[:d] * (len(w) // d) for d in range(1, len(w)))
        for w in cells
    ] == no_proper_powers
    assert pairwise_distinct == all(
        v != u[i:] + u[:i] for u, v in itertools.combinations(cells, 2) for i in range(len(u))
    )
    result = hnn.certify_completion(parse_hnn(h_text), parse_hnn(g_text), False)
    checks = cli._certificate_json(result)["checks"]
    assert checks["no_proper_powers"] == no_proper_powers
    assert checks["pairwise_distinct"] == pairwise_distinct
    assert checks["no_extra_powers"] == all(no_proper_powers)
    assert checks["no_duplicates"] == pairwise_distinct
    h, g, cert = tmp_path / "h.pres", tmp_path / "g.pres", tmp_path / "cert.json"
    h.write_text(h_text)
    g.write_text(g_text)
    cert.write_text(cli._canonical(cli._certificate_json(result)))
    code, out, err = run(capsys, "certify", "--in", str(h), "--g", str(g), "--cert", str(cert))
    assert (code, out, err) == (1, "", "reconstructed certificate has failing checks\n")


@pytest.mark.parametrize(
    "line,diagnostic",
    [
        ("map c: a", "error: image of c uses no new generator, so its quotient cell is empty\n"),
        ("map c1: c1 c1'", "error: relator c1 is not cyclically reduced\n"),
        ("map c: c1 c1'", "error: relator c is not cyclically reduced\n"),
    ],
)
def test_certify_rejects_unusable_group_files(line, diagnostic, tmp_path, capsys):
    """A group file whose cells the checks cannot read exits 2 with one
    line, for plain and irreducible certificates alike.  A new loop that
    reduces to nothing is rejected here, where the group file enters."""
    for irreducible in (False, True):
        h, g, cert = embed_files(tmp_path, capsys, INTRO, irreducible)
        name = line.split(":")[0]
        text = "".join(
            (line + "\n") if old.startswith(name + ":") else old
            for old in open(g).readlines()
        )
        bad = tmp_path / "bad.pres"
        bad.write_text(text)
        code, out, err = run(capsys, "certify", "--in", h, "--g", str(bad), "--cert", cert)
        assert (code, out, err) == (2, "", diagnostic), irreducible


def test_certify_rejects_unusable_input(tmp_path, capsys):
    _, g, cert = embed_files(tmp_path, capsys, INTRO, False)
    bad = tmp_path / "bad.pres"
    bad.write_text("hnn: t; ascending: a; free:\nmap a: t a t'\n")
    code, out, err = run(capsys, "certify", "--in", str(bad), "--g", g, "--cert", cert)
    assert (code, out) == (2, "")
    assert err == "error: invalid input: image of a uses the stable letter t\n"


def test_embed_rejects_unusable_input(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_text("hnn: t; ascending: a; free:\nmap a: t a t'\n")
    code, _, err = run(
        capsys,
        "embed", "--in", str(bad), "--out", str(tmp_path / "g.pres"),
        "--cert", str(tmp_path / "c.json"),
    )
    assert code == 2
    assert err == "error: invalid input: image of a uses the stable letter t\n"


@pytest.mark.parametrize("image", ["b b'", "t", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("pieces", "{h}"),
        ("check-smallcancel", "{h}"),
        ("embed", "--in", "{h}", "--out", "{g}", "--cert", "{c}"),
    ],
    ids=["pieces", "check-smallcancel", "embed"],
)
def test_hnn_files_whose_cells_are_unusable_exit_2(image, argv, tmp_path, capsys):
    """An image that leaves its conjugation cell not cyclically reduced is
    a one-line diagnostic for every command that reads the cells."""
    h = tmp_path / "h.pres"
    h.write_text(f"hnn: t; ascending: a; free: b\nmap a: {image}\n")
    paths = {"h": h, "g": tmp_path / "g.pres", "c": tmp_path / "c.json"}
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_a_failed_area_budget_is_not_an_exit_code(files, monkeypatch):
    """Only input errors exit 2; a broken invariant still raises."""

    def broken(presentation, samples):
        raise AssertionError("sample 0: area 2 exceeds piece budget 1")

    monkeypatch.setattr(cli, "area_bound_check", broken)
    with pytest.raises(AssertionError, match="exceeds piece budget"):
        main(["isoperimetry", "--pres", files["surface"], "--samples", "2"])


def test_word_solve_exit_codes(files, capsys):
    code, data = run_json(
        capsys,
        "word-solve", "--pres", files["surface"],
        "--word", "c ( a b a' b' c d c' d' ) c'",
    )
    assert code == 0 and data["trivial"] and data["area"] == 1
    assert data["steps"][0]["relator"] == "r1"
    code, data = run_json(
        capsys, "word-solve", "--pres", files["surface"], "--word", "a b"
    )
    assert code == 1 and not data["trivial"] and data["residue"] == "a b"


def test_word_solve_requires_metric_presentation(files, capsys):
    code, _, err = run(
        capsys, "word-solve", "--pres", files["x2"], "--word", "a b c"
    )
    assert code == 2 and "metric small cancellation" in err


def test_isoperimetry_ratios_are_exact(files, capsys):
    code, data = run_json(
        capsys,
        "isoperimetry", "--pres", files["surface"],
        "--samples", "6", "--max-conj", "2", "--seed", "5",
    )
    assert code == 0
    assert len(data["samples"]) == 6
    for row in data["samples"]:
        assert row["area"] <= row["pieces"]
        if row["ratio"] is not None:
            assert set(row["ratio"]) == {"num", "den"}
    assert data["max_ratio"]["num"] * 1 <= data["max_ratio"]["den"]


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-conj", "0", "max_conj must be at least 1"),
        ("--samples", "-3", "count must be at least 0"),
    ],
)
def test_isoperimetry_rejects_bad_counts(files, capsys, option, value, message):
    code, out, err = run(capsys, "isoperimetry", "--pres", files["surface"], option, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("word-solve", "--word", "c ( a b a' b' c d c' d' ) c'"),
        ("isoperimetry", "--samples", "3"),
    ],
    ids=["word-solve", "isoperimetry"],
)
def test_a_step_log_that_does_not_replay_exits_2(files, capsys, monkeypatch, argv):
    monkeypatch.setattr(dehn, "verify_steps", lambda presentation, w, steps: (False, w))
    code, out, err = run(capsys, argv[0], "--pres", files["surface"], *argv[1:])
    assert (code, out, err) == (2, "", "error: Dehn step log does not replay\n")


def test_isoperimetry_is_deterministic(files, capsys):
    args = ("isoperimetry", "--pres", files["surface"], "--samples", "4")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_a_sample_no_relator_spells_has_no_area_budget(tmp_path, capsys):
    """The relator ``b c`` reads no ``a``, so a sample conjugated by ``a``
    has no relator-subword spelling: it is reported with ``pieces`` null
    rather than failing the budget check."""
    pres = tmp_path / "bc.pres"
    pres.write_text("gens: a b c\nrel: b c\n")
    code, data = run_json(
        capsys, "isoperimetry", "--pres", str(pres), "--samples", "2", "--max-conj", "2",
        "--seed", "7",
    )
    assert code == 0
    assert data["samples"][1] == {
        "area": 2,
        "length": 6,
        "pieces": None,
        "ratio": {"num": 1, "den": 3},
        "word": "a b c a' c' b'",
    }


def test_usage_error_exits_2(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["check-smallcancel", "{x1}", "--cprime", "-1/2"],
            "hnnembed check-smallcancel: argument --cprime: expected one argument",
        ),
        (
            ["isoperimetry", "--pres", "{surface}", "--samples", "x"],
            "hnnembed isoperimetry: argument --samples: invalid int value: 'x'",
        ),
        ([], "hnnembed: the following arguments are required: command"),
        (["frobnicate"], "hnnembed: argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["option-as-value", "bad-int", "no-command", "unknown-command"],
)
def test_argument_errors_are_one_error_line(argv, message, files, capsys):
    """A value argparse rejects, a missing command and an unknown one each
    exit 2 with one ``error:`` line and no usage block."""
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["-h"], ["check-smallcancel", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hnnembed")


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "hnnembed", "parse", files["x1"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "b c a b c b c" in proc.stdout


# Pieces the exit-code property test splices into files and CLI words:
# names in and out of every alphabet, syntax, bad digits, whitespace and
# characters that are not symbols.  No piece raises an exponent past two
# digits, so no case needs a long word.
FUZZ_TOKENS = (
    "a", "b", "c", "d", "t", "c1", "c2", "x", "a'", "b'", "'", "''", "1", "0", "7",
    "(", ")", "( a )^2", "^", "^2", "^-1", "^0", "^ 3", ":", ";", ",", "/", "#",
    "map ", "map a:", "rel: ", "rel r1: ", "gens: ", "hnn: t; ", "ascending: ", "free: ",
    " ", "  ", "\t", "\n", "\r", "\x0c", "\x00", "é", "∞", "{", "}", "[", "]", '"', "-", "+",
)


def mutate_text(rng, text: str) -> str:
    """One to three random edits of ``text``: insert, delete, duplicate or
    replace a short span, swap or drop a line, or truncate."""
    for _ in range(rng.randint(1, 3)):
        n = len(text)
        i = rng.randint(0, n)
        j = min(n, i + rng.randint(1, 12))
        op = rng.randrange(7)
        if op == 0:
            text = text[:i] + rng.choice(FUZZ_TOKENS) + text[i:]
        elif op == 1:
            text = text[:i] + text[j:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        elif op == 3:
            text = text[:i] + rng.choice(FUZZ_TOKENS) + text[j:]
        elif op == 4:
            lines = text.split("\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
        elif op == 5:
            lines = text.split("\n")
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        else:
            text = text[:i]
    return text


def mutate_json(rng, obj):
    """A copy of ``obj`` with one random node replaced, dropped or mangled."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,))
        elif isinstance(node, list):
            for k, value in enumerate(node):
                walk(value, path + (k,))

    walk(obj, ())
    path = rng.choice(paths)
    if not path:
        return rng.choice([None, [], "", 0, [obj]])
    obj = copy.deepcopy(obj)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], obj)
    value = parent[path[-1]]
    op = rng.randrange(4)
    if op == 0 and isinstance(parent, dict):
        del parent[path[-1]]
    elif op == 1 and isinstance(value, str):
        parent[path[-1]] = mutate_text(rng, value)
    elif op == 2 and isinstance(parent, dict):
        parent[mutate_text(rng, path[-1])] = value
    else:
        parent[path[-1]] = rng.choice([None, True, False, 0, -1, 2**70, "", "a", [], {}, [value]])
    return obj


def test_every_malformed_input_keeps_the_exit_code_contract(tmp_path, capsys):
    """About 1,000 seeded cases over all ten subcommands, each with a
    mutated ``.pres`` file, ``G.pres``, ``cert.json``, CLI word or option
    value, the options given as ``--opt=value`` or as two items: every
    case exits 0, 1 or 2, exit 2 prints exactly one ``error:`` line and
    nothing on stdout, no other exit prints an ``error:`` line, and no
    exception leaves ``cli.main``."""
    rng = random.Random(29)
    completions = {}
    for irreducible in (False, True):
        (tmp_path / str(irreducible)).mkdir()
        paths = embed_files(tmp_path / str(irreducible), capsys, INTRO, irreducible)
        completions[irreducible] = [open(path, encoding="utf-8").read() for path in paths]
    presentations = (X1, X2, SURFACE, GENERATING_SET)
    hnn_inputs = (INTRO, "hnn: t; ascending: a; free: b\nmap a: a b a\n")
    work = tmp_path / "case"
    work.mkdir()

    def file(name, text, mutate=True):
        path = work / name
        path.write_text(mutate_text(rng, text) if mutate else text, encoding="utf-8")
        return str(path)

    def word(base):
        return mutate_text(rng, base) if rng.random() < 0.7 else base

    def option(name, value):
        # one item or two: as a separate item, a value such as -1/2 reads
        # to argparse as an option
        return [f"{name}={value}"] if rng.random() < 0.5 else [name, value]

    def number(low, high):
        # now and then no int at all; a mutated int could ask for millions of samples
        return rng.choice(["x", "", "2.5", "-"]) if rng.random() < 0.1 else str(rng.randint(low, high))

    def case(command):
        if command in ("parse", "pieces", "check-smallcancel"):
            text = rng.choice(presentations + hnn_inputs + (completions[False][1],))
            argv = [command, file("in.pres", text)]
            if command == "parse" and rng.random() < 0.5:
                argv.append("--emit")
            if command != "parse" and rng.random() < 0.3:
                argv.append("--no-inverse-symmetrization")
            if command == "check-smallcancel":
                if rng.random() < 0.5:
                    argv += option("--cprime", word(rng.choice(["1/6", "1/7", "2/3", "-1/2"])))
                if rng.random() < 0.5:
                    argv += option("--cp", number(-1, 8))
            return argv
        if command in ("quotient", "check-rel"):
            text = rng.choice(presentations)
            kill = word(rng.choice(["a", "c", "a,b", "a b", "c d"]))
            return [command, file("in.pres", text, rng.random() < 0.5), "--kill=" + kill]
        if command == "fold":
            argv = [command, file("in.pres", GENERATING_SET, rng.random() < 0.6)]
            if rng.random() < 0.6:
                argv.append("--word=" + word(rng.choice(["a c c a'", "b", "a b a' b'"])))
            return argv
        if command == "embed":
            argv = [
                command,
                "--in", file("h.pres", rng.choice(hnn_inputs)),
                "--out", str(work / "g.pres"),
                "--cert", str(work / "cert.json"),
            ]
            return argv + (["--irreducible"] if rng.random() < 0.5 else [])
        if command == "certify":
            h, g, cert = completions[rng.random() < 0.5]
            mangled = rng.choice(["in", "g", "cert", "cert-json", "all"])
            if mangled == "cert-json":
                cert = json.dumps(mutate_json(rng, json.loads(cert)), sort_keys=True, indent=2)
            return [
                command,
                "--in", file("h.pres", h, mangled in ("in", "all")),
                "--g", file("g.pres", g, mangled in ("g", "all")),
                "--cert", file("cert.json", cert, mangled in ("cert", "all")),
            ]
        pres = file("p.pres", rng.choice((SURFACE, X1)), rng.random() < 0.5)
        if command == "word-solve":
            base = rng.choice(["c ( a b a' b' c d c' d' ) c'", "a b", "1"])
            return [command, "--pres", pres, "--word=" + word(base)]
        return [
            command, "--pres", pres,
            *option("--samples", number(-1, 4)),
            *option("--max-conj", number(0, 3)),
            *option("--seed", number(0, 9)),
        ]

    commands = (
        "parse", "pieces", "check-smallcancel", "quotient", "check-rel", "fold",
        "embed", "certify", "word-solve", "isoperimetry",
    )
    codes = collections.Counter()
    for k in range(1000):
        command = commands[k % len(commands)]
        argv = case(command)
        try:
            code = main(argv)
        except BaseException as e:  # SystemExit included: a usage error must not exit
            texts = {p.name: p.read_text(encoding="utf-8") for p in work.iterdir()}
            pytest.fail(f"case {k} {argv!r} on {texts!r} raised {e!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (k, argv, code)
        errors = [line for line in err.split("\n") if line.startswith("error:")]
        if code == 2:
            assert (out, len(errors), err.count("\n")) == ("", 1, 1), (k, argv, err)
        else:
            assert not errors, (k, argv, err)
        codes[command, code] += 1
    for command in commands:
        assert codes[command, 2] > 0, command
    assert sum(codes[command, code] for command in commands for code in (0, 1)) > 100


@pytest.mark.parametrize("irreducible", [False, True], ids=["plain", "irreducible"])
def test_every_written_group_round_trips_and_certifies(irreducible, tmp_path, capsys):
    """On the 2+2, 4+4 and 8+8 sweep inputs and the seed-101 ``complete``
    inputs, ``parse --emit`` of every ``G.pres`` that ``embed`` writes
    reproduces it byte for byte, and ``certify`` accepts it with the
    written certificate."""
    inputs = [sweep_input(n) for n in (2, 4, 8)] + complete_workload_inputs(101)
    for h in inputs:
        source, group, cert = embed_files(tmp_path, capsys, hnn_source(h), irreducible)
        code, out, err = run(capsys, "parse", group, "--emit")
        assert (code, err) == (0, "")
        with open(group, encoding="utf-8") as f:
            assert out == f.read()
        code, out, err = run(capsys, "certify", "--in", source, "--g", group, "--cert", cert)
        assert (code, err) == (0, ""), hnn_source(h)
        assert out == "certificate verified: construction and all checks reproduced\n"
