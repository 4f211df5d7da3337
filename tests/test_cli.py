import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
import time

import pytest

from hnnembed import cli, hnn
from hnnembed.cli import main
from hnnembed.parsing import hnn_source, parse_hnn, parse_presentation
from hnnembed.words import Word


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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "parse", "/nonexistent/nope.pres")
    assert code == 2 and "error:" in err


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
    with pytest.raises(SystemExit) as exited:
        main(["no-such-command"])
    assert exited.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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


def test_isoperimetry_is_deterministic(files, capsys):
    args = ("isoperimetry", "--pres", files["surface"], "--samples", "4")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "hnnembed", "parse", files["x1"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "b c a b c b c" in proc.stdout
