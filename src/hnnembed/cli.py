"""Command-line front end.

Every subcommand reads ``.pres`` files (see :mod:`hnnembed.parsing`),
writes canonical JSON (sorted keys, two-space indent, no floats; ratios
appear as ``{"num": .., "den": ..}``), and follows one exit-code
contract: 0 for success or a true verdict, 1 for a false verdict, 2 for
unusable input.

Only :func:`main` maps exceptions to exit codes: a ``CliError``,
``ValueError`` (which covers ``ParseError`` and ``json.JSONDecodeError``),
``RuntimeError`` or ``OSError`` from a handler prints ``error: ...`` on one
line and exits 2, and so does a usage error, which the argument parser
raises as a ``CliError``; ``-h`` prints help and exits 0.  Handlers catch
an exception only to add to its message or to give it another exit code.
Anything else, such as a failed assertion or a ``KeyError`` from a bug,
ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .dehn import DehnSolver, area_bound_check, check_replay, random_trivial_words
from .hnn import (
    ExtensionResult,
    NotACompletion,
    PartialAscendingHNN,
    certify_completion,
    construct_embedding,
    construct_irreducible_embedding,
)
from .parsing import (
    ParseError,
    hnn_source,
    parse_generating_set,
    parse_hnn,
    parse_presentation,
    parse_source,
    parse_word,
    presentation_source,
)
from .presentation import CprimeReport, Presentation, cp_from_stats, cprime_from_stats, piece_stats
from .stallings import (
    basepoint_degree,
    canonical_form,
    membership,
    rank,
    subgroup_core,
)
from .subquotient import (
    SubcomplexSpec,
    check_no_duplicates,
    check_no_extra_powers,
    quotient,
)
from .words import Alphabet, Word


class CliError(Exception):
    """Carries a diagnostic for exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a CliError, which :func:`main` prints on one
    line; the subcommand parsers are built from this class too."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _ratio(fr: Fraction | None):
    return None if fr is None else {"num": fr.numerator, "den": fr.denominator}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: {e}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load(path: str, parse=parse_source):
    try:
        return parse(_read(path))
    except ParseError as e:
        raise CliError(f"{path}: {e}") from None


def _parse_cli_word(alphabet: Alphabet, text: str) -> Word:
    try:
        return parse_word(alphabet, text)
    except ParseError as e:
        raise CliError(f"word {text!r}: {e.message}") from None


def _emit(obj) -> None:
    sys.stdout.write(_canonical(obj))


def _cprime_json(report: CprimeReport) -> dict:
    return {
        "num": report.num,
        "den": report.den,
        "holds": report.holds,
        "max_piece": list(report.max_piece),
        "lengths": list(report.lengths),
    }


# subcommand handlers


def _cmd_parse(args) -> int:
    obj = _load(args.file)
    if args.emit:
        src = (
            presentation_source(obj)
            if isinstance(obj, Presentation)
            else hnn_source(obj)
        )
        sys.stdout.write(src)
        return 0
    if isinstance(obj, Presentation):
        print(f"presentation {obj} with {len(obj.relators)} relators")
    else:
        asc = " ".join(obj.ascending) or "(none)"
        free = " ".join(obj.free) or "(none)"
        print(
            f"partial ascending extension: stable {obj.stable}, "
            f"ascending {asc}, free {free}"
        )
    return 0


def _as_presentation(obj) -> Presentation:
    return obj.presentation() if isinstance(obj, PartialAscendingHNN) else obj


def _cmd_pieces(args) -> int:
    p = _as_presentation(_load(args.file))
    rep = piece_stats(p.relators, include_inverses=not args.no_inverse_symmetrization)
    occurrences = rep.maximal_occurrences()
    rows = []
    for j, (name, r, occ) in enumerate(zip(p.relator_names, p.relators, occurrences)):
        doubled = r.letters + r.letters
        maximal = [
            {
                "offset": o,
                "length": length,
                "word": p.alphabet.word_str(Word(doubled[o : o + length])),
            }
            for o, length in occ
        ]
        rows.append(
            {
                "name": name,
                "length": len(r),
                "max_piece": rep.max_piece[j],
                "maximal_pieces": maximal,
            }
        )
    _emit({"include_inverses": not args.no_inverse_symmetrization, "relators": rows})
    return 0


def _cmd_check_smallcancel(args) -> int:
    p = _as_presentation(_load(args.file))
    include = not args.no_inverse_symmetrization
    try:
        num_s, _, den_s = args.cprime.partition("/")
        num, den = int(num_s), int(den_s)
    except ValueError:
        raise CliError(f"--cprime wants N/D, got {args.cprime!r}") from None
    if not 0 < num < den:
        raise CliError(f"--cprime wants a fraction strictly between 0 and 1, got {args.cprime}")
    if args.cp is not None and args.cp < 2:
        raise CliError(f"--cp wants at least 2, got {args.cp}")
    report = piece_stats(p.relators, include_inverses=include)
    cprime = cprime_from_stats(report, num, den)
    out = {"cprime": _cprime_json(cprime), "cp": None}
    ok = cprime.holds
    if args.cp is not None:
        cp = cp_from_stats(report, args.cp)
        out["cp"] = {"p": args.cp, "holds": cp.holds}
        ok = ok and cp.holds
    _emit(out)
    return 0 if ok else 1


def _subcomplex(args) -> SubcomplexSpec:
    p = _load(args.file, parse_presentation)
    names = args.kill.replace(",", " ").split()
    try:
        return SubcomplexSpec.spanned_by(p, names)
    except KeyError as e:
        raise CliError(str(e.args[0])) from None


def _cmd_quotient(args) -> int:
    spec = _subcomplex(args)
    q = quotient(spec)
    parent = spec.parent
    _emit(
        {
            "generators": list(q.alphabet.names),
            "projected": [
                {
                    "source": parent.relator_names[pr.source],
                    "word": q.alphabet.word_str(pr.word),
                }
                for pr in q.projected
            ],
            "dropped": [parent.relator_names[i] for i in q.dropped],
        }
    )
    return 0


def _cmd_check_rel(args) -> int:
    spec = _subcomplex(args)
    parent = spec.parent
    powers = check_no_extra_powers(spec)
    dups = check_no_duplicates(spec)
    _emit(
        {
            "no_extra_powers": {
                "verdict": powers.verdict,
                "violations": [
                    {
                        "relator": parent.relator_names[v.relator],
                        "before": v.before,
                        "after": v.after,
                        "reason": "exponent changed",
                    }
                    for v in powers.violations
                ],
            },
            "no_duplicates": {
                "verdict": dups.verdict,
                "collisions": [
                    [parent.relator_names[a], parent.relator_names[b]]
                    for a, b in dups.collisions
                ],
                "inverted_collisions": [
                    [parent.relator_names[a], parent.relator_names[b]]
                    for a, b in dups.inverted_collisions
                ],
            },
        }
    )
    return 0 if powers.verdict and dups.verdict else 1


def _cmd_fold(args) -> int:
    alphabet, generators, _ = _load(args.file, parse_generating_set)
    core = subgroup_core(alphabet, generators)
    num_vertices, edges = canonical_form(core)
    out = {
        "vertices": num_vertices,
        "edges": [[u, v, alphabet.symbol(label)] for u, v, label in edges],
        "rank": rank(core),
        "basepoint_degree": basepoint_degree(core),
    }
    code = 0
    if args.word is not None:
        w = _parse_cli_word(alphabet, args.word)
        member = membership(core, w)
        out["word"] = args.word
        out["member"] = member
        code = 0 if member else 1
    _emit(out)
    return code


def _certificate_json(result: ExtensionResult) -> dict:
    cert = result.certificate
    h = result.source
    quotient_alphabet = Alphabet(result.new_names)
    group = result.group
    irr = cert.irreducible
    checks = {
        "c7": cert.c7,
        "cprime": _cprime_json(cert.cprime),
        "no_proper_powers": list(cert.no_proper_powers),
        "pairwise_distinct": cert.pairwise_distinct,
        "no_extra_powers": all(cert.no_proper_powers),
        "no_duplicates": cert.pairwise_distinct,
        "monomorphism": cert.monomorphism,
        "irreducible": None
        if irr is None
        else {
            "x_labels": list(irr.x_labels),
            "digram_coverage": list(irr.digram_coverage),
            "wedge_check": irr.wedge_check,
            "basepoint_degree": irr.basepoint_degree,
            "degree_bound": irr.degree_bound,
            "core_matches_wedge": irr.wedge_check,
        },
    }
    return {
        "construction": "plain" if irr is None else "irreducible",
        "input": {
            "stable": h.stable,
            "ascending": list(h.ascending),
            "free": list(h.free),
            "maps": {
                g: h.full_alphabet.word_str(img)
                for g, img in zip(h.ascending, h.images)
            },
        },
        "new_generators": list(result.new_names),
        "images": {
            name: group.full_alphabet.word_str(w) for name, w in zip(group.ascending, group.images)
        },
        "quotient": {
            "generators": list(quotient_alphabet.names),
            "words": [quotient_alphabet.word_str(w) for w in cert.quotient_words],
        },
        "checks": checks,
        "all_true": cert.all_true(),
    }


def _cmd_embed(args) -> int:
    h = _load(args.infile, parse_hnn)
    construct = construct_irreducible_embedding if args.irreducible else construct_embedding
    result = construct(h)
    _write(args.out, hnn_source(result.group))
    cert_json = _certificate_json(result)
    _write(args.cert, _canonical(cert_json))
    verdict = "all checks pass" if cert_json["all_true"] else "CHECKS FAILING"
    print(
        f"adjoined {', '.join(result.new_names)}; "
        f"{len(result.group.ascending)} relators; {verdict}"
    )
    return 0 if cert_json["all_true"] else 1


def _cmd_certify(args) -> int:
    h = _load(args.infile, parse_hnn)
    claimed_group = _load(args.g, parse_hnn)
    try:
        stored = json.loads(_read(args.cert))
    except json.JSONDecodeError as e:
        raise CliError(f"{args.cert}: {e}") from None
    irreducible = isinstance(stored, dict) and stored.get("construction") == "irreducible"
    try:
        result = certify_completion(h, claimed_group, irreducible)
    except NotACompletion:
        print("group file does not match the input", file=sys.stderr)
        return 1
    problems = []
    fresh = _certificate_json(result)
    if isinstance(stored, dict) and fresh["images"] != stored.get("images"):
        problems.append("group file does not match the certificate")
    if fresh != stored:
        if isinstance(stored, dict):
            keys = sorted(
                k
                for k in set(fresh) | set(stored)
                if fresh.get(k) != stored.get(k)
            )
            problems.append(f"certificate mismatch at: {', '.join(keys)}")
        else:
            problems.append("certificate mismatch: not an object")
    if not fresh["all_true"]:
        problems.append("reconstructed certificate has failing checks")
    if problems:
        for issue in problems:
            print(issue, file=sys.stderr)
        return 1
    print("certificate verified: construction and all checks reproduced")
    return 0


def _cmd_word_solve(args) -> int:
    p = _load(args.pres, parse_presentation)
    w = _parse_cli_word(p.alphabet, args.word)
    res = DehnSolver(p).solve(w)
    check_replay(p, w, res)
    _emit(
        {
            "trivial": res.trivial,
            "area": res.area,
            "residue": p.alphabet.word_str(res.residue),
            "steps": [
                {
                    "position": st.position,
                    "relator": p.relator_names[st.relator],
                    "orientation": st.orientation,
                    "offset": st.offset,
                    "length": st.length,
                }
                for st in res.steps
            ],
        }
    )
    return 0 if res.trivial else 1


def _cmd_isoperimetry(args) -> int:
    p = _load(args.pres, parse_presentation)
    samples = random_trivial_words(p, args.samples, args.max_conj, args.seed)
    report = area_bound_check(p, samples)
    _emit(
        {
            "seed": args.seed,
            "max_conj": args.max_conj,
            "samples": [
                {
                    "word": p.alphabet.word_str(row.word),
                    "length": row.length,
                    "area": row.area,
                    "pieces": row.pieces,
                    "ratio": _ratio(row.ratio),
                }
                for row in report.rows
            ],
            "max_ratio": _ratio(report.max_ratio),
        }
    )
    return 0


@functools.cache  # one argparse tree per process, not per main() call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hnnembed",
        description="small-cancellation toolkit for completing partial "
        "ascending extensions of free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("parse", _cmd_parse, "validate a file and describe or re-emit it")
    sp.add_argument("file")
    sp.add_argument("--emit", action="store_true", help="print the canonical source")

    sp = add("pieces", _cmd_pieces, "per-relator piece statistics as JSON")
    sp.add_argument("file")
    sp.add_argument("--no-inverse-symmetrization", action="store_true")

    sp = add("check-smallcancel", _cmd_check_smallcancel, "metric and overlap checks")
    sp.add_argument("file")
    sp.add_argument("--cprime", default="1/6", metavar="N/D")
    sp.add_argument("--cp", type=int, default=None, metavar="P")
    sp.add_argument("--no-inverse-symmetrization", action="store_true")

    sp = add("quotient", _cmd_quotient, "collapse a generator-spanned subcomplex")
    sp.add_argument("file")
    sp.add_argument("--kill", required=True, metavar="GENS")

    sp = add("check-rel", _cmd_check_rel, "power and duplicate checks after collapsing")
    sp.add_argument("file")
    sp.add_argument("--kill", required=True, metavar="GENS")

    sp = add("fold", _cmd_fold, "core graph of the subgroup the rel lines generate")
    sp.add_argument("file")
    sp.add_argument("--word", default=None, help="also decide membership of this word")

    sp = add("embed", _cmd_embed, "complete a partial ascending extension")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True, help="completed group, hnn format")
    sp.add_argument("--cert", required=True, help="certificate JSON path")
    sp.add_argument("--irreducible", action="store_true")

    sp = add("certify", _cmd_certify, "re-derive a certificate from scratch")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--g", required=True, help="completed group file to verify")
    sp.add_argument("--cert", required=True)

    sp = add("word-solve", _cmd_word_solve, "decide triviality by half-relator replacement")
    sp.add_argument("--pres", required=True)
    sp.add_argument("--word", required=True)

    sp = add("isoperimetry", _cmd_isoperimetry, "area statistics on random trivial words")
    sp.add_argument("--pres", required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--max-conj", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except (CliError, ValueError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
