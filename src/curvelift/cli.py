"""Command-line front end.

Exit-code protocol (shared by all subcommands):
  0  success / affirmative verdict
  1  invalid input or negative boolean verdict
  2  I/O, parse, or usage error, including a flag value out of range and a group
     britton spec with a word letter outside its generators or inconsistent HNN data
  3  equivalence search: distinguished
  4  equivalence search: budget exhausted (unknown)

All commands are deterministic given identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CurveLiftError, DiagramSyntaxError, MalformedAssociatedSubgroup, ModeMismatch

# Each verb imports what it calls, so a process loads only the modules its verb uses.


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str):
    return json.loads(_read_text(path))


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_diagram(args, text: str, payload: dict, lines) -> None:
    """Write the text to --output, or print it (as "diagram" under json)."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit(args, {"output": args.output, **payload}, [f"wrote {args.output}", *lines])
    elif args.format == "json":
        _emit(args, {"diagram": text, **payload}, [])
    else:
        sys.stdout.write(text)
        for line in lines:
            print(line, file=sys.stderr)


def _surface_from_args(args):
    from .surfaces import Surface

    try:
        return Surface(args.genus, args.boundary)
    except ValueError as exc:  # a flag value out of range
        raise SystemExit(_usage_error(f"--genus {args.genus} --boundary {args.boundary}: {exc}"))


def _letter_error(surface, words) -> str | None:
    """Why a word has a letter outside the surface's generators, or None."""
    letters = surface.generator_chars + surface.generator_chars.upper()
    bad = next((ch for word in words for ch in word if ch not in letters), None)
    return None if bad is None else f"{bad!r} is not a generator letter of {surface} ({letters})"


# ----------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    from .diagrams import parse, validate

    diagram, _ = parse(_read_text(args.path))
    violations = validate(diagram)
    payload = {"valid": not violations, "violations": [
        {"rule": v.rule, "component": v.component, "detail": v.detail} for v in violations]}
    _emit(args, payload, ["valid"] if not violations else [str(v) for v in violations])
    return 0 if not violations else 1


def cmd_invariants(args) -> int:
    from .diagrams import fiber_degree, parse, raw_turning, shadow_word, validate
    from .homology import bundle_h1
    from .lifting import lift_class

    diagram, bundle = parse(_read_text(args.path))
    violations = validate(diagram)
    if violations:
        lines = [str(v) for v in violations]
        _emit(args, {"error": "invalid diagram", "violations": lines}, lines)
        return 1
    h1 = bundle_h1(bundle)
    components = []
    lines = [f"bundle {bundle}  H1 = {h1}"]
    for ci in range(len(diagram.components)):
        word = shadow_word(diagram, ci)
        turning = raw_turning(diagram, ci)
        lc = lift_class(diagram, bundle, ci)
        fiber = fiber_degree(diagram, ci)
        components.append({"shadow": word, "turning": str(turning), "fiber": fiber,
                           "fiber_mod_e": lc.fiber_part, "base": list(lc.base_part)})
        lines.append(
            f"component {ci}: shadow={word or '1'} turning={turning} "
            f"fiber={fiber} fiber_mod_e={lc.fiber_part} base={list(lc.base_part)}"
        )
    payload = {"components": components, "H1": str(h1), "H1_invariants": h1.to_json()}
    _emit(args, payload, lines)
    return 0


def cmd_canonicalize(args) -> int:
    from .diagrams import serialize
    from .lifting import canonicalize, parse_twisted_shadow, turning_delta

    shadow, bundle = parse_twisted_shadow(_read_text(args.path))
    text = serialize(canonicalize(shadow, bundle), bundle)
    delta = turning_delta(shadow)
    _write_diagram(args, text, {"turning_delta": delta}, [f"turning delta {delta:+d}"])
    return 0


def _relabel(diagram, table: dict[str, str]):
    """Generator substitution on edge letters; values may carry a prime for
    an orientation-reversed image.

    Raises ValueError unless table maps names to names, the substitution
    permutes the generators up to inversion, and it maps the polygon's
    boundary word R (prod [a_i, b_i] prod d_j) to a rotation of R or of R^-1,
    on every surface.  Such a map is an automorphism of pi_1 that sends R to a
    conjugate of R^+-1 and each boundary loop d_j (a letter that occurs once
    in R, where a_i and b_i occur twice) to a boundary loop, so a
    homeomorphism induces it (Dehn-Nielsen-Baer)."""
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise ValueError("the substitution must be a JSON object of generator names")
    surface = diagram.surface
    char_map: dict[str, str] = {}
    for src, dst in table.items():
        s = surface.char_of(src)
        d = surface.char_of(dst)
        char_map[s] = d
        char_map[s.swapcase()] = d.swapcase()
    substitute = str.maketrans(char_map)
    chars = surface.generator_chars
    if len(set(chars.translate(substitute).lower())) < len(chars):
        raise ValueError("the substitution does not permute the generators")
    word = surface.boundary_word()
    image = word.translate(substitute)
    if image not in 2 * word and image not in 2 * word[::-1].swapcase():
        raise ValueError(
            f"the substitution maps the boundary word {word} to {image}, "
            "not to a rotation of it or of its inverse"
        )

    def relabeled(ev):
        if ev[0] != "edge":
            return ev
        return "edge", surface.name_of(surface.char_of(ev[1]).translate(substitute))

    return diagram.with_components(map(relabeled, comp) for comp in diagram.components)


def cmd_equiv(args) -> int:
    from .diagrams import parse, validate
    from .moves import SearchBudget, equivalent_bounded, move_from_json, move_to_json

    d1, b1 = parse(_read_text(args.path1))
    d2, b2 = parse(_read_text(args.path2))
    if b1 != b2:
        raise ModeMismatch(f"bundle mismatch: {b1} vs {b2}")
    violations = [f"{path}: {v}" for path, d in ((args.path1, d1), (args.path2, d2))
                  for v in validate(d)]
    if violations:
        _emit(args, {"error": "invalid diagram", "violations": violations}, violations)
        return 1
    if args.relabel:
        try:
            d2 = _relabel(d2, _read_json(args.relabel))
        except (KeyError, ValueError) as exc:  # an unknown name, or no homeomorphism
            return _usage_error(f"--relabel: {exc.args[0]}")
    try:
        generators = tuple(
            move_from_json({"kind": "transvection", "curves": [c]})
            for c in (_read_json(args.transvections) if args.transvections else ())
        )
    except KeyError as exc:
        return _usage_error(f"--transvections: a generator has no {exc}")
    except (TypeError, ValueError) as exc:
        return _usage_error(f"--transvections: {exc}")
    why = _letter_error(d1.surface, [word for gen in generators for word, _, _ in gen.site])
    if why is not None:
        return _usage_error(f"--transvections: {why}")
    try:
        budget = SearchBudget(args.budget_moves, args.budget_states, generators)
    except ValueError as exc:  # a limit out of its range
        return _usage_error(str(exc))
    verdict = equivalent_bounded(d1, d2, b1, budget)
    payload: dict = {"status": verdict.status}
    lines = [verdict.status]
    if verdict.certificate is not None:
        payload["certificate"] = [move_to_json(m) for m in verdict.certificate]
        lines.append(f"certificate: {len(verdict.certificate)} moves")
    if verdict.invariant is not None:
        name, v1, v2 = verdict.invariant
        payload["invariant"] = {"name": name, "first": str(v1), "second": str(v2)}
        lines.append(f"distinguished by {name}: {v1} vs {v2}")
    _emit(args, payload, lines)
    return {"equivalent": 0, "distinguished": 3, "unknown": 4}[verdict.status]


def cmd_h1(args) -> int:
    from .homology import bundle_h1, exponent_vector
    from .snf import filling_quotient
    from .surfaces import bundle_for_token, bundle_pi1_presentation

    if args.euler is not None and args.bundle != "CUSTOM":
        return _usage_error(f"--euler is for --bundle CUSTOM only, not {args.bundle}")
    try:
        bundle = bundle_for_token(args.bundle, _surface_from_args(args), args.euler or 0)
    except ValueError as exc:  # an Euler number the base does not take
        return _usage_error(f"--euler {args.euler}: {exc}")
    if not args.sigma:
        group = bundle_h1(bundle)
    else:
        try:
            sigma = [int(x) for x in args.sigma.replace(",", " ").split()]
            pres = bundle_pi1_presentation(bundle)
            rows = [exponent_vector(rel, pres.generators) for rel in pres.relators]
            group = filling_quotient(rows, len(pres.generators), sigma)
        except ValueError as exc:
            return _usage_error(f"malformed sigma: {exc}")
    _emit(args, {"group": str(group), **group.to_json()}, [str(group)])
    return 0


def cmd_group(args) -> int:
    from .words import CONSISTENT, GroupElementExpr, conjugate_classes_equal, dehn_reduce
    from .words import exponent_sum, is_trivial, powersum_check

    surface = _surface_from_args(args)
    factors = [item.rpartition(":")[::2] for item in getattr(args, "factor", ())]
    why = _letter_error(surface, [args.word, getattr(args, "word2", "")] + [g for g, _ in factors])
    if why is not None:
        return _usage_error(why)
    bad = next((f"{g}:{eps}" for g, eps in factors if eps not in ("1", "+1", "-1")), None)
    if bad is not None:
        return _usage_error(f"--factor {bad!r}: the exponent must be 1 or -1")
    if args.group_command == "reduce":
        reduced = dehn_reduce(args.word, surface)
        _emit(args, {"reduced": reduced}, [reduced or "1"])
        return 0
    if args.group_command == "trivial":
        verdict = is_trivial(args.word, surface)
        _emit(args, {"trivial": verdict}, ["trivial" if verdict else "nontrivial"])
        return 0 if verdict else 1
    if args.group_command == "conj":
        verdict = conjugate_classes_equal(args.word, args.word2, surface)
        _emit(args, {"conjugate": verdict}, ["conjugate" if verdict else "not conjugate"])
        return 0 if verdict else 1
    # powersum
    expr = GroupElementExpr(args.word, tuple((g, int(eps)) for g, eps in factors))
    result = powersum_check(expr, surface)
    payload = {"result": result, "exponent_sum": exponent_sum(expr)}
    _emit(args, payload, [result])
    return 0 if result == CONSISTENT else 1


# each field of a group britton spec: its check, and what it must be
_LETTERS = (lambda v: isinstance(v, (str, list)) and all(type(x) is str for x in v), "letters")
_BRITTON_FIELDS = {
    "generators": _LETTERS, "a_letters": _LETTERS, "b_letters": _LETTERS,
    "phi": (lambda v: type(v) is dict and _LETTERS[0](list(v.values())), "an object of letters"),
    "word": (lambda v: type(v) is list and all(type(x) in (str, int) for x in v),
             "a list of base words and integer t-exponents"),
}


def cmd_britton(args) -> int:
    from .hnn import HNNExtension, HNNWord, britton_reduce, is_trivial_hnn

    spec = _read_json(args.spec)
    for field, (ok, what) in _BRITTON_FIELDS.items():
        if not (isinstance(spec, dict) and field in spec and ok(spec[field])):
            return _usage_error(f"{args.spec}: {field!r} is missing or not {what}")
    letters = "".join(spec["generators"])
    letters += letters.upper()
    bad = next((ch for w in spec["word"] if type(w) is str for ch in w if ch not in letters), None)
    if bad is not None:
        return _usage_error(f"{args.spec}: {bad!r} in 'word' is not a generator letter ({letters})")
    try:
        ext = HNNExtension(tuple(spec["generators"]), frozenset(spec["a_letters"]),
                           frozenset(spec["b_letters"]), tuple(sorted(spec["phi"].items())))
    except MalformedAssociatedSubgroup as exc:
        return _usage_error(f"{args.spec}: {exc}")
    hw = HNNWord.from_items(ext, spec["word"])
    reduced = britton_reduce(hw)
    trivial = is_trivial_hnn(hw)
    payload = {"trivial": trivial, "t_length": reduced.t_length,
               "base_words": list(reduced.base_words), "signs": list(reduced.signs)}
    _emit(args, payload, ["trivial" if trivial else "nontrivial",
                          f"reduced t-length {reduced.t_length}"])
    return 0 if trivial else 1


def cmd_replay(args) -> int:
    from .diagrams import parse, serialize
    from .moves import move_from_json, replay

    diagram, bundle = parse(_read_text(args.path))
    try:
        certificate = [move_from_json(obj) for obj in _read_json(args.certificate)]
    except (KeyError, TypeError, ValueError) as exc:  # a missing field, or a mistyped one
        return _usage_error(f"{args.certificate}: unreadable move: {exc}")
    words = [word for move in certificate if move.kind == "transvection"
             for word, _, _ in move.site]
    why = _letter_error(diagram.surface, words)
    if why is not None:
        return _usage_error(f"{args.certificate}: {why}")
    _write_diagram(args, serialize(replay(diagram, certificate), bundle), {}, [])
    return 0


# ----------------------------------------------------------------------
# argument parsing


def _add_surface_flags(p, bundle_flags=False):
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, default=0)
    if bundle_flags:  # bundle tokens in any case
        p.add_argument("--bundle", type=str.upper, default="UT",
                       choices=("UT", "PT", "TRIVIAL", "CUSTOM"))
        p.add_argument("--euler", type=int, help="Euler number for CUSTOM (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvelift", description="Diagrams of curve lifts in circle bundles over surfaces.")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check diagram invariants")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants", help="per-component lift invariants and bundle H1")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("canonicalize", help="resolve twisted-shadow annotations")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("equiv", help="bounded equivalence search")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--budget-moves", type=int, default=6)
    p.add_argument("--budget-states", type=int, default=100000)
    p.add_argument("--transvections", help="JSON file of transvection generators")
    p.add_argument("--relabel", help="JSON generator substitution for the second diagram")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("h1", help="circle-bundle homology and filling quotients")
    _add_surface_flags(p, bundle_flags=True)
    p.add_argument("--sigma", help="filling class, comma/space separated integers")
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("group", help="surface-group word problems")
    gsub = p.add_subparsers(dest="group_command", required=True)
    for name, extra in (
        ("reduce", ("word",)),
        ("trivial", ("word",)),
        ("conj", ("word", "word2")),
    ):
        gp = gsub.add_parser(name)
        _add_surface_flags(gp)
        for arg in extra:
            gp.add_argument(arg)
        gp.set_defaults(func=cmd_group)
    gp = gsub.add_parser("powersum")
    _add_surface_flags(gp)
    gp.add_argument("word", help="the conjugated word w")
    gp.add_argument("--factor", action="append", default=[], metavar="G:EPS",
                    help="conjugator and exponent, e.g. ab:1 (repeatable)")
    gp.set_defaults(func=cmd_group)
    gp = gsub.add_parser("britton")
    gp.add_argument("spec", help="JSON HNN datum with generators/a_letters/b_letters/phi/word")
    gp.set_defaults(func=cmd_britton)

    p = sub.add_parser("replay", help="apply a JSON move certificate to a diagram")
    p.add_argument("path")
    p.add_argument("certificate")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, DiagramSyntaxError) as exc:
        return _usage_error(str(exc))
    except (CurveLiftError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
