"""End-to-end CLI behavior: subcommands, exit codes, JSON output."""

import itertools
import json
import os
import subprocess
import sys

import pytest

from curvelift import Diagram, Surface
from curvelift.cli import _relabel, main

VERTEX_LINK = (
    "surface genus=2 boundary=0\n"
    "bundle UT\n"
    "comp: a1 b1 a1' b1' a2 b2 a2' b2'\n"
)
CIRCLE = "surface genus=2 boundary=0\nbundle UT\ncomp: Q+ Q+ Q+ Q+\n"
BAD = "surface genus=2 boundary=0\nbundle UT\ncomp: X1.1 Q+ Q+ Q+ Q+\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "d.txt", VERTEX_LINK)
    code, out = run(capsys, "validate", path)
    assert code == 0 and "valid" in out


def test_validate_unpaired_crossing(tmp_path, capsys):
    path = write(tmp_path, "d.txt", BAD)
    code, out = run(capsys, "--format", "json", "validate", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["violations"][0]["rule"] == "UnpairedCrossing"
    assert "1" in payload["violations"][0]["detail"]


def test_validate_missing_file(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/diagram.txt")
    assert code == 2


def test_validate_parse_error(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "surface genus=2 boundary=0\nbundle UT\nnope\n")
    code, _ = run(capsys, "validate", path)
    assert code == 2


def test_invariants_contractible_circle(tmp_path, capsys):
    path = write(tmp_path, "d.txt", CIRCLE)
    code, out = run(capsys, "--format", "json", "invariants", path)
    assert code == 0
    payload = json.loads(out)
    comp = payload["components"][0]
    assert comp["turning"] == "1"
    assert comp["fiber_mod_e"] == 1
    assert comp["base"] == [0, 0, 0, 0]
    assert payload["H1"] == "Z^4 + Z/2"


def test_invariants_empty_diagram(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "surface genus=2 boundary=0\nbundle UT\n")
    code, out = run(capsys, "--format", "json", "invariants", path)
    assert code == 0
    assert json.loads(out)["components"] == []


def test_invariants_invalid_diagram(tmp_path, capsys):
    path = write(tmp_path, "d.txt", BAD)
    code, _ = run(capsys, "invariants", path)
    assert code == 1


def test_validate_and_invariants_agree_on_half_turns_in_pt(tmp_path, capsys):
    # a quarter turn is no half-integer: no lift into PT, so both reject it
    p = write(tmp_path, "d.txt", "surface genus=2 boundary=0\nbundle PT\ncomp: Q+\n")
    for verb in ("validate", "invariants"):
        code, out = run(capsys, verb, p)
        assert code == 1 and "NonIntegralTurning (component 0)" in out, verb


def test_invariants_pt_integer_fiber(tmp_path, capsys):
    path = write(tmp_path, "d.txt", "surface genus=2 boundary=0\nbundle PT\ncomp: C^ C^\n")
    code, out = run(capsys, "--format", "json", "invariants", path)
    assert code == 0
    comp = json.loads(out)["components"][0]
    assert comp["fiber"] == 2  # twice the turning number 1


def test_canonicalize(tmp_path, capsys):
    shadow = CIRCLE + "twist: 0 1 2\n"
    path = write(tmp_path, "s.txt", shadow)
    out_path = str(tmp_path / "out.txt")
    code, _ = run(capsys, "canonicalize", path, "-o", out_path)
    assert code == 0
    text = open(out_path).read()
    assert "L+ L+" in text


def test_canonicalize_json(tmp_path, capsys):
    path = write(tmp_path, "s.txt", CIRCLE + "twist: 0 0 -1\n")
    code, out = run(capsys, "--format", "json", "canonicalize", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["turning_delta"] == -1
    assert "L-" in payload["diagram"]


def test_equiv_stab_pair(tmp_path, capsys):
    p1 = write(tmp_path, "d1.txt", VERTEX_LINK)
    p2 = write(
        tmp_path,
        "d2.txt",
        "surface genus=2 boundary=0\nbundle UT\n"
        "comp: a1 L+ L- b1 a1' b1' a2 b2 a2' b2'\n",
    )
    code, out = run(capsys, "--format", "json", "equiv", p1, p2)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "equivalent"
    assert len(payload["certificate"]) == 1
    # certificate replays through the CLI
    cert = write(tmp_path, "cert.json", json.dumps(payload["certificate"]))
    code, out = run(capsys, "replay", p1, cert)
    assert code == 0 and "L+ L-" in out


def test_equiv_distinguished_exit_code(tmp_path, capsys):
    p1 = write(tmp_path, "d1.txt", VERTEX_LINK)
    p2 = write(tmp_path, "d2.txt", VERTEX_LINK + "comp:\n")
    code, out = run(capsys, "--format", "json", "equiv", p1, p2)
    assert code == 3
    assert json.loads(out)["invariant"]["name"] == "component_count"


def test_equiv_unknown_exit_code(tmp_path, capsys):
    p1 = write(tmp_path, "d1.txt", VERTEX_LINK)
    p2 = write(
        tmp_path,
        "d2.txt",
        "surface genus=2 boundary=0\nbundle UT\n"
        "comp: a1 L+ L- L+ L- L+ L- b1 a1' b1' a2 b2 a2' b2'\n",
    )
    code, _ = run(capsys, "equiv", p1, p2, "--budget-moves", "1")
    assert code == 4


def test_equiv_out_of_range_budget_is_a_usage_error(tmp_path, capsys):
    # max_moves may be 0, max_states must be at least 1
    p = write(tmp_path, "d.txt", VERTEX_LINK)
    for flag, value, message in [("--budget-moves", "-1", "max_moves must be >= 0, not -1"),
                                 ("--budget-states", "0", "max_states must be >= 1, not 0")]:
        assert main(["equiv", p, p, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    code, out = run(capsys, "equiv", p, p, "--budget-moves", "0")
    assert code == 0 and out == "equivalent\ncertificate: 0 moves\n"


def test_equiv_relabel(tmp_path, capsys):
    p1 = write(
        tmp_path, "d1.txt",
        "surface genus=2 boundary=0\nbundle UT\ncomp: a1 Q+ Q+ Q+ Q+ Q+\n",
    )
    p2 = write(
        tmp_path, "d2.txt",
        "surface genus=2 boundary=0\nbundle UT\ncomp: a2 Q+ Q+ Q+ Q+ Q+\n",
    )
    swap = {"a1": "a2", "b1": "b2", "a2": "a1", "b2": "b1"}  # the handle swap
    relabel = write(tmp_path, "map.json", json.dumps(swap))
    code, _ = run(capsys, "equiv", p1, p2)
    assert code == 3  # different shadow classes as-is
    code, _ = run(capsys, "equiv", p1, p2, "--relabel", relabel)
    assert code == 0


@pytest.mark.parametrize(
    "table, named",
    [
        ({"a1": "a2", "a2": "a1"}, "cbCBadAD"),  # R = abABcdCD goes to a nontrivial word
        ({"b1": "a1", "b2": "a2"}, "permute"),  # R goes to aaAAccCC = 1, but b1, b2 are lost
        ({"a9": "a1"}, "unknown generator 'a9'"),
        ({"a1": "b9'"}, "unknown generator 'b9'"),
        (["a1"], "JSON object"),  # not a map of names
        ({"a1": 5}, "JSON object"),
    ],
)
def test_equiv_relabel_rejects_non_homeomorphism(tmp_path, capsys, table, named):
    p1 = write(tmp_path, "d1.txt", CIRCLE)
    relabel = write(tmp_path, "map.json", json.dumps(table))
    assert main(["equiv", p1, p1, "--relabel", relabel]) == 2
    assert named in capsys.readouterr().err


def test_equiv_relabel_keeps_boundary_loops_peripheral(tmp_path, capsys):
    p1 = write(tmp_path, "d1.txt", "surface genus=1 boundary=1\nbundle UT\ncomp: a1 Q+ Q+ Q+ Q+\n")
    p2 = write(tmp_path, "d2.txt", "surface genus=1 boundary=1\nbundle UT\ncomp: d1 Q+ Q+ Q+ Q+\n")
    # the boundary loop d1 would go to a1, which is not peripheral: R = abABc goes to cbCBa
    relabel = write(tmp_path, "map.json", json.dumps({"a1": "d1", "d1": "a1"}))
    code, _ = run(capsys, "equiv", p1, p2)
    assert code == 3
    assert main(["equiv", p1, p2, "--relabel", relabel]) == 2
    assert "cbCBa" in capsys.readouterr().err


def test_relabel_accepts_four_signed_permutations_in_genus_2():
    surface = Surface(2)
    d = Diagram(surface, "smooth", ((),))
    names = surface.generator_names
    accepted = 0
    for image in itertools.permutations(names):
        for primes in itertools.product(("", "'"), repeat=len(names)):
            try:
                _relabel(d, {a: b + p for a, b, p in zip(names, image, primes)})
                accepted += 1
            except ValueError:
                pass
    assert accepted == 4  # the identity, the handle swap, a_i <-> b_i and their product


def test_equiv_bounded_shadow_classes_use_the_polygon_relation(tmp_path, capsys):
    # on Sigma_{1,1}, d1 = (a1 b1 a1' b1')^-1 = b1 a1 b1' a1': the shadows are equal
    p1 = write(tmp_path, "d1.txt", "surface genus=1 boundary=1\nbundle UT\ncomp: d1 Q+ Q+ Q+ Q+\n")
    p2 = write(
        tmp_path, "d2.txt",
        "surface genus=1 boundary=1\nbundle UT\ncomp: b1 a1 b1' a1' Q+ Q+ Q+ Q+\n",
    )
    code, out = run(capsys, "equiv", p1, p2, "--budget-moves", "2")
    assert code == 4, out


def test_equiv_transvections_file(tmp_path, capsys):
    p1 = write(tmp_path, "d1.txt", CIRCLE)
    p2 = write(
        tmp_path, "d2.txt",
        "surface genus=2 boundary=0\nbundle UT\ncomp: L+ Q+ Q+ Q+ Q+\n",
    )
    gens = write(
        tmp_path,
        "gens.json",
        json.dumps([{"word": "a", "weight": 1, "sites": [[0, 0, 1]]}]),
    )
    code, _ = run(capsys, "equiv", p1, p2)
    assert code == 3
    code, _ = run(capsys, "equiv", p1, p2, "--transvections", gens)
    assert code == 0


GENERATOR = {"word": "a", "weight": 1, "sites": [[0, 0, 1]]}


@pytest.mark.parametrize(
    "generator",
    [
        {**GENERATOR, "weight": 1.5},
        {**GENERATOR, "weight": True},
        {**GENERATOR, "sites": [[0.9, 0, 1]]},
        {**GENERATOR, "sites": [[0, "0", 1]]},
        {**GENERATOR, "sites": [[0, 0, True]]},
    ],
    ids=["weight-float", "weight-bool", "site-float", "site-str", "sign-bool"],
)
def test_equiv_transvections_accept_only_integers(tmp_path, capsys, generator):
    # the circle and the circle with one kink differ by exactly this generator
    # at weight 1: a non-integer must not be rounded into it
    p1 = write(tmp_path, "d1.txt", CIRCLE)
    p2 = write(tmp_path, "d2.txt", "surface genus=2 boundary=0\nbundle UT\ncomp: L+ Q+ Q+ Q+ Q+\n")
    gens = write(tmp_path, "gens.json", json.dumps([generator]))
    assert main(["equiv", p1, p2, "--transvections", gens]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be integers" in err


@pytest.mark.parametrize(
    "argv, content, named",
    [
        (["group", "powersum", "--genus", "2", "ab", "--factor", "c:x"], None, "'c:x'"),
        (["group", "powersum", "--genus", "2", "ab", "--factor", "c:2"], None, "'c:2'"),
        (["group", "powersum", "--genus", "2", "ab", "--factor", "c"], None, "exponent"),
        *(
            (["equiv", "{d}", "{d}", "--transvections", "{f}"],
             [{k: v for k, v in GENERATOR.items() if k != field}], f"no '{field}'")
            for field in GENERATOR
        ),
        (["equiv", "{d}", "{d}", "--transvections", "{f}"], [{**GENERATOR, "weight": "x"}], "'x'"),
        (["equiv", "{d}", "{d}", "--transvections", "{f}"], [{**GENERATOR, "word": 5}],
         "--transvections: transvection words must be strings"),
        (["equiv", "{d}", "{d}", "--transvections", "{f}"], [{**GENERATOR, "word": "zz"}],
         "--transvections: 'z' is not a generator letter"),
    ],
    ids=["factor-x", "factor-2", "factor-bare", "no-word", "no-weight", "no-sites", "weight-x",
         "word-int", "word-zz"],
)
def test_malformed_flag_values_are_usage_errors(tmp_path, capsys, argv, content, named):
    d = write(tmp_path, "d.txt", CIRCLE)
    f = write(tmp_path, "f.json", json.dumps(content))
    assert main([arg.format(d=d, f=f) for arg in argv]) == 2
    assert named in capsys.readouterr().err


def test_h1_closed_and_filling(capsys):
    code, out = run(capsys, "--format", "json", "h1", "--genus", "2", "--bundle", "UT")
    assert code == 0
    assert json.loads(out) == {"group": "Z^4 + Z/2", "rank": 4, "torsion": [2]}
    # kill the fiber class t: quotient is H1 of the surface
    code, out = run(
        capsys, "--format", "json", "h1", "--genus", "2", "--bundle", "UT",
        "--sigma", "0,0,0,0,1",
    )
    assert code == 0
    assert json.loads(out)["rank"] == 4 and json.loads(out)["torsion"] == []


@pytest.mark.parametrize(
    "flags, group",
    [
        (["--bundle", "pt"], "Z^4 + Z/4"),  # the CLI reads bundle tokens in any case
        (["--bundle", "Trivial"], "Z^5"),
        (["--bundle", "custom", "--euler", "6"], "Z^4 + Z/6"),
        (["--bundle", "XX"], None),
        (["--bundle", "custom"], "Z^5"),  # --euler defaults to 0
    ],
)
def test_h1_bundle_tokens(capsys, flags, group):
    code = exit_code(["h1", "--genus", "2", *flags])
    assert (code, capsys.readouterr().out.strip()) == ((0, group) if group else (2, ""))


def exit_code(argv):
    """main's exit code, also where argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["h1", "--genus", "2", "--bundle", "XYZ"], "--bundle"),
        (["h1", "--genus", "-1"], "--genus"),
        (["h1", "--genus", "2", "--boundary", "-1"], "--boundary"),
        (["group", "trivial", "--genus", "-1", "a"], "--genus"),
        (["h1", "--genus", "30"], "--genus"),  # past the one-character letters
        (["h1", "--genus", "2", "--bundle", "TRIVIAL", "--euler", "3"], "--euler"),
        # a bundle over a bounded base is trivial
        (["h1", "--genus", "2", "--boundary", "1", "--bundle", "CUSTOM", "--euler", "3"],
         "--euler"),
    ],
)
def test_out_of_range_flag_values_are_usage_errors(capsys, argv, flag):
    assert exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err


def test_h1_runs_one_smith_normal_form(monkeypatch, capsys):
    from curvelift import snf

    calls = []
    inner = snf.smith_normal_form
    monkeypatch.setattr(
        snf, "smith_normal_form", lambda m, **kw: calls.append((m, kw)) or inner(m, **kw)
    )
    for sigma in ([], ["--sigma", "0,0,0,0,1"]):
        calls.clear()
        code, _ = run(capsys, "h1", "--genus", "2", *sigma)
        assert code == 0 and len(calls) == 1
        # the invariants path builds no transforms and sees no zero relator row
        ((m, kw),) = calls
        assert kw == {"transforms": False} and all(any(row) for row in m)


def test_h1_malformed_sigma(capsys):
    code, _ = run(capsys, "h1", "--genus", "2", "--sigma", "1,2")
    assert code == 2
    code, _ = run(capsys, "h1", "--genus", "2", "--sigma", "1,x")
    assert code == 2


def test_group_reduce_and_trivial(capsys):
    code, out = run(capsys, "group", "reduce", "--genus", "2", "abABcdCD")
    assert code == 0 and out.strip() == "1"
    code, _ = run(capsys, "group", "trivial", "--genus", "2", "abABcdCD")
    assert code == 0
    code, _ = run(capsys, "group", "trivial", "--genus", "2", "ab")
    assert code == 1


def test_group_conj(capsys):
    code, _ = run(capsys, "group", "conj", "--genus", "2", "ab", "ba")
    assert code == 0
    code, _ = run(capsys, "group", "conj", "--genus", "2", "a", "b")
    assert code == 1


@pytest.mark.parametrize(
    "argv, letter",
    [
        (["trivial", "--genus", "2", "11"], "'1'"),  # digits are their own swapcase
        (["trivial", "--genus", "2", "xX"], "'x'"),
        (["reduce", "--genus", "2", "abe"], "'e'"),  # e is d1, a generator only with boundary
        (["conj", "--genus", "2", "ab", "bE"], "'E'"),
        (["powersum", "--genus", "2", "ab", "--factor", "c:1", "--factor", "z:1"], "'z'"),
    ],
)
def test_group_rejects_letters_outside_the_surface(capsys, argv, letter):
    assert main(["group", *argv]) == 2
    assert letter in capsys.readouterr().err


def test_group_powersum(capsys):
    code, out = run(
        capsys, "--format", "json", "group", "powersum", "--genus", "2", "ab",
        "--factor", "c:1", "--factor", "d:1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "ConsistentWithLemma"
    assert payload["exponent_sum"] == 2


def test_group_britton(tmp_path, capsys):
    spec = {
        "generators": "abcde",
        "a_letters": "ab",
        "b_letters": "cd",
        "phi": {"a": "c", "b": "d"},
        "word": [1, "a", -1, "C"],
    }
    path = write(tmp_path, "hnn.json", json.dumps(spec))
    code, out = run(capsys, "--format", "json", "group", "britton", path)
    assert code == 0 and json.loads(out)["trivial"] is True
    spec["word"] = [1, "e", -1]
    path = write(tmp_path, "hnn2.json", json.dumps(spec))
    code, out = run(capsys, "--format", "json", "group", "britton", path)
    assert code == 1 and json.loads(out)["t_length"] == 2


@pytest.mark.parametrize("field", ["generators", "a_letters", "b_letters", "phi", "word"])
def test_group_britton_malformed_spec_is_a_usage_error(tmp_path, capsys, field):
    # a missing or mistyped field exits 2 naming it, apart from the verdicts' 0 and 1
    spec = {"generators": "abcde", "a_letters": "ab", "b_letters": "cd",
            "phi": {"a": "c", "b": "d"}, "word": [1, "a", -1, "C"]}
    for bad in ({k: v for k, v in spec.items() if k != field}, {**spec, field: 5}):
        path = write(tmp_path, "hnn.json", json.dumps(bad))
        assert main(["group", "britton", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{field!r}" in err
    assert main(["group", "britton", write(tmp_path, "ok.json", json.dumps(spec))]) == 0
    spec["word"] = [1, "e", -1]
    assert main(["group", "britton", write(tmp_path, "ok.json", json.dumps(spec))]) == 1


def test_group_britton_word_letter_outside_generators_is_a_usage_error(tmp_path, capsys):
    # it used to print nontrivial and exit 1, like a verdict
    spec = {"generators": "abcde", "a_letters": "ab", "b_letters": "cd",
            "phi": {"a": "c", "b": "d"}, "word": [1, "z", -1]}
    assert main(["group", "britton", write(tmp_path, "hnn.json", json.dumps(spec))]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'z'" in err and "hnn.json" in err
    spec["word"] = [1, "Z", -1]
    assert main(["group", "britton", write(tmp_path, "hnn.json", json.dumps(spec))]) == 2
    assert "'Z'" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"phi": {"a": "c"}},  # no bijection from a_letters "ab"
    {"phi": {"a": "c", "b": "c"}},  # not injective
    {"a_letters": "ax", "phi": {"a": "c", "x": "d"}},  # an associated letter outside generators
])
def test_group_britton_inconsistent_hnn_data_is_a_usage_error(tmp_path, capsys, fields):
    # it used to exit 1, the code of a nontrivial verdict
    spec = {"generators": "abcde", "a_letters": "ab", "b_letters": "cd",
            "phi": {"a": "c", "b": "d"}, "word": [1, "a", -1, "C"]}
    path = write(tmp_path, "hnn.json", json.dumps({**spec, **fields}))
    assert main(["group", "britton", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and path in err
    # a valid spec still exits by its verdict
    assert main(["group", "britton", write(tmp_path, "ok.json", json.dumps(spec))]) == 0
    spec["word"] = [1, "e", -1]
    assert main(["group", "britton", write(tmp_path, "ok.json", json.dumps(spec))]) == 1


def test_equiv_rejects_invalid_diagrams_before_searching(tmp_path, capsys, monkeypatch):
    from curvelift import moves

    def no_search(*args):
        raise AssertionError("searched an invalid diagram")

    monkeypatch.setattr(moves, "equivalent_bounded", no_search)
    bad = write(tmp_path, "bad.txt", "surface genus=2 boundary=0\nbundle UT\n"
                                     "comp: a1 X1.1 Q+ b1 Q+ a1' Q+ b1' Q+\n")
    good = write(tmp_path, "good.txt", VERTEX_LINK)
    for pair in ((bad, good), (good, bad)):
        code, out = run(capsys, "--format", "json", "equiv", *pair)
        assert code == 1
        assert json.loads(out)["violations"] == [f"{bad}: UnpairedCrossing: crossing 1: slots {{1: 1}}"]


def test_replay_inapplicable_move(tmp_path, capsys):
    p = write(tmp_path, "d.txt", CIRCLE)
    cert = write(tmp_path, "c.json", json.dumps([{"kind": "destab", "site": [0, 0]}]))
    code, _ = run(capsys, "replay", p, cert)
    assert code == 1


@pytest.mark.parametrize(
    "move, code",
    [
        ({"kind": "transvection", "curves": [{**GENERATOR, "weight": 1.5}]}, 2),
        ({"site": [0, 0, "lr"]}, 2),
        ({"kind": "stab", "site": [0, "x", "lr"]}, 1),
        ({"kind": "stab", "site": [0, 1.0, "lr"]}, 1),
        ({"kind": "r2_remove", "site": [0, 1]}, 1),
        ({"kind": "destab", "site": [True, 0]}, 1),
    ],
    ids=["weight-float", "no-kind", "stab-site-str", "stab-site-float", "r2-remove-flat-site",
         "destab-site-bool"],
)
def test_replay_rejects_malformed_moves_without_a_traceback(tmp_path, move, code):
    # exit 2 for a move the certificate reader cannot read, 1 for one that
    # does not apply: never an uncaught exception.  The second component
    # starts with a stabilization pair, so (1, 0) is a listed destab site
    # and [true, 0] is refused for its type alone
    p = write(tmp_path, "d.txt", CIRCLE + "comp: L+ L- Q+ Q+ Q+ Q+\n")
    cert = write(tmp_path, "c.json", json.dumps([move]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvelift.cli", "replay", p, cert],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert (cert in proc.stderr) == (code == 2)


def test_replay_rejects_transvection_letters_outside_the_surface(tmp_path):
    p = write(tmp_path, "d.txt", CIRCLE)
    cert = write(tmp_path, "c.json", json.dumps(
        [{"kind": "transvection", "curves": [{**GENERATOR, "word": "zz"}]}]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "curvelift.cli", "replay", p, cert],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {cert}: 'z' is not a generator letter")


def test_replay_reads_letters_of_transvections_only(tmp_path):
    # a stab's site is coordinates, not curve data: only the transvection's word is read
    p = write(tmp_path, "d.txt", CIRCLE)
    cert = write(tmp_path, "c.json", json.dumps([
        {"kind": "stab", "site": [0, 1, "lr"]},
        {"kind": "transvection", "curves": [{**GENERATOR, "word": "zz"}]},
    ]))
    proc = subprocess.run(
        [sys.executable, "-m", "curvelift.cli", "replay", p, cert],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {cert}: 'z' is not a generator letter")
    assert "Traceback" not in proc.stderr


HNN = {"generators": "ab", "a_letters": "a", "b_letters": "b", "phi": {"a": "b"}, "word": [1, -1]}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{d}"],
        ["invariants", "{d}"],
        ["canonicalize", "{shadow}"],
        ["canonicalize", "{shadow}", "-o", "{out}"],
        ["equiv", "{d}", "{d}"],
        ["replay", "{d}", "{cert}"],
        ["replay", "{d}", "{cert}", "-o", "{out}"],
        ["h1", "--genus", "2", "--sigma=0,0,0,0,1"],
        ["group", "reduce", "--genus", "2", "abAB"],
        ["group", "trivial", "--genus", "2", "abAB"],
        ["group", "conj", "--genus", "2", "ab", "ba"],
        ["group", "powersum", "--genus", "2", "ab", "--factor", "c:1"],
        ["group", "britton", "{hnn}"],
    ],
    ids=" ".join,
)
def test_every_verb_prints_one_json_object(tmp_path, capsys, argv):
    paths = {
        "d": write(tmp_path, "d.txt", VERTEX_LINK),
        "shadow": write(tmp_path, "s.txt", CIRCLE + "twist: 0 1 2\n"),
        "cert": write(tmp_path, "c.json", json.dumps([{"kind": "stab", "site": [0, 0, "lr"]}])),
        "hnn": write(tmp_path, "h.json", json.dumps(HNN)),
        "out": str(tmp_path / "out.txt"),
    }
    code, out = run(capsys, "--format", "json", *(a.format(**paths) for a in argv))
    assert code in (0, 1) and isinstance(json.loads(out), dict)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equiv"])  # missing required paths
    assert exc.value.code == 2


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PROBE = """
import json, sys
before = set(sys.modules)
import curvelift.cli
code = curvelift.cli.main(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
CLI_ONLY = {"curvelift", "curvelift.cli", "curvelift.errors"}
# records are named tuples: dataclasses (and the inspect it imports) stay unloaded
RECORDS = {"dataclasses", "inspect"}
FRACTIONS = {"fractions", "decimal"}


def loaded_modules(*argv):
    """Exit code, curvelift modules and standard-library modules that a fresh
    process loads when it imports the CLI and runs one verb (those the
    interpreter had loaded before the import do not count)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    ours = {m for m in modules if m.split(".")[0] == "curvelift"}
    return code, {m.removeprefix("curvelift.") for m in ours - CLI_ONLY}, set(modules) - ours


def test_cli_import_loads_no_library_module():
    code, modules, stdlib = loaded_modules()
    assert (code, modules) == (None, set()) and not stdlib & (RECORDS | FRACTIONS)


@pytest.mark.parametrize(
    "argv, code, absent",  # absent: curvelift modules by short name, and stdlib modules
    [
        (["validate", "{d}"], 0, {"moves", "lifting", "snf", "homology", "hnn", *RECORDS}),
        (["invariants", "{d}"], 0, {"moves", "hnn", *RECORDS}),
        (["group", "trivial", "--genus", "2", "abAB"], 1,
         {"diagrams", "moves", "lifting", "snf", *RECORDS, *FRACTIONS}),
        (["equiv", "{d}", "{d}"], 0, {"snf", "hnn", *RECORDS}),
    ],
)
def test_verb_loads_only_what_it_uses(tmp_path, argv, code, absent):
    path = write(tmp_path, "d.txt", VERTEX_LINK)
    got, modules, stdlib = loaded_modules(*(a.format(d=path) for a in argv))
    assert got == code and modules and stdlib and not (modules | stdlib) & absent


def test_h1_loads_only_the_algebra():
    code, modules, stdlib = loaded_modules("h1", "--genus", "2", "--sigma", "0,0,0,0,1")
    assert code == 0 and modules == {"surfaces", "snf", "homology"}
    assert stdlib and not stdlib & (RECORDS | FRACTIONS)
