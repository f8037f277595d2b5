"""The benchmark's workloads: seeded inputs, the timed calls into curvelift,
and the checks of their outputs.

Each workload builds a fixed list of operations from the seed.  An
operation's ``call`` is the only thing timed; it reaches curvelift through
module attributes at call time (``cl.moves.equivalent_bounded``), so the
traced mode sees every layer.  ``check`` recomputes what the output must be
with the oracles in ``oracles.py`` or a property the method must have, and
returns None or the reason the output is wrong.  An operation with a
``fault`` may be hit by a known fault of the program: a failure whose output
shows that fault is timed like any other and counted as failed; any other
failure is a wrong output.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as O

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

GENUS = 2
NAMES = ("a1", "b1", "a2", "b2")
CHARS = {"a1": "a", "b1": "b", "a2": "c", "b2": "d"}
MODES = ("UT", "PT")  # smooth diagrams in the unit tangent bundle, cusp diagrams in PT

@dataclass(frozen=True)
class Fault:
    """A known fault of the program, and the output by which it shows."""

    label: str
    shows_in: Callable[[object], bool]


FAULT_SITE = Fault(
    "site-transport: equivalent_bounded raises ValueError from moves._site_map "
    "during certificate assembly; finish() catches only InapplicableMove",
    lambda out: isinstance(out, ValueError) and "site transport" in str(out),
)
FAULT_CONJ = Fault(
    "conjugacy-key: conjugate_classes_equal / conjugacy_class_key are not "
    "canonical for half-relator swaps (ROADMAP 3(b))",
    lambda out: out is False,
)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fault: Fault | None = None  # a failure is this fault only if its output shows it
    attempts: int = 1  # per round
    in_process: Callable[[], object] | None = None  # cli: the same verb through cli.main


@dataclass
class Prepared:
    ops: list[Op]
    inputs: list  # the generated inputs, in plain values, for the benchmark's tests
    cleanup: Callable[[], None] | None = None
    cli: object = None  # the cli workload's runner, for the traced mode


# ----------------------------------------------------------------------
# diagrams as text, built by the benchmark


def token(ev) -> str:
    if ev[0] == "edge":
        return ev[1]
    if ev[0] == "cross":
        return f"X{ev[1]}.{ev[2]}"
    return {("qturn", 1): "Q+", ("qturn", -1): "Q-", ("kink", 1): "L+", ("kink", -1): "L-",
            ("cusp", 1): "C^", ("cusp", -1): "Cv"}[ev]


def diagram_text(mode: str, components) -> str:
    lines = [f"surface genus={GENUS} boundary=0", f"bundle {mode}"]
    lines += [("comp: " + " ".join(token(ev) for ev in comp)).rstrip() for comp in components]
    return "\n".join(lines) + "\n"


def random_edge(rng):
    return ("edge", rng.choice(NAMES) + ("'" if rng.random() < 0.5 else ""))


def random_component(rng, mode: str, loose: int):
    """``loose`` edges and quarter turns whose turning lies on the mode's
    grid: integral for UT, half-integral for PT.  On genus 2 each edge turns
    by -1/4, so 4 * turning = (signed quarter turns) - (edges)."""
    grid = 4 if mode == "UT" else 2
    if loose % 2:  # every loose event moves 4 * turning by +-1
        raise ValueError("an odd number of edges and quarter turns cannot close up")
    while True:
        events = [random_edge(rng) if rng.random() < 0.5 else ("qturn", rng.choice((1, -1)))
                  for _ in range(loose)]
        quarter = sum(ev[1] for ev in events if ev[0] == "qturn")
        edges = sum(1 for ev in events if ev[0] == "edge")
        if (quarter - edges) % grid == 0:
            return events


def random_diagram(rng, mode: str, size: int, crossings: int, components: int = 1):
    """Kink-free diagram with exactly ``size`` events and crossing ids
    1..crossings, each visit inserted at a random place."""
    loose = size - 2 * crossings
    while True:  # each component needs an even number of loose events
        bounds = [0, *sorted(rng.randint(0, loose) for _ in range(components - 1)), loose]
        if all((hi - lo) % 2 == 0 for lo, hi in zip(bounds, bounds[1:])):
            break
    comps = [random_component(rng, mode, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    for cid in range(1, crossings + 1):
        for slot in (1, 2):
            comp = rng.choice(comps)
            comp.insert(rng.randint(0, len(comp)), ("cross", str(cid), slot))
    return comps


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_fixture(name: str) -> str:
    return read_text(os.path.join(FIXTURES, name))


def fiber_degrees(components, mode: str) -> list[int]:
    scale = 2 if mode == "PT" else 1
    return [int(scale * O.turning_sum(c, GENUS)) for c in components]


def euler_of(mode: str) -> int:
    return O.bundle_euler_number(GENUS, mode)


def homology_vector(component) -> list[int]:
    word = "".join(shadow_char(ev[1]) for ev in component if ev[0] == "edge")
    return O.exponent_vector(word, "abcd")


def shadow_char(tok: str) -> str:
    ch = CHARS[tok.rstrip("'")]
    return ch.upper() if tok.endswith("'") else ch


def invariant_really_differs(name, comps1, comps2, mode) -> str | None:
    """Recompute a distinguishing invariant the search named; None when the
    two values really differ."""
    if name == "component_count":
        same = len(comps1) == len(comps2)
    elif name == "shadow_classes":
        # the class key is flip-symmetric; H1 classes up to sign separate classes
        def flip_free(v):
            return min(tuple(v), tuple(-x for x in v))
        same = sorted(flip_free(homology_vector(c)) for c in comps1) == sorted(
            flip_free(homology_vector(c)) for c in comps2)
    elif name == "lift_class_base":
        same = sorted(map(homology_vector, comps1)) == sorted(map(homology_vector, comps2))
    elif name == "lift_class_fiber":
        e = abs(euler_of(mode))
        same = (sum(fiber_degrees(comps1, mode)) - sum(fiber_degrees(comps2, mode))) % e == 0
    else:
        return f"unknown invariant {name!r}"
    return f"recomputed {name} values are equal" if same else None


def check_certificate(cl, d1, d2, certificate) -> str | None:
    """Replay a certificate from d1 and confirm it reaches d2, through
    diagrams whose crossings are all paired, between equal turning sums."""
    chain = [d1]
    for move in certificate:
        if move.kind == "transvection":
            return "certificate uses a transvection"
        try:
            chain.append(cl.moves.apply_move(chain[-1], move))
        except cl.errors.InapplicableMove as exc:
            return f"certificate does not replay: {exc}"
    if not all(O.crossing_slots_paired(d.components) for d in chain):
        return "a diagram along the certificate has an unpaired crossing"
    if not O.diagrams_equal(chain[-1].components, d2.components):
        return "replaying the certificate does not give d2"
    if O.turning_sums(d1.components, GENUS) != O.turning_sums(d2.components, GENUS):
        return "the two ends have different turning sums"
    return None


# ----------------------------------------------------------------------
# search_equiv

# (scramble depth, events in d1, pairs per mode).  Scrambles use only the
# growing moves (stab, r2_insert), so the certified distance equals the depth:
# a path needs one stab per added loop pair and one r2_insert per added
# crossing pair.  Search time then follows the cell.  The many cheap
# depth-2 pairs put the median in the middle of one cell, and the twelve
# depth-4 pairs from 4 events per mode hold the tail; depth 4 from 6 events
# costs about three times as much, so only two per mode, to leave time for
# more rounds in a run.
EQUIV_CELLS = ((2, 4, 18), (2, 6, 150), (3, 4, 2), (3, 6, 2), (4, 4, 12), (4, 6, 2))
EQUIV_BUDGET = dict(max_moves=6, max_states=100_000)
# Attempts per round by depth: a pair of a cheap cell is attempted more
# often, so its least time is taken over as many moments of the machine as a
# deep pair's, at a small share of the round's time.
EQUIV_ATTEMPTS = {2: 4, 3: 2, 4: 1}


def growing_sites(cl, diagram, kind):
    """Every site of a growing move of one kind, in the order of the move
    catalogue: ``stab`` at each gap, ``r2_insert`` at each pair of gaps."""
    gaps = [(ci, p) for ci, comp in enumerate(diagram.components) for p in range(max(len(comp), 1))]
    if kind == "stab":
        variant = "ud" if diagram.mode == "cusp" else "lr"
        return [cl.moves.MoveInstance(kind, (*gap, variant)) for gap in gaps]
    return [cl.moves.MoveInstance(kind, (*g1, *g2)) for g1 in gaps for g2 in gaps]


def scramble(cl, rng, diagram, depth):
    """Criterion-09 recipe restricted to growing moves: draw a kind, then a
    site of that kind.  At most one ``r2_insert``: the site-transport fault
    shows on some seeds only, and in a scan every scramble it showed on had
    two or more of them (see CHANGES.md)."""
    kinds = ["r2_insert", "stab"]
    for _ in range(depth):
        kind = rng.choice(kinds)
        diagram = cl.moves.apply_move(diagram, rng.choice(growing_sites(cl, diagram, kind)))
        if kind == "r2_insert":
            kinds = ["stab"]
    return diagram


def build_search_equiv(cl, seed, ctx):
    """One scrambled pair per slot; the slot fixes the number of crossings
    of d1 (0, 1 or 2).  The fixed pair keeps the site-transport fault in
    every round."""
    budget = cl.moves.SearchBudget(**EQUIV_BUDGET)
    ops, inputs = [], []
    for mode in MODES:
        for depth, size, count in EQUIV_CELLS:
            for _ in range(count):
                slot = len(ops)
                rng = random.Random(f"search_equiv/{seed}/{slot}")
                d1, bundle = cl.diagrams.parse(diagram_text(mode, random_diagram(rng, mode, size, slot % 3)))
                d2 = scramble(cl, rng, d1, depth)
                op = equiv_op(cl, f"equiv/{mode}/d{depth}s{size}/{slot}", d1, d2, bundle, budget)
                op.attempts = EQUIV_ATTEMPTS[depth]
                ops.append(op)
                inputs.append((d1.components, d2.components))
    (f1, bundle), (f2, _) = (cl.diagrams.parse(read_fixture(f"site_transport_{e}.txt")) for e in ("d1", "d2"))
    ops.append(equiv_op(cl, "equiv/fixed-site-transport", f1, f2, bundle, budget))
    return Prepared(ops, inputs)


def equiv_op(cl, name, d1, d2, bundle, budget):
    def call():
        return cl.moves.equivalent_bounded(d1, d2, bundle, budget)

    def check(verdict):
        if verdict.status != "equivalent":
            return f"verdict {verdict.status}, expected equivalent"
        return check_certificate(cl, d1, d2, verdict.certificate)

    return Op(name, call, check, FAULT_SITE)


# ----------------------------------------------------------------------
# search_unknown

UNKNOWN_PER_MODE = 20
UNKNOWN_SIZE, UNKNOWN_CROSSINGS = 10, 1  # the size of the ROADMAP pair's d1
UNKNOWN_BUDGET = dict(max_moves=6, max_states=2_000)


def backtrack_pair(rng, mode):
    """d and d with a polygon-side backtrack x x' and the two quarter turns
    that restore its turning inserted at one gap."""
    comp = random_diagram(rng, mode, UNKNOWN_SIZE, UNKNOWN_CROSSINGS)[0]
    name = rng.choice(NAMES)
    x, back = (name, name + "'") if rng.random() < 0.5 else (name + "'", name)
    gap = rng.randint(0, len(comp))
    comp2 = comp[:gap] + [("edge", x), ("edge", back), ("qturn", 1), ("qturn", 1)] + comp[gap:]
    return diagram_text(mode, [comp]), diagram_text(mode, [comp2])


def build_search_unknown(cl, seed, ctx):
    rng = random.Random(f"search_unknown/{seed}")
    texts = [("UT/fixed-roadmap", read_fixture("exhaustion_d1.txt"), read_fixture("exhaustion_d2.txt"))]
    for mode in MODES:
        for _ in range(UNKNOWN_PER_MODE - (mode == "UT")):
            texts.append((f"{mode}/{len(texts)}", *backtrack_pair(rng, mode)))
    budget = cl.moves.SearchBudget(**UNKNOWN_BUDGET)
    ops = []
    for name, t1, t2 in texts:
        (d1, bundle), (d2, _) = cl.diagrams.parse(t1), cl.diagrams.parse(t2)
        mode = "PT" if d1.mode == "cusp" else "UT"

        def call(d1=d1, d2=d2, bundle=bundle):
            return cl.moves.equivalent_bounded(d1, d2, bundle, budget)

        def check(verdict, d1=d1, d2=d2, mode=mode):
            if O.edge_sequences(d1.components) == O.edge_sequences(d2.components):
                return "input pair has equal edge sequences"
            if verdict.status == "equivalent":
                return "equivalent, but no catalogue move changes the edge sequences"
            if verdict.status == "distinguished":
                return invariant_really_differs(verdict.invariant[0], d1.components, d2.components, mode)
            return None

        ops.append(Op(f"unknown/{name}", call, check))
    return Prepared(ops, texts)


# ----------------------------------------------------------------------
# algebra

SNF_SIZES = ((6, 20), (7, 80))  # (n, matrices per round)
H1_GENERA = range(2, 9)
FILLINGS = 12  # random sigma per bundle
DEHN_WORDS, DEHN_LETTERS = 8, 2000
CONJ_PAIRS, CONJ_LETTERS, CONJUGATOR_LETTERS = 8, 1000, 100
BRITTON_WORDS, BRITTON_T = 6, 300
CONJ_FAULT_PAIR = ("abABa", "dcDCa")  # equal in pi1(S_2): abABa (dcDCa)^-1 = abABcdCD


def relator_bigrams(relator: str) -> set[str]:
    """Letter pairs that occur cyclically in the relator or its inverse."""
    out = set()
    for r in (relator, O.inverse_word(relator)):
        out |= {r[i] + r[(i + 1) % len(r)] for i in range(len(r))}
    return out


def random_reduced_word(rng, alphabet: str, length: int, banned=frozenset()) -> str:
    """Freely reduced word, cyclically reduced, with no banned bigram
    (cyclically)."""
    letters = alphabet + alphabet.upper()
    while True:
        w = [rng.choice(letters)]
        while len(w) < length:
            ch = rng.choice(letters)
            if ch != w[-1].swapcase() and w[-1] + ch not in banned:
                w.append(ch)
        if w[0] != w[-1].swapcase() and w[-1] + w[0] not in banned:
            return "".join(w)


def trivial_word(rng, relator: str, alphabet: str, length: int) -> str:
    """Product of conjugates g^-1 r^+-1 g of rotations r of the relator."""
    parts, size = [], 0
    while size < length:
        k = rng.randrange(len(relator))
        r = relator[k:] + relator[:k]
        if rng.random() < 0.5:
            r = O.inverse_word(r)
        g = random_reduced_word(rng, alphabet, rng.randint(1, 12))
        parts.append(O.inverse_word(g) + r + g)
        size += len(parts[-1])
    return "".join(parts)


def britton_word(rng, length: int):
    """Items of a pinch-free word over <a, b, c, t | t a t^-1 = b>: every
    base word between two t-letters contains c, so it lies in neither
    associated subgroup."""
    items = [random_reduced_word(rng, "abc", rng.randint(1, 4))]
    for _ in range(length):
        items.append(rng.choice((1, -1)))
        core = random_reduced_word(rng, "ab", rng.randint(0, 3)) if rng.random() < 0.5 else ""
        items.append(O.free_reduce(core + "c" if rng.random() < 0.5 else "C" + core))
    return items


def algebra_inputs(cl, seed):
    rng = random.Random(f"algebra/{seed}")
    S = cl.surfaces
    state = {"snf": [], "h1": [], "fill": [], "dehn_trivial": [], "dehn_nonzero": [],
             "conj": [], "britton_free": [], "britton_inverse": []}
    for n, count in SNF_SIZES:
        for _ in range(count):
            state["snf"].append([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
    for g in H1_GENERA:
        for kind in MODES:
            base = S.Surface(g)
            bundle = S.CircleBundle.unit_tangent(base) if kind == "UT" else S.CircleBundle.projective_tangent(base)
            pres = S.bundle_pi1_presentation(bundle)
            rows = [O.exponent_vector(rel, pres.generators) for rel in pres.relators]
            e = O.bundle_euler_number(g, kind)
            state["h1"].append((g, e, bundle))
            for _ in range(FILLINGS):
                sigma = [rng.randint(-9, 9) for _ in pres.generators]
                state["fill"].append((g, e, rows, len(pres.generators), sigma))
    for i in range(DEHN_WORDS):
        surface = S.Surface(2 + i % 2)
        alphabet, relator = surface.generator_chars, surface.relator()
        w = trivial_word(rng, relator, alphabet, DEHN_LETTERS)
        state["dehn_trivial"].append((surface, w))
        pos = rng.randint(0, len(w))
        state["dehn_nonzero"].append((surface, w[:pos] + rng.choice(alphabet) + w[pos:]))
    s2 = S.Surface(2)
    banned = relator_bigrams(s2.relator())
    for _ in range(CONJ_PAIRS):
        w = random_reduced_word(rng, s2.generator_chars, CONJ_LETTERS, banned)
        g = random_reduced_word(rng, s2.generator_chars, CONJUGATOR_LETTERS)
        state["conj"].append((s2, w, O.inverse_word(g) + w + g))
    ext = cl.hnn.HNNExtension(("a", "b", "c"), frozenset("a"), frozenset("b"), (("a", "b"),))
    for _ in range(BRITTON_WORDS):
        hw = cl.hnn.HNNWord.from_items(ext, britton_word(rng, BRITTON_T))
        state["britton_free"].append(hw)
        w2 = cl.hnn.HNNWord.from_items(ext, britton_word(rng, BRITTON_T // 2))
        state["britton_inverse"].append(w2.concat(w2.formal_inverse()))
    return state


def check_snf(m, out) -> str | None:
    d, u, v = out
    n = len(m)
    if O.mat_mul(O.mat_mul(u, m), v) != d:
        return "U m V != D"
    if any(d[i][j] for i in range(n) for j in range(n) if i != j):
        return "D is not diagonal"
    diag = [d[i][i] for i in range(n)]
    if any(x < 0 for x in diag) or not O.is_divisibility_chain(diag):
        return f"diagonal {diag} is not a non-negative divisibility chain"
    if abs(O.det_fraction(u)) != 1 or abs(O.det_fraction(v)) != 1:
        return "U or V is not unimodular"
    prod = 1
    for x in diag:
        prod *= x
    if prod != abs(O.det_fraction(m)):
        return "product of the invariant factors != |det m|"
    return None


def check_group(expected, group) -> str | None:
    got = (group.rank, tuple(group.torsion))
    return None if got == expected else f"H1 {got}, closed form {expected}"


def build_algebra(cl, seed, ctx):
    state = algebra_inputs(cl, seed)
    ops = []
    for i, m in enumerate(state["snf"]):
        ops.append(Op(f"snf/{len(m)}x{len(m)}/{i}", lambda m=m: cl.snf.smith_normal_form(m),
                      lambda out, m=m: check_snf(m, out)))
    for g, e, bundle in state["h1"]:
        ops.append(Op(f"h1/{bundle}", lambda b=bundle: cl.homology.bundle_h1(b),
                      lambda out, g=g, e=e: check_group(O.bundle_h1_closed_form(g, e), out)))
    for g, e, rows, n, sigma in state["fill"]:
        ops.append(Op(f"fill/g{g}e{e}", lambda rows=rows, n=n, s=sigma: cl.snf.filling_quotient(rows, n, s),
                      lambda out, g=g, e=e, s=sigma: check_group(O.bundle_h1_closed_form(g, e, s), out)))
    for i, (surface, w) in enumerate(state["dehn_trivial"]):
        ops.append(Op(f"dehn/trivial/{i}", lambda s=surface, w=w: cl.words.is_trivial(w, s),
                      lambda out: None if out is True else "trivial word not recognised"))
    for i, (surface, w) in enumerate(state["dehn_nonzero"]):
        def check(out, s=surface, w=w):
            if not out:
                return "word with nonzero H1 class reduced to the identity"
            gens = s.generator_chars
            if O.exponent_vector(out, gens) != O.exponent_vector(w, gens):
                return "Dehn reduction changed the H1 class"
            return None
        ops.append(Op(f"dehn/nonzero/{i}", lambda s=surface, w=w: cl.words.dehn_reduce(w, s), check))
    conj_check = lambda out: None if out is True else "built conjugates answered not conjugate"
    for i, (surface, w1, w2) in enumerate(state["conj"]):
        ops.append(Op(f"conj/{i}", lambda s=surface, a=w1, b=w2: cl.words.conjugate_classes_equal(a, b, s),
                      conj_check))
    s2 = cl.surfaces.Surface(2)
    a, b = CONJ_FAULT_PAIR
    ops.append(Op("conj/fixed-half-relator-swap", lambda: cl.words.conjugate_classes_equal(a, b, s2),
                  conj_check, FAULT_CONJ))
    for i, hw in enumerate(state["britton_free"]):
        def check(out, hw=hw):
            if out.t_length != hw.t_length or out.base_words != hw.base_words:
                return "pinch-free word changed under Britton reduction"
            return None
        ops.append(Op(f"britton/pinch-free/{i}", lambda hw=hw: cl.hnn.britton_reduce(hw), check))
    for i, hw in enumerate(state["britton_inverse"]):
        ops.append(Op(f"britton/w-winv/{i}", lambda hw=hw: cl.hnn.britton_reduce(hw),
                      lambda out: None if out.t_length == 0 and out.base_words == ("",)
                      else "w w^-1 is not reduced to the identity"))
    return Prepared(ops, sorted(state.items()))


# ----------------------------------------------------------------------
# cli

CLI_VERBS = 8  # invocations per verb family and round


class CliRunner:
    """Runs ``python -m curvelift.cli --format json ...`` as a child process
    from the checkout, or ``cli.main`` in-process for the traced mode."""

    def __init__(self, cl, root):
        self.cl = cl
        self.root = root
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "curvelift.cli", "--format", "json", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def in_process(self, argv):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cl.cli.main(["--format", "json", *argv])
        return code, out.getvalue()


def cli_cases(cl, seed, workdir):
    rng = random.Random(f"cli/{seed}")

    def put(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    cases = []
    for i in range(CLI_VERBS):
        mode = MODES[i % 2]
        comps = random_diagram(rng, mode, 12, 2, components=1 + i % 2)
        if i >= CLI_VERBS - 2:  # drop one slot of a crossing: UnpairedCrossing, exit 1
            comps = [[ev for ev in comp if ev != ("cross", "1", 2)] for comp in comps]
        cases.append(("validate", ["validate", put(f"validate{i}.txt", diagram_text(mode, comps))], comps, mode))
    for i in range(CLI_VERBS):
        mode = MODES[i % 2]
        comps = random_diagram(rng, mode, 12, 2, components=1 + i % 2)
        cases.append(("invariants", ["invariants", put(f"invariants{i}.txt", diagram_text(mode, comps))], comps, mode))
    for i in range(CLI_VERBS):
        g, kind = 2 + i % 7, MODES[i % 2]
        sigma = [rng.randint(-9, 9) for _ in range(2 * g + 1)]
        argv = ["h1", "--genus", str(g), "--bundle", kind, "--sigma=" + ",".join(map(str, sigma))]
        cases.append(("h1", argv, (g, O.bundle_euler_number(g, kind), sigma), kind))
    s2 = cl.surfaces.Surface(2)
    for i in range(CLI_VERBS):
        w = trivial_word(rng, s2.relator(), s2.generator_chars, 300)
        trivial = i % 2 == 0
        if not trivial:
            pos = rng.randint(0, len(w))
            w = w[:pos] + rng.choice(s2.generator_chars) + w[pos:]
        cases.append(("group", ["group", "trivial", "--genus", "2", w], trivial, None))
    for i in range(CLI_VERBS):
        mode = MODES[i % 2]
        comps = random_diagram(rng, mode, 6, 1)
        text1 = diagram_text(mode, comps)
        if i % 2 == 0:  # two growing moves apart: certified
            d1, bundle = cl.diagrams.parse(text1)
            text2 = cl.diagrams.serialize(scramble(cl, rng, d1, 2), bundle)
            expect = "equivalent"
        else:  # one polygon side doubled: the shadow's H1 class changes, even up to sign
            v1 = homology_vector(comps[0])
            while True:
                comp2 = list(comps[0]) + [random_edge(rng)] * 2 + [("qturn", 1)] * 2
                v2 = homology_vector(comp2)
                if v2 != [-x for x in v1]:
                    break
            text2 = diagram_text(mode, [comp2])
            expect = "distinguished"
        p1, p2 = put(f"equiv{i}a.txt", text1), put(f"equiv{i}b.txt", text2)
        cases.append(("equiv", ["equiv", p1, p2], (expect, p1, p2), mode))
    return cases


def check_cli(cl, verb, info, mode, out) -> str | None:
    code, stdout = out
    try:
        payload = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return f"{verb}: output is not JSON"
    if verb == "validate":
        comps = info
        valid = O.crossing_slots_paired(comps)
        if code != (0 if valid else 1) or payload["valid"] is not valid:
            return f"validate: exit {code}, valid={payload and payload['valid']}, expected {valid}"
        if not valid and not any(v["rule"] == "UnpairedCrossing" for v in payload["violations"]):
            return "validate: UnpairedCrossing not reported"
        return None
    if verb == "invariants":
        comps = info
        if code != 0:
            return f"invariants: exit {code}"
        rank, torsion = O.bundle_h1_closed_form(GENUS, euler_of(mode))
        if payload["H1_invariants"] != {"rank": rank, "torsion": list(torsion)}:
            return f"invariants: H1 {payload['H1_invariants']}"
        e = abs(euler_of(mode))
        for comp, got, fiber in zip(comps, payload["components"], fiber_degrees(comps, mode)):
            if Fraction(got["turning"]) != O.turning_sum(comp, GENUS):
                return f"invariants: turning {got['turning']}"
            if got["fiber"] != fiber or got["fiber_mod_e"] != fiber % e:
                return f"invariants: fiber {got['fiber']} / {got['fiber_mod_e']}"
            if got["base"] != homology_vector(comp):
                return f"invariants: base {got['base']}"
        return None if len(payload["components"]) == len(comps) else "invariants: component count"
    if verb == "h1":
        g, e, sigma = info
        rank, torsion = O.bundle_h1_closed_form(g, e, sigma)
        if code != 0 or (payload["rank"], payload["torsion"]) != (rank, list(torsion)):
            return f"h1: exit {code}, {payload}, closed form {rank} {torsion}"
        return None
    if verb == "group":
        trivial = info
        if code != (0 if trivial else 1) or payload["trivial"] is not trivial:
            return f"group trivial: exit {code}, expected trivial={trivial}"
        return None
    expect, p1, p2 = info
    d1, _ = cl.diagrams.parse(read_text(p1))
    d2, _ = cl.diagrams.parse(read_text(p2))
    if expect == "equivalent":
        if code != 0 or payload["status"] != "equivalent":
            return f"equiv: exit {code}, expected equivalent"
        certificate = [cl.moves.move_from_json(obj) for obj in payload["certificate"]]
        return check_certificate(cl, d1, d2, certificate)
    if code != 3 or payload["status"] != "distinguished":
        return f"equiv: exit {code}, expected distinguished"
    return invariant_really_differs(payload["invariant"]["name"], d1.components, d2.components, mode)


def build_cli(cl, seed, ctx):
    workdir = os.path.join(ctx["out_dir"], f"cli-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cases = cli_cases(cl, seed, workdir)
    runner = CliRunner(cl, ctx["root"])
    ops, inputs = [], []
    for i, (verb, argv, info, mode) in enumerate(cases):
        ops.append(Op(
            f"cli/{verb}/{i}",
            lambda argv=argv: runner.subprocess(argv),
            lambda out, v=verb, info=info, m=mode: check_cli(cl, v, info, m, out),
            in_process=lambda argv=argv: runner.in_process(argv),
        ))
        files = [a for a in argv if a.startswith(workdir)]
        inputs.append((verb, [a for a in argv if a not in files], [read_text(a) for a in files], mode))
    return Prepared(ops, inputs, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True), cli=runner)


WORKLOADS = {
    "search_equiv": build_search_equiv,
    "search_unknown": build_search_unknown,
    "algebra": build_algebra,
    "cli": build_cli,
}
