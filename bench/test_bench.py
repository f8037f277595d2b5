"""Tests of the benchmark itself: the oracles against hand-checked values,
seeded inputs that repeat exactly, and tracing that leaves curvelift as it
found it.  Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from fractions import Fraction

import oracles as O
import run
import workloads as W
from spans import Tracer


def test_det_fraction():
    assert O.det_fraction([[2, 1], [1, 1]]) == 1
    assert O.det_fraction([[1, 2], [3, 4]]) == -2
    assert O.det_fraction([[0, 1], [1, 0]]) == -1
    assert O.det_fraction([[1, 2], [2, 4]]) == 0
    assert O.det_fraction([[2, 0, 0], [5, 3, 0], [7, 8, 4]]) == 24


def test_bundle_h1_closed_form():
    assert O.bundle_euler_number(2, "UT") == -2 and O.bundle_euler_number(3, "PT") == -8
    assert O.bundle_h1_closed_form(2, -2) == (4, (2,))
    assert O.bundle_h1_closed_form(3, -8) == (6, (8,))
    assert O.bundle_h1_closed_form(1, 0) == (3, ())
    assert O.bundle_h1_closed_form(2, -1) == (4, ())
    # Z^5 / <(0,0,0,0,2), (1,0,0,0,0)>: D1 = 1, D2 = 2
    assert O.bundle_h1_closed_form(2, -2, [1, 0, 0, 0, 0]) == (3, (2,))
    # Z^5 / <(0,0,0,0,2), (0,0,0,0,3)> = Z^4 + Z/gcd(2, 3)
    assert O.bundle_h1_closed_form(2, -2, [0, 0, 0, 0, 3]) == (4, ())
    # Z^5 / <(0,0,0,0,4), (2,0,0,0,0)>: D1 = 2, D2 = 8
    assert O.bundle_h1_closed_form(2, -4, [2, 0, 0, 0, 0]) == (3, (2, 4))
    assert O.bundle_h1_closed_form(2, -4, [6, 0, 9, 0, 1]) == (3, (12,))


def test_words():
    assert O.exponent_vector("abABc", "abcd") == [0, 0, 1, 0]
    assert O.exponent_vector("aaD", "abcd") == [2, 0, 0, -1]
    assert O.free_reduce("abBAc") == "c"
    assert O.cyclic_reduce("aAbcB") == "c"
    assert O.cyclic_reduce("abcA") == "bc"
    assert O.inverse_word("abC") == "cBA"
    assert O.min_rotation("cab") == "abc"


def test_turning_sums():
    vertex_link = [("edge", t) for t in ("a1", "b1", "a1'", "b1'", "a2", "b2", "a2'", "b2'")]
    assert O.turning_sum(vertex_link, 2) == -2
    assert O.turning_sum([("qturn", 1)] * 4, 2) == 1
    assert O.turning_sum([("kink", -1), ("cusp", 1), ("cross", "1", 1)], 2) == Fraction(-1, 2)
    assert O.turning_sum([("edge", "a1"), ("qturn", 1)], 3) == Fraction(-1, 12)
    assert O.turning_sums([[("qturn", 1)] * 4, [("kink", -1)]], 2) == [-1, 1]


def test_crossing_slots_paired():
    assert O.crossing_slots_paired([[("cross", "1", 1), ("cross", "2", 1)], [("cross", "2", 2), ("cross", "1", 2)]])
    assert not O.crossing_slots_paired([[("cross", "1", 1), ("qturn", 1)]])
    assert not O.crossing_slots_paired([[("cross", "3", 1), ("cross", "3", 2), ("cross", "3", 1), ("cross", "3", 2)]])


def test_edge_sequences():
    comps = [[("edge", "b1"), ("cross", "1", 1), ("edge", "a1")], [("qturn", 1)], [("edge", "a2'")]]
    assert O.edge_sequences(comps) == [(), ("a1", "b1"), ("a2'",)]


def test_diagrams_equal():
    d = [[("edge", "a1"), ("cross", "7", 1), ("qturn", 1)], [("cross", "7", 2), ("kink", 1)]]
    rotated_renamed_swapped = [[("kink", 1), ("cross", "x", 2)], [("qturn", 1), ("edge", "a1"), ("cross", "x", 1)]]
    assert O.diagrams_equal(d, rotated_renamed_swapped)
    slots_swapped = [[("edge", "a1"), ("cross", "7", 2), ("qturn", 1)], [("cross", "7", 1), ("kink", 1)]]
    assert not O.diagrams_equal(d, slots_swapped)
    reflected = [[("qturn", 1), ("cross", "7", 1), ("edge", "a1")], [("cross", "7", 2), ("kink", 1)]]
    assert not O.diagrams_equal(d, reflected)


def test_inputs_repeat_for_a_seed(tmp_path):
    ctx = {"root": run.ROOT, "out_dir": str(tmp_path)}
    cl = run.import_curvelift()
    for workload, build in W.WORKLOADS.items():
        prints = []
        for seed in (3, 3, 4):
            prepared = build(cl, seed, ctx)
            prints.append(repr(prepared.inputs))
            if prepared.cleanup:
                prepared.cleanup()
        assert prints[0] == prints[1], workload
        assert prints[0] != prints[2], workload


def test_faults_count_only_when_their_output_shows():
    site = ValueError("site transport requires canonically equal diagrams")
    assert W.FAULT_SITE.shows_in(site)
    assert not W.FAULT_SITE.shows_in(ValueError("something else"))
    assert not W.FAULT_SITE.shows_in(object())
    assert W.FAULT_CONJ.shows_in(False)
    assert not W.FAULT_CONJ.shows_in(None)

    def op(out):
        return W.Op("op", lambda: out, lambda got: None if got is True else "wrong", W.FAULT_CONJ)

    results = run.Results([op(False), op(None), op(True)])
    for i, out in enumerate((False, None, True)):
        results.record(i, out, 0.001)
    assert results.failed == 2 and results.known == [True, False, False]
    assert results.incorrect == ["op: wrong"]


def test_tracer_restores_curvelift():
    cl = run.import_curvelift()
    before = (cl.moves.canonical_key, cl.moves.lift_class, cl.snf.AbelianGroup.__dict__["from_relation_matrix"])
    tracer = Tracer()
    tracer.install()
    try:
        assert cl.moves.canonical_key is not before[0]
        group = tracer.run_op(0, lambda: cl.homology.bundle_h1(cl.surfaces.CircleBundle.unit_tangent(cl.surfaces.Surface(2))))
        assert (group.rank, group.torsion) == (4, (2,))
    finally:
        tracer.restore()
    after = (cl.moves.canonical_key, cl.moves.lift_class, cl.snf.AbelianGroup.__dict__["from_relation_matrix"])
    assert after == before
    stats = tracer.stats
    assert stats["homology.bundle_h1"].calls == 1
    assert stats["snf.AbelianGroup.from_relation_matrix"].calls == 1
    assert stats["snf.smith_normal_form"].calls == 1
    # self times partition the operation's span
    total = stats["op"].total_s
    assert abs(sum(s.self_s for s in stats.values()) - total) < 1e-9


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(W.WORKLOADS)
