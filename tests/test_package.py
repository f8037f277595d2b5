"""The package's public names: lazily resolved, but the same objects."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter

import curvelift

EXPORTS = {
    "errors": "CurveLiftError DiagramSyntaxError InapplicableMove MalformedAssociatedSubgroup "
    "ModeMismatch NonIntegralTurning UnsupportedSurface",
    "surfaces": "BundleKind CircleBundle GroupPresentation Surface bundle_pi1_presentation "
    "surface_pi1_presentation",
    "snf": "AbelianGroup BundleFit diagonal filling_quotient genus_from_filling_h1 "
    "smith_normal_form",
    "homology": "abelianization bundle_h1 exponent_vector",
    "words": "CONSISTENT VIOLATES GroupElementExpr conjugacy_class_key conjugate_classes_equal "
    "cyclic_dehn_reduce cyclic_reduce dehn_reduce exponent_sum free_reduce inverse_word "
    "is_trivial powersum_check",
    "hnn": "HNNExtension HNNWord britton_reduce is_trivial_hnn",
    "diagrams": "Diagram Violation cross cusp edge fiber_degree kink parse qturn raw_turning "
    "serialize shadow_word validate",
    "lifting": "LiftClass TwistedShadow canonicalize lift_class parse_twisted_shadow "
    "serialize_twisted_shadow shadow_homology_vector turning_delta vertex_link_curve",
    "moves": "EquivalenceVerdict MoveInstance SearchBudget applicable_moves apply_move "
    "canonical_key diagrams_equal equivalent_bounded invert_move move_from_json move_to_json "
    "replay transvection transvection_fiber_shift",
}


def test_every_export_is_its_submodules_object():
    names = set()
    for module, exported in EXPORTS.items():
        submodule = importlib.import_module(f"curvelift.{module}")
        for name in exported.split():
            assert getattr(curvelift, name) is getattr(submodule, name), name
            names.add(name)
        assert getattr(curvelift, module) is submodule
    namespace = {}
    exec("from curvelift import *", namespace)
    assert set(namespace) - {"__builtins__"} == names == set(dir(curvelift))
    assert curvelift.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(curvelift, "lift_classes")
    assert not hasattr(curvelift, "expand_kink")
    assert not hasattr(curvelift, "contract_kink")
    assert not hasattr(curvelift, "no_such_name")


def test_import_loads_no_submodule_until_used():
    probe = (
        "import sys, curvelift\n"
        "print(sorted(m for m in sys.modules if m.startswith('curvelift.')), curvelift.hnn.__name__)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    ).stdout
    assert out.split() == ["[]", "curvelift.hnn"]


def test_package_imports_only_the_standard_library():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "curvelift")
    imported = set()  # (file, top-level module) of every absolute import
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((name, node.module.split(".")[0]))
    allowed = sys.stdlib_module_names | {"curvelift"}
    assert {(name, module) for name, module in imported if module not in allowed} == set()


def test_package_parses_on_its_least_python():
    # no syntax newer than the requires-python floor pyproject.toml declares
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        floor = re.search(r'^requires-python = ">=3\.(\d+)"$', fh.read(), re.M)
    assert floor
    package = os.path.join(root, "src", "curvelift")
    names = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "moves.py" in names
    for name in names:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            ast.parse(fh.read(), name, feature_version=(3, int(floor[1])))


def test_property_tests_run_derandomized():
    # the suite's Hypothesis profile: the same examples on every run, none
    # replayed from a database, so the suite's result is a function of the code
    from hypothesis import settings

    assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None


def test_every_private_module_name_is_used():
    # each single-underscore function, class or constant at module level in
    # src/ is read somewhere in src/ outside its own definition
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "curvelift")
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name] = ast.parse(fh.read(), name)

    def reads(node):
        """The names read in node: loaded names, attributes and imported names."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    everywhere = Counter(name for tree in trees.values() for name in reads(tree))
    unused = []
    for file, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]
            else:
                continue
            own = Counter(reads(stmt))
            unused += [(file, name) for name in names if name.startswith("_") and not name.startswith("__")
                       and everywhere[name] == own[name]]
    assert unused == []
