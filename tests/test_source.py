"""Source-level rules for the package."""

import ast
import doctest
import importlib
from pathlib import Path

import bandbrick


def package_trees():
    for path in sorted(Path(bandbrick.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_in_package():
    # python -O strips asserts, so invariants must raise InternalInconsistency
    found = []
    for name, tree in package_trees():
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_debug_in_package():
    # with no assert and no __debug__, python -O strips nothing, so the one
    # -O run of the suites in tests/test_acceptance.py and the in-process
    # runs elsewhere execute the same code
    found = [
        f"{name}:{node.lineno}"
        for name, tree in package_trees()
        for node in ast.walk(tree)
        if "__debug__" in _names(node)
    ]
    assert found == []


def _names(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def test_no_rotation_copies_in_package():
    # copying every rotation makes the word layer quadratic; rotations()
    # stays public, but no library function may call it or sort rotations
    # with a comparator
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "rotations" in _names(node.func):
                found.append(f"{name}:{node.lineno} calls rotations")
            if "cmp_to_key" in _names(node):
                found.append(f"{name}:{node.lineno} uses cmp_to_key")
    assert found == []


def test_no_dataclasses_in_package():
    # importing dataclasses loads inspect, ast, dis and tokenize, about half
    # of a cold `import bandbrick.cli`; the two record classes are plain
    found = []
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "dataclasses" for module in modules):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_trace_internals_stay_in_dyck():
    # every other library caller, render included, reaches the trace
    # through dyck.reconstruct_multislalom, the one public trace, whose
    # curves carry their chord ends
    internal = {"_int_diagram", "_trace"}
    found = []
    for name, tree in package_trees():
        if name == "dyck.py":
            continue
        for node in ast.walk(tree):
            text = {node.value} if isinstance(node, ast.Constant) else _names(node)
            if text & internal:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_checked_walks_are_built_by_their_validators():
    # band_module does not validate a gentle._BandWalk again, so only psi
    # and slalom_to_band_walk, each right after its own check, build one;
    # a BandModule trusts its walk, so only band_module, after its checks,
    # and replace, which keeps the walk, build one
    builders = {
        "_BandWalk": ["gentle.py:psi", "gentle.py:slalom_to_band_walk"],
        "BandModule": ["gentle.py:band_module", "gentle.py:replace"],
    }
    found = {built: [] for built in builders}
    for name, tree in package_trees():
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for built in builders.keys() & _names(node.func):
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                found[built].append(f"{name}:{getattr(scope, 'name', '<module>')}")
    assert {built: sorted(sites) for built, sites in found.items()} == builders


def test_every_error_is_raised():
    # an error class that no raise names is dead code
    trees = dict(package_trees())
    errors = {
        node.name
        for node in ast.walk(trees["errors.py"])
        if isinstance(node, ast.ClassDef) and node.name != "DomainError"
    }
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= _names(exc)
    assert sorted(errors - raised) == []


def test_doctests_pass():
    # the docstring examples of every module run here and must hold
    results = {}
    for path in sorted(Path(bandbrick.__file__).parent.glob("*.py")):
        name = "bandbrick" if path.stem == "__init__" else f"bandbrick.{path.stem}"
        module = importlib.import_module(name)
        results[path.stem] = doctest.testmod(module)
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert results["words"].attempted >= 1
