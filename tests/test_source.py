"""Source-level rules for the package."""

import ast
from pathlib import Path

import bandbrick


def test_no_assert_in_package():
    # python -O strips asserts, so invariants must raise InternalInconsistency
    found = []
    for path in sorted(Path(bandbrick.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
