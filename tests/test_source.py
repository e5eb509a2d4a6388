"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import transvect

SRC = Path(transvect.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; invariants are checked by
    # `errors._require`, which raises InternalError under any flags
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []
