"""Checks on the package source itself."""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
from pathlib import Path

import transvect
from transvect.errors import TransvectError

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


def test_no_unused_imports_in_the_package():
    # a module-level import whose name the module never loads is dead; the
    # package's __init__ re-exports by import, and __future__ imports are
    # compiler directives
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in loaded]
    assert found == []


def test_every_private_module_name_is_used_in_the_package():
    # a module-level private function, class or constant that nothing in
    # the package refers to is either dead or a test-only oracle, which
    # belongs in the tests
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined[target] = (name, node.lineno, node.end_lineno)
    used = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            elif isinstance(node, ast.alias):
                ref = node.name
            else:
                continue
            where = defined.get(ref)
            if where and not (where[0] == name
                              and where[1] <= node.lineno <= where[2]):
                used.add(ref)
    assert len(defined) >= 20
    assert sorted(set(defined) - used) == []


def test_every_raise_in_the_package_raises_a_transvect_error():
    # callers and the CLI separate domain failures by TransvectError; any
    # other exception escapes as a traceback.  A raise that a handler of its
    # own try statement catches is local control flow and is exempt; a bare
    # raise re-raises what a handler caught.
    found, checked = [], 0
    for path in sorted(SRC.glob("*.py")):
        name = "transvect" if path.stem == "__init__" else f"transvect.{path.stem}"
        scope = {**vars(builtins), **vars(importlib.import_module(name))}
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caught = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Try):
                handled = tuple(
                    BaseException if h.type is None
                    else eval(ast.unparse(h.type), scope)
                    for h in node.handlers)
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        if isinstance(sub, ast.Raise):
                            caught.setdefault(sub, []).append(handled)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = eval(ast.unparse(exc), scope)
            checked += 1
            if issubclass(cls, TransvectError):
                continue
            if any(issubclass(cls, h) for handled in caught.get(node, ())
                   for h in handled):
                continue
            found.append(f"{path.name}:{node.lineno} {cls.__name__}")
    assert checked >= 100
    assert found == []


def test_only_word_matrix_multiplies_transvection_matrices():
    # a transvection is conjugated through its (v, phi), as
    # g t g^-1 = 1 + (g v)(phi o g^-1); a product with a `.matrix()` result
    # is the evaluation of a word, which is `tgraph.word_matrix`'s alone
    def is_matrix_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "matrix")

    found, allowed = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):  # breadth first: inner functions win
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mul"):
                continue
            operands = [node.func.value, *node.args, *(k.value for k in node.keywords)]
            if not any(map(is_matrix_call, operands)):
                continue
            where = f"{path.name}:{owner.get(node, '<module>')}"
            if where == "tgraph.py:word_matrix":
                allowed += 1
            else:
                found.append(f"{where}:{node.lineno}")
    assert allowed == 1
    assert found == []


# Public names that neither `cli` nor what it reaches refers to, each with
# the reason it stays public; any other name in `transvect.__all__` that
# nothing reaches is dead, or an oracle that belongs in tests/oracles.py
UNREACHED_PUBLIC = {
    "group_order": "the exact order of <X> by Schreier-Sims, as a library call",
    "stability_check": "a library route: the benchmark's stability entries call it",
    "bidirectional_distance": "a library route: the benchmark's distance entries call it",
    "transvection_ball": "the transvections within distance r, each with a word, "
                         "as a library call",
    "word_recover": "words read off a kept exploration, as a library call; the "
                    "command line's word route is `decompose --target`",
}


def test_every_public_name_is_reached_from_the_cli():
    # a reachability pass over module-level definitions: the roots are `cli`
    # and the bodies of the allow-listed routes, and a definition reaches
    # every name its body loads or reads as an attribute, through private
    # helpers too
    defs: dict[str, list[ast.AST]] = {}
    trees = {}
    for path in sorted(SRC.glob("*.py")):
        trees[path.stem] = tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    todo = list(names(trees["cli"]))
    for route in UNREACHED_PUBLIC:
        for node in defs[route]:
            todo.extend(names(node))
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo.extend(names(node))
    public = set(transvect.__all__)
    assert len(public) >= 40
    assert sorted(public - reached - set(UNREACHED_PUBLIC)) == []
    # an entry that something reaches, or that is no longer public, is stale
    assert sorted(set(UNREACHED_PUBLIC) & reached) == []
    assert sorted(set(UNREACHED_PUBLIC) - public) == []


# The public signatures of the recognition, certification and order entry
# points.  A floor on the group order, a budget or any other setting that
# the package uses inside them stays private; a new parameter is a new knob.
PUBLIC_SIGNATURES = {
    "classify": "(T: 'Sequence[Transvection]', budget_elements: 'int' = 10000000)"
                " -> 'ClassificationReport'",
    "certify": "(T: 'Sequence[Transvection]', budget_elements: 'int' = 10000000, "
               "seed: 'int' = 0) -> 'Certificate'",
    "stability_check": "(T: 'Sequence[Transvection]', T0: 'Sequence[Transvection]', "
                       "samples: 'int' = 100, seed: 'int' = 0, "
                       "budget_elements: 'int' = 20000) -> 'list[ClassificationReport]'",
    "sample_supersets": "(T: 'Sequence[Transvection]', T0: 'Sequence[Transvection]', "
                        "count: 'int' = 100, extras: 'int' = 3, seed: 'int' = 0) "
                        "-> 'list[TransvectionGraph]'",
    "group_order": "(gens: 'Sequence[Mat]', cap: 'int' = 10000000) -> 'int'",
}


def test_public_signatures_are_pinned():
    classify_mod = importlib.import_module("transvect.classify")
    for name, signature in PUBLIC_SIGNATURES.items():
        assert str(inspect.signature(getattr(classify_mod, name))) == signature, name
