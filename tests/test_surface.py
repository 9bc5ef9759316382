"""The package's public surface: every public top-level function, class and
method is named somewhere else in ``src/tfslab``, so nothing public is kept
alive by the tests alone."""

import ast
import os
from collections import Counter

import tfslab

PACKAGE = os.path.dirname(os.path.abspath(tfslab.__file__))

# entry points that the benchmark harness drives from outside the package
EXTERNAL_CALLERS = {"cli.run", "cli.validate_config"}


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                yield name[:-3], ast.parse(fh.read(), filename=name)


def _public_definitions(module, tree):
    """(qualified name, bare name, node) of each public top-level function,
    class and method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _names(node):
    """How often each name or attribute is read under ``node``; imports and
    strings such as ``__all__`` entries are not reads."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_public_definition_has_a_caller_in_the_package():
    modules = dict(_modules())
    reads = sum((_names(tree) for tree in modules.values()), Counter())
    unused = [
        qualname
        for module, tree in modules.items()
        for qualname, name, node in _public_definitions(module, tree)
        # a read inside the definition itself does not count
        if reads[name] == _names(node)[name] and qualname not in EXTERNAL_CALLERS
    ]
    assert not unused, f"public definitions with no caller in src/tfslab: {unused}"
