"""The package's public surface: every public top-level function, class and
method is named somewhere else in ``src/tfslab``, every defaulted
parameter is set by some call there, every dataclass field is read there,
and every public function that returns a value and is called there has a
call that uses the value, so neither a name, an option, a field nor a
result is kept alive by the tests alone."""

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


# defaulted parameters that only a caller outside the package sets: the
# benchmark's ML oracle passes ml_eval a larger modulus cap
EXTERNAL_SETTERS = {"mlf.ml_eval.z_max"}


def _defaulted_parameters(module, tree):
    """(qualified name, callee name, position, keyword) of each defaulted
    parameter of every function and method; the position counts the
    arguments a call passes, after ``self`` or ``cls``, and is None for a
    keyword-only parameter.  A class's ``__init__`` is called by the class
    name."""
    scopes = [(module, node, None) for node in tree.body]
    while scopes:
        prefix, node, cls = scopes.pop()
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{prefix}.{node.name}", item, node.name) for item in node.body]
            continue
        if not isinstance(node, ast.FunctionDef):
            continue
        scopes += [(f"{prefix}.{node.name}", item, None) for item in node.body]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if cls is not None and not static else 0
        callee = cls if node.name == "__init__" else node.name
        args = node.args.posonlyargs + node.args.args
        first = len(args) - len(node.args.defaults)
        for i, arg in enumerate(args[first:], start=first):
            yield f"{prefix}.{node.name}.{arg.arg}", callee, i - skip, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{prefix}.{node.name}.{arg.arg}", callee, None, arg.arg


def _calls(tree):
    """(callee name, positional count, keywords, unpacks) of each call; a
    call that unpacks ``*args`` or ``**kw`` sets every parameter."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        yield name, len(node.args), {k.arg for k in node.keywords}, unpacks


def test_every_default_is_set_by_a_caller_in_the_package():
    modules = dict(_modules())
    calls = [call for tree in modules.values() for call in _calls(tree)]
    unset = [
        qualname
        for module, tree in modules.items()
        for qualname, callee, position, keyword in _defaulted_parameters(module, tree)
        if qualname not in EXTERNAL_SETTERS and not any(
            name == callee and (unpacks or keyword in keywords
                                or (position is not None and position < count))
            for name, count, keywords, unpacks in calls)
    ]
    assert not unset, f"defaulted parameters no call in src/tfslab sets: {sorted(unset)}"


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def _dataclass_fields(module, tree):
    """(qualified name, field name) of each field of a top-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id


def test_every_dataclass_field_is_read_in_the_package():
    modules = dict(_modules())
    reads = Counter(
        n.attr for tree in modules.values() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    unread = [qualname for module, tree in modules.items()
              for qualname, name in _dataclass_fields(module, tree) if not reads[name]]
    assert not unread, f"dataclass fields nothing in src/tfslab reads: {unread}"


def _returns_value(function):
    """Whether ``function`` itself (not a function nested in it) returns
    something other than None or yields."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant) and node.value.value is None):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _call_uses(tree):
    """(callee name, whether the value is used) of each call; a call that
    is a whole expression statement discards its value."""
    discarded = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield getattr(func, "id", getattr(func, "attr", None)), id(node) not in discarded


def test_every_called_result_is_used_somewhere():
    modules = dict(_modules())
    uses = [use for tree in modules.values() for use in _call_uses(tree)]
    discarded = []
    for module, tree in modules.items():
        for qualname, name, node in _public_definitions(module, tree):
            if not isinstance(node, ast.FunctionDef) or not _returns_value(node):
                continue
            used = [value_used for callee, value_used in uses if callee == name]
            if used and not any(used):
                discarded.append(qualname)
    assert not discarded, f"functions whose every call in src/tfslab discards the value: {discarded}"
