"""The package has no runtime dependencies beyond the standard library,
its modules and tests are Python 3.10 syntax, as `pyproject.toml`
promises, no function in it leaves a reference cycle behind per
call, no function imports one of its modules unless listed with a
reason, every private module-level name in it is used, the typing
errors it raises are of the documented kinds, every per-node cache
it writes is declared once, in a `__slots__` of `syntax`, no class
names one of its annotated fields in a `__slots__` of its own, no
`__slots__` names `__weakref__`, and only `syntax._intern` calls
`object.__new__`."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import efflam
from efflam.typecheck import TypeCheckError

SOURCES = sorted(Path(efflam.__file__).parent.glob("*.py"))


def _imported_modules(path):
    """Each absolute import of the file, as the top-level module it names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_import_is_relative_or_from_the_standard_library():
    assert SOURCES
    outside = {
        (path.name, module)
        for path in SOURCES
        for module in _imported_modules(path)
        if module not in sys.stdlib_module_names
    }
    assert outside == set()


# the oldest Python that `pyproject.toml` admits
_OLDEST = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (Path(__file__).parents[1] / "pyproject.toml").read_text(),
        re.MULTILINE,
    ).groups()
)


def test_every_module_and_test_parses_as_the_oldest_python_supported():
    paths = SOURCES + sorted(Path(__file__).parent.glob("*.py"))
    rejected = []
    for path in paths:
        try:
            ast.parse(path.read_text(), str(path), feature_version=_OLDEST)
        except SyntaxError as err:
            rejected.append(f"{path.name}: {err}")
    assert rejected == []


def test_the_syntax_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_OLDEST)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _package_modules(node):
    """The modules of the package that the import statement `node`
    names, without the package's name."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        package, _, module = node.module.partition(".")
        modules = [module] if module else [alias.name for alias in node.names]
    else:
        package, modules = "efflam", []
        for alias in node.names:
            head, _, module = alias.name.partition(".")
            if head == "efflam" and module:
                modules.append(module)
    return modules if package == "efflam" else []


def _imports_in_functions(source):
    """(function, module) for each module of the package imported in a
    function's body, the function named with the classes and functions
    around it.  An import there hides a dependency from the module's
    header, and often a cycle."""
    todo = [(node, "", False) for node in ast.parse(source).body]
    while todo:
        node, scope, in_function = todo.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            in_function = in_function or isinstance(node, _FUNCTIONS)
        elif in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _package_modules(node):
                yield scope, module
        todo.extend((child, scope, in_function) for child in ast.iter_child_nodes(node))


# every import of a package module made in a function, with its reason
_IMPORTS_IN_FUNCTIONS = {
    ("cli.py", "_cmd_verify", "verify"): "start-up time: only `efflam verify` loads the suites",
    ("syntax.py", "Fun.__str__", "surface"): "a cycle: the printer's module imports syntax",
    ("syntax.py", "Comp.__str__", "surface"): "a cycle: the printer's module imports syntax",
}


def test_every_import_in_a_function_is_listed_with_its_reason():
    assert SOURCES
    found = {
        (path.name, function, module)
        for path in SOURCES
        for function, module in _imports_in_functions(path.read_text())
    }
    assert found == set(_IMPORTS_IN_FUNCTIONS)


def test_the_import_scan_sees_imports_in_functions_and_methods():
    source = """
from .top import name
import efflam.header


class C:
    from .in_class import name

    def method(self):
        from .x import y
        import os


def outer():
    def inner():
        from efflam.z import w
        import efflam.u
    from . import v
    from importlib import resources
"""
    assert set(_imports_in_functions(source)) == {
        ("C.method", "x"),
        ("outer.inner", "z"),
        ("outer.inner", "u"),
        ("outer", "v"),
    }


def _defined_in(fn):
    """The functions defined directly in `fn`'s body, not in a nested
    function, lambda or class."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, _FUNCTIONS):
            yield node
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _self_reaching(source):
    """(outer, inner) for each function `inner` defined inside `outer`
    that refers to itself, directly or through a sibling nested function.
    Such a function holds itself through its closure cell: a reference
    cycle, left on every call for the cyclic collector."""
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        nested = {fn.name: fn for fn in _defined_in(outer)}
        refers = {
            name: {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and node.id in nested
            }
            for name, fn in nested.items()
        }
        for name in nested:
            reached, todo = set(), [name]
            while todo:
                new = refers[todo.pop()] - reached
                reached |= new
                todo.extend(new)
            if name in reached:
                yield outer.name, name


def test_no_nested_function_reaches_itself():
    assert SOURCES
    found = {
        f"{path.name}: {outer}.{inner}"
        for path in SOURCES
        for outer, inner in _self_reaching(path.read_text())
    }
    # a recursive walker is a module-level function taking its state as arguments
    assert found == set()


def test_the_cycle_check_sees_direct_and_mutual_recursion():
    source = """
def walk(t):
    def go(t):
        return go(t)
    def even(n):
        return n == 0 or odd(n - 1)
    def odd(n):
        return n != 0 and even(n - 1)
    def leaf():
        return even(2)
    return go(t), leaf()
"""
    assert set(_self_reaching(source)) == {("walk", "go"), ("walk", "even"), ("walk", "odd")}


def _private_definitions(tree):
    """(name, statement) for each module-level function, class or
    assignment target of `tree` named with a single leading underscore."""
    for stmt in tree.body:
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [
                node.id
                for target in targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _referenced(node):
    """Every name `node` refers to in code: names, attributes and
    imported names, not the words of its comments or strings."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced(sources):
    """(module, name) for each private module-level name of the modules
    in `sources` (a dict from module name to source) that no top-level
    statement refers to but the ones defining it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    uses = {stmt: set(_referenced(stmt)) for tree in trees.values() for stmt in tree.body}
    defined = [
        (module, name, stmt)
        for module, tree in trees.items()
        for name, stmt in _private_definitions(tree)
    ]
    defining: dict[str, set[ast.stmt]] = {}
    for _, name, stmt in defined:
        defining.setdefault(name, set()).add(stmt)
    for module, name, _ in defined:
        if not any(name in names for stmt, names in uses.items() if stmt not in defining[name]):
            yield module, name


def test_every_private_module_level_name_is_used():
    assert SOURCES
    found = set(_unreferenced({path.name: path.read_text() for path in SOURCES}))
    assert found == set()


def test_the_unused_name_check_sees_names_referenced_only_where_they_are_defined():
    source = """
import re as _re

_USED = 1
_UNUSED = 2  # _UNUSED in a comment is no use
_counter = 0
_counter += _USED


def _recursive(n):
    \"\"\"_unused_helper in a docstring is no use either.\"\"\"
    return _recursive(n - 1) if n else _re


class _Lonely:
    instance: "_Lonely"


def public():
    return _counter, _helper()


def _helper():
    return "_unused_helper"


def _unused_helper():
    pass
"""
    assert set(_unreferenced({"a.py": source})) == {
        ("a.py", "_UNUSED"),
        ("a.py", "_recursive"),
        ("a.py", "_Lonely"),
        ("a.py", "_unused_helper"),
    }


def _error_kinds(source):
    """Each literal kind that `source` passes to `_fail(...)` or
    `TypeCheckError(...)`, however the call is laid out."""
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        kind = node.args[0]
        if name in ("_fail", "TypeCheckError") and isinstance(kind, ast.Constant):
            yield kind.value


def test_every_error_kind_raised_is_documented_and_every_documented_kind_raised():
    # `check --format records` prints the kinds, so they are an output contract
    documented = re.search(r"Kinds:([^.]*)\.", TypeCheckError.__doc__).group(1)
    raised = {kind for path in SOURCES for kind in _error_kinds(path.read_text())}
    assert raised == set(re.findall(r"\w+", documented))
    assert len(raised) == 7


def test_the_kind_scan_sees_calls_over_several_lines():
    source = """
def f(path, kind):
    _fail(
        "rowNotEmpty",
        path,
        "extraction requires an empty effect row, found {%s}",
        "op1",
    )
    _fail(kind, path, "not a literal kind")
    raise typecheck.TypeCheckError("notAComputation", (), "%s", "m")
"""
    assert list(_error_kinds(source)) == ["rowNotEmpty", "notAComputation"]


# the walkers that visit every node or type: each dispatches on the exact
# class (`cls = type(t); if cls is App: ...`), a fraction of the cost of
# a class-pattern `match`
_EXACT_DISPATCH = {
    ("typecheck.py", "subtype"),
    ("typecheck.py", "well_formed"),
    ("typecheck.py", "_synth"),
    ("typecheck.py", "_check"),
    ("typecheck.py", "_fun_to_comp"),
    ("typecheck.py", "_handler_rule"),
    ("syntax.py", "canonical_key"),
    ("syntax.py", "_free_vars"),
    ("syntax.py", "_substituting.enter"),
    ("syntax.py", "_unascribed"),
    ("surface.py", "_enter_print"),
    ("surface.py", "_leave_print"),
    ("surface.py", "_is_eta_identity"),
    ("reduce.py", "_rule_at"),
    ("reduce.py", "_blocked"),
    ("verify.py", "_draw"),
    ("verify.py", "_inhabit"),
}


def _functions_matching(source):
    """{function: whether its body holds a `match` statement}, for every
    function of `source`, named with the classes and functions around
    it; a `match` in a nested function counts for the enclosing ones too."""
    found = {}
    todo = [(node, "") for node in ast.parse(source).body]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            if isinstance(node, _FUNCTIONS):
                found[scope] = any(isinstance(sub, ast.Match) for sub in ast.walk(node))
        todo.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_the_hot_walkers_dispatch_on_the_exact_class():
    functions = {
        (path.name, name): matching
        for path in SOURCES
        for name, matching in _functions_matching(path.read_text()).items()
    }
    assert _EXACT_DISPATCH <= set(functions)
    assert sorted(key for key in _EXACT_DISPATCH if functions[key]) == []


def test_the_match_scan_sees_match_statements_in_functions_and_methods():
    source = """
class C:
    def method(self, t):
        match t:
            case int():
                return 1

    def plain(self, t):
        return type(t) is int


def outer(t):
    def inner(t):
        if True:
            match t:
                case _:
                    pass
    return inner


def dispatch(t):
    cls = type(t)
    return "match" if cls is int else None
"""
    assert _functions_matching(source) == {
        "C.method": True,
        "C.plain": False,
        "outer": True,
        "outer.inner": True,
        "dispatch": False,
    }


def _cache_writes(source):
    """The attribute names written through `_cache(node, "name", value)`."""
    return {
        node.args[1].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_cache"
        and isinstance(node.args[1], ast.Constant)
    }


def _slots(node):
    """The names in the `__slots__` of class `node`, in declaration order."""
    return [
        name.value
        for statement in node.body
        if isinstance(statement, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in statement.targets)
        for name in ast.walk(statement.value)
        if isinstance(name, ast.Constant)
    ]


def _declared_caches(source):
    """The private names, not dunders, in each class's `__slots__`, in
    declaration order, as `syntax` declares the per-node caches; a name
    declared twice is listed twice."""
    return [
        name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for name in _slots(node)
        if name.startswith("_") and not name.startswith("__")
    ]


def _fields_in_slots(source):
    """(class, field) for each annotated field of a class that the
    class's own `__slots__` names too."""
    return [
        (node.name, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for name in _slots(node)
        if any(
            isinstance(statement, ast.AnnAssign) and ast.unparse(statement.target) == name
            for statement in node.body
        )
    ]


def test_every_per_node_cache_is_declared_once_and_written():
    # a name written but not declared would raise on a frozen node's
    # first write; one declared but never written is dead
    written = set().union(*(_cache_writes(path.read_text()) for path in SOURCES))
    syntax = next(path for path in SOURCES if path.name == "syntax.py")
    declared = _declared_caches(syntax.read_text())
    assert len(declared) == len(set(declared))
    assert written == set(declared) == {"_fv", "_nredex", "_typed"}


def test_the_cache_scans_see_writes_and_declarations():
    source = """
class A:
    __slots__ = ("__weakref__", "_a")


class B(A):
    __slots__ = ("other", "_b", "_a")
    _c = None


def f(t):
    _cache(t, "_a", 1)
    if t:
        _cache(t.kid, "_c", [t])
    object.__setattr__(t, "_d", 2)
"""
    assert _cache_writes(source) == {"_a", "_c"}
    assert _declared_caches(source) == ["_a", "_b", "_a"]


def test_every_field_is_declared_once():
    # `record` makes a class's annotated fields its slots, so a field
    # named in a hand-written `__slots__` too is spelt twice
    assert [found for path in SOURCES for found in _fields_in_slots(path.read_text())] == []


def test_the_field_scan_sees_a_field_in_slots():
    source = """
class A:
    __slots__ = ("x", "_cache")
    x: int
    y: str


class B(A):
    __slots__ = "y"
    y: str
    z = 1


class C:
    __slots__ = ("__weakref__",)
    w: int
"""
    assert _fields_in_slots(source) == [("A", "x"), ("B", "y")]


def _weak_slots_and_bare_news(source):
    """("__weakref__", class) for each class whose `__slots__` names
    `__weakref__`, and ("object.__new__", scope) for each call of
    `object.__new__`, with `scope` the classes and functions around it,
    named as `_functions_matching` names them ("" at module level)."""
    found = []
    todo = [(node, "") for node in ast.parse(source).body]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ClassDef) and "__weakref__" in _slots(node):
            found.append(("__weakref__", scope))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__new__":
            found.append(("object.__new__", scope))
        todo.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_no_record_takes_a_weak_reference_slot_or_skips_its_constructor():
    # nothing takes a weak reference to a record, so the slot would cost
    # every term node 8 B for nothing; and a record made without its
    # constructor skips its checks, but for a type, whose constructor
    # returns the one object `_intern` made for its fields
    found = [
        (path.name, *item)
        for path in SOURCES
        for item in _weak_slots_and_bare_news(path.read_text())
    ]
    assert [item for item in found if item != ("syntax.py", "object.__new__", "_intern")] == []


def test_the_layout_scan_sees_weak_slots_and_bare_news():
    source = """
class A:
    __slots__ = ("__weakref__", "_a")


class B(A):
    __slots__ = "x"

    def make(cls):
        return object.__new__(cls)


def _intern(cls):
    def inner():
        return object.__new__(cls)

    return inner(), object.__new__(cls), object.__setattr__(cls, "x", 1)


b = object.__new__(B)
"""
    assert sorted(_weak_slots_and_bare_news(source)) == [
        ("__weakref__", "A"),
        ("object.__new__", ""),
        ("object.__new__", "B.make"),
        ("object.__new__", "_intern"),
        ("object.__new__", "_intern.inner"),
    ]
