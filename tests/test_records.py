"""The record builder (`syntax.record`): each class it builds behaves as
the frozen dataclass it replaces and holds its fields in slots, each
dataclass of the package has a docstring, and a fresh process imports
the package with few blocks of generated source and without `json`."""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import efflam
from efflam import cli, fragment, reduce, surface, syntax, typecheck, verify
from efflam.fragment import Branch, GoldenEntry, Word
from efflam.reduce import (
    FuelExhausted,
    NormalForm,
    ReductionGraph,
    ReductionTrace,
    Rule,
    Step,
    Stuck,
)
from efflam.syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Const,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    Record,
    Signature,
    Var,
)

SOURCES = sorted(Path(efflam.__file__).parent.glob("*.py"))
MODULES = (syntax, surface, typecheck, reduce, fragment, verify, cli)

_E, _T = Atom("e"), Atom("t")
_ROW = Signature((("ask", _E, _T), ("say", _T, _E)))
_ID = Abs("x", Eta(Var("x")))
_CALL = Op("ask", Const("c"), "y", Eta(Var("y")))

# two or more instances of each class the builder makes, some equal but
# not identical, some sharing a field
SAMPLES = {
    Var: [Var("x"), Var("x"), Var("y")],
    Const: [Const("c"), Const("*")],
    Abs: [_ID, Abs("x", Eta(Var("x"))), Abs("z", Var("z"))],
    App: [App(Var("f"), Const("c")), App(Var("f"), Var("x")), App(_ID, _CALL)],
    Eta: [Eta(Var("x")), Eta(Const("c"))],
    Op: [_CALL, Op("ask", Const("c"), "y", Eta(Var("y"))), Op("say", Var("x"), "y", _CALL)],
    Handler: [
        Handler((("ask", Abs("p", Abs("k", App(Var("k"), Var("p"))))),), _ID, _CALL),
        Handler((), _ID, Eta(Const("c"))),
        Handler((), _ID, Eta(Const("c"))),
    ],
    Cherry: [Cherry(Eta(Const("c"))), Cherry(_CALL)],
    Exchange: [Exchange(_ID), Exchange(Abs("x", _CALL))],
    Ann: [Ann(Var("x"), _E), Ann(_CALL, Comp(_ROW, _T))],
    Atom: [_E, _T, Atom("e")],
    Fun: [Fun(_E, _T), Fun(_T, _E), Fun(_E, Comp(_ROW, _T))],
    Signature: [_ROW, Signature(), Signature((("ask", _E, _T),))],
    Comp: [Comp(_ROW, _T), Comp(Signature(), _E)],
    Step: [Step(Rule.beta, (0, 1), _CALL), Step(Rule.cOp, (), Var("x")), Step(Rule.beta, (0, 1), _CALL)],
    NormalForm: [NormalForm(), NormalForm()],
    Stuck: [Stuck((0,), "blocked"), Stuck((), "blocked")],
    FuelExhausted: [FuelExhausted(), FuelExhausted()],
    ReductionTrace: [
        ReductionTrace(App(_ID, _CALL), [Step(Rule.beta, (), _CALL)], NormalForm(), _CALL, 1),
        ReductionTrace(_CALL, [], NormalForm(), _CALL, 0),
        ReductionTrace(_CALL, [], FuelExhausted(), _CALL, 0),
        ReductionTrace(_CALL, [], NormalForm(), _CALL, 0),
    ],
    ReductionGraph: [
        ReductionGraph(
            App(_ID, _CALL),
            {"a": App(_ID, _CALL), "b": _CALL},
            [("a", Rule.beta, (), "b")],
            [_CALL],
            True,
        ),
        ReductionGraph(_CALL, {"b": _CALL}, [], [_CALL], True),
        ReductionGraph(_CALL, {"b": _CALL}, [], [_CALL], False),
        ReductionGraph(_CALL, {"b": _CALL}, [], [_CALL], True),
    ],
    Word: [Word("john"), Word("mary"), Word("john")],
    Branch: [Branch(Word("loves"), Word("mary")), Branch(Branch(Word("a"), Word("b")), Word("c"))],
    GoldenEntry: [
        GoldenEntry(1, "John loves Mary.", "", Word("john"), "j"),
        GoldenEntry(2, "I am here.", "with_speaker", Branch(Word("a"), Word("b")), "eta s"),
    ],
}

# the classes whose equality is identity: one object per type
_INTERNED = {Atom, Fun, Signature, Comp}

# the classes with a list or dict field, which neither they nor their
# twins can hash
_UNHASHABLE = {ReductionTrace, ReductionGraph}


def _built_records():
    """Every class of the package that the builder has made."""
    return {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and dataclasses.is_dataclass(obj)
    }


def test_the_builder_makes_every_frozen_class_of_the_package():
    assert _built_records() == set(SAMPLES)
    # and no class of the package is left a stock frozen dataclass
    stock_frozen = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__dataclass_params__.frozen
    }
    assert stock_frozen == set()


def _twin_class(cls):
    """The stock frozen dataclass with the fields of `cls`, equal by
    identity where `cls` is a type."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True,
        eq=cls not in _INTERNED,
    )


def _twin(cls, twin_cls, x):
    return twin_cls(*(getattr(x, f.name) for f in dataclasses.fields(cls)))


def _destructured(x):
    """The values that a class pattern with one positional sub-pattern
    per field captures from `x`."""
    C = type(x)
    n = len(C.__match_args__)
    match x:
        case C() if n == 0:
            return ()
        case C(a) if n == 1:
            return (a,)
        case C(a, b) if n == 2:
            return (a, b)
        case C(a, b, c) if n == 3:
            return (a, b, c)
        case C(a, b, c, d) if n == 4:
            return (a, b, c, d)
        case C(a, b, c, d, e) if n == 5:
            return (a, b, c, d, e)
    raise AssertionError(f"no pattern matched {x!r}")


def _raised(action):
    """The type and text of the error `action` raises."""
    try:
        action()
    except Exception as error:  # the error is the result
        return type(error), str(error)
    raise AssertionError("no error raised")


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_stock_dataclass_twin(cls):
    twin_cls = _twin_class(cls)
    samples = SAMPLES[cls]
    twins = {id(x): _twin(cls, twin_cls, x) for x in samples}
    names = [f.name for f in dataclasses.fields(cls)]
    for x in samples:
        tx = twins[id(x)]
        assert type(x) is cls
        assert repr(x) == repr(tx)
        assert x == x and tx == tx
        if cls in _INTERNED:
            assert type(x).__hash__ is object.__hash__ is type(tx).__hash__
        elif cls in _UNHASHABLE:
            assert _raised(lambda: hash(x)) == _raised(lambda: hash(tx))
        else:
            assert hash(x) == hash(tx)
        for y in samples:
            assert (x == y) is (tx == twins[id(y)])
            assert (x != y) is (tx != twins[id(y)])
        # the books that `fields`, `replace` and patterns read
        assert [
            (f.name, f.type, f.init, f.repr, f.compare, f.hash, f.kw_only)
            for f in dataclasses.fields(x)
        ] == [
            (f.name, f.type, f.init, f.repr, f.compare, f.hash, f.kw_only)
            for f in dataclasses.fields(tx)
        ]
        assert cls.__match_args__ == twin_cls.__match_args__ == tuple(names)
        assert _destructured(x) == tuple(getattr(x, name) for name in names)
        assert repr(dataclasses.replace(x)) == repr(dataclasses.replace(tx)) == repr(x)
        for y in samples:
            for name in names:
                change = {name: getattr(y, name)}
                assert repr(dataclasses.replace(x, **change)) == repr(
                    dataclasses.replace(tx, **change)
                )
        # frozen, for fields, caches and any other name
        for name in [*names, "_fv", "_typed", "other"]:
            assert _raised(lambda: setattr(x, name, None)) == _raised(
                lambda: setattr(tx, name, None)
            )
            assert _raised(lambda: delattr(x, name)) == _raised(lambda: delattr(tx, name))
        assert _raised(lambda: setattr(x, "_fv", None))[0] is dataclasses.FrozenInstanceError
        # copies, deep copies and pickles
        for how in (copy.copy, copy.deepcopy):
            got, twin_got = how(x), how(tx)
            assert type(got) is cls and repr(got) == repr(twin_got) == repr(x)
            # a type's copy is the type itself, a stock twin's an object
            # equal only to itself
            assert got == x and (twin_got == tx) == (cls not in _INTERNED)
            assert (got is x) == (cls in _INTERNED)
        got = pickle.loads(pickle.dumps(x))
        assert type(got) is cls and got == x and repr(got) == repr(x)
        assert (got is x) == (cls in _INTERNED)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_a_record_holds_its_fields_in_slots_of_its_own(cls):
    assert cls.__dict__["__slots__"] == tuple(f.name for f in dataclasses.fields(cls))
    for x in SAMPLES[cls]:
        assert not hasattr(x, "__dict__")


def test_a_record_has_the_signature_of_its_stock_twin():
    for cls in SAMPLES:
        if cls not in _INTERNED:
            twin = inspect.signature(_twin_class(cls))
            assert list(inspect.signature(cls).parameters) == list(twin.parameters)
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__repr__.__qualname__ == f"{cls.__qualname__}.__repr__"
        assert cls.__repr__.__module__ == cls.__module__


def _dataclass_definitions(source):
    """(class name, docstring or None) for each class of `source`
    decorated with `dataclass` or `record`, called or not."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names = {
                (d.func if isinstance(d, ast.Call) else d).id
                for d in node.decorator_list
                if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name)
            }
            if names & {"dataclass", "record"}:
                yield node.name, ast.get_docstring(node)


def test_every_dataclass_of_the_package_has_its_own_docstring():
    # without one, `dataclass` writes one from `inspect.signature`, which
    # costs start-up time
    found = dict(
        definition for path in SOURCES for definition in _dataclass_definitions(path.read_text())
    )
    mutable = {"Context", "DeclFile", "SuiteReport"}
    assert {cls.__name__ for cls in SAMPLES} | mutable <= set(found)
    assert [name for name, doc in found.items() if not doc] == []


def test_the_docstring_scan_sees_both_decorators():
    source = '''
@dataclass
class A:
    x: int

@dataclass(frozen=True)
class B:
    """B."""

@record
class C(Record):
    y: int

class D:
    pass
'''
    assert list(_dataclass_definitions(source)) == [("A", None), ("B", "B."), ("C", None)]


def _run_fresh(code: str) -> str:
    """The output of `code` run by a fresh interpreter that imports
    efflam from this checkout."""
    src = str(Path(efflam.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _stdlib_imports():
    """The standard-library modules the package imports at module level."""
    found = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                found.add(node.module)
    return sorted(found)


# the generated-source blocks a fresh `import efflam.cli, efflam.verify`
# may run: one per record class, and those of the three mutable dataclasses
# and the `NamedTuple` it leaves stock; a frozen dataclass ran five or six
_MOST_BLOCKS = 40


def test_a_fresh_import_runs_few_blocks_of_generated_source_and_no_json():
    modules = _stdlib_imports()
    assert "json" not in modules and "dataclasses" in modules
    out = _run_fresh(
        f"""
import importlib, sys
for name in {modules!r}:
    importlib.import_module(name)
blocks = 0
def count(event, args):
    global blocks
    if event == "exec" and args[0].co_filename == "<string>":
        blocks += 1
sys.addaudithook(count)
import efflam.cli
print("json" in sys.modules)
import efflam.verify
print(blocks)
"""
    )
    json_loaded, blocks = out.split()
    assert json_loaded == "False"
    assert len(_built_records()) < int(blocks) <= _MOST_BLOCKS


def test_a_reimported_package_leaves_its_old_classes_to_the_collector():
    # `typing.Union`'s cache held every generation's term and type
    # classes, and through them their modules
    out = _run_fresh(
        """
import gc, sys, weakref
import efflam.cli, efflam.verify
from efflam import syntax
old = [weakref.ref(c) for c in (syntax.Var, syntax.App, syntax.Fun, syntax.Context)]
del syntax
for name in [m for m in sys.modules if m == "efflam" or m.startswith("efflam.")]:
    del sys.modules[name]
import efflam.cli, efflam.verify
gc.collect()
print(sum(ref() is not None for ref in old))
"""
    )
    assert out.split() == ["0"]
