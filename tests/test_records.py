"""Records against `dataclasses` twins: equality, hash, repr, frozenness,
construction, and the checks each record runs when it is built."""

import ast
import os
import pathlib
import random
import re
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields

import pytest

import logfan.cli  # noqa: F401  (defines Task, Document and Report)
from logfan._record import Record
from logfan.conecomplex import (ComplexMorphism, Cone, FaceMap,
                                GeneralizedConeComplex, from_toric_fan,
                                point_complex)
from logfan.lattice import FgAbelianGroup, IntMatrix
from logfan.logmodel import GradedEntry, HodgeTable, LogModel, marked_p1, mixed_affine
from logfan.monoid import FineMonoid, MonoidHom
from logfan.orbifold import DiagonalAction

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RECORDS = {
    "BDescription", "CheckResult", "ComplexMorphism", "Cone", "ConeGeometry",
    "CyclicTable", "DiagonalAction", "DiagonalSubdivision", "Document",
    "FaceMap", "FgAbelianGroup", "FineMonoid", "GeneralizedConeComplex",
    "GradedEntry", "HHTable", "HodgeTable", "ImageConeFlag", "IntMatrix",
    "LogDiagonalPicture", "LogModel", "MonoidHom", "PushoutData", "Report",
    "SaturationReport", "SmithDecomposition", "Subdivision", "Task",
    "TwistedSector",
}
# Classes whose construction checks its fields; the others take any values.
CHECKED = {"ComplexMorphism", "DiagonalAction", "FgAbelianGroup",
           "GeneralizedConeComplex", "IntMatrix", "LogModel", "MonoidHom"}


CLASSES = sorted(Record.__subclasses__(), key=lambda c: c.__name__)


def twin(cls):
    """The frozen dataclass the record replaces: same fields and defaults."""
    names = cls.__dict__["__annotations__"]
    ns = {"__annotations__": dict(names), "__module__": cls.__module__,
          "__qualname__": cls.__qualname__}
    ns.update({n: cls.__dict__[n] for n in names if n in cls.__dict__})
    return dataclass(frozen=True)(type(cls.__name__, (), ns))


def seeded_value(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice(["", "a", "P^1", "x'y"])
    if kind == 2:
        return tuple(rng.randint(-2, 2) for _ in range(rng.randrange(4)))
    if kind == 3:
        return None
    return (rng.randint(0, 2), (rng.randint(0, 2),))


def filled(cls, values):
    """An instance holding `values`, built without running any constructor."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dict__["__annotations__"], values):
        object.__setattr__(obj, name, value)
    return obj


def test_every_record_class_is_covered():
    assert {c.__name__ for c in CLASSES} == RECORDS


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_matches_dataclass_twin(cls):
    T = twin(cls)
    rng = random.Random(cls.__name__)
    n = len(cls.__dict__["__annotations__"])
    # another record class with the same fields
    look_alike = type(cls.__name__, (Record,), {"__annotations__": cls.__annotations__})
    for _ in range(30):
        values = [seeded_value(rng) for _ in range(n)]
        other = list(values)
        if rng.random() < 0.5:
            i = rng.randrange(n)
            other[i] = seeded_value(rng)
        a, b = filled(cls, values), filled(cls, other)
        ta, tb = filled(T, values), filled(T, other)
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert a == filled(cls, list(values)) and not a != filled(cls, list(values))
        assert repr(a) == repr(ta)
        # only objects of one class compare equal
        assert a != ta and not a == ta
        assert a.__eq__(ta) is NotImplemented
        assert a != filled(look_alike, values) and not a == filled(look_alike, values)
        assert hash(a) == hash(ta)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozenness_matches_dataclass_twin(cls):
    T = twin(cls)
    names = list(cls.__dict__["__annotations__"])
    values = list(range(len(names)))
    a, ta = filled(cls, values), filled(T, values)
    assert hasattr(a, "__dict__")   # room for cached properties
    for name in (names[0], names[-1], "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(ta, name, "new")
        with pytest.raises(AttributeError):
            setattr(a, name, "new")
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    assert a == filled(cls, values)


@pytest.mark.parametrize("cls", [c for c in CLASSES if c.__name__ not in CHECKED],
                         ids=lambda c: c.__name__)
def test_construction_matches_dataclass_twin(cls):
    T = twin(cls)
    names = list(cls.__dict__["__annotations__"])
    required = [f.name for f in fields(T)
                if f.default is MISSING and f.default_factory is MISSING]
    rng = random.Random(cls.__name__)
    values = [seeded_value(rng) for _ in names]
    assert repr(cls(*values)) == repr(T(*values))
    assert repr(cls(**dict(zip(names, values)))) == repr(T(**dict(zip(names, values))))
    short = {n: v for n, v in zip(names, values) if n in required}
    assert repr(cls(**short)) == repr(T(**short))
    for bad_args, bad_kwargs in ((values[:len(required) - 1], {}),
                                 (values + [0], {}),
                                 (values, {"no_such_field": 0}),
                                 (values[:1], {names[0]: values[0]})):
        with pytest.raises(TypeError):
            T(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


def _affine_marked_p1():
    """marked P^1 with a series table, so an affine model, and h^1(O) = 1."""
    X = marked_p1(0)
    table = HodgeTable.build(1, {(0, 0): GradedEntry.series([1]),
                                 (1, 1): GradedEntry.series([1])})
    return LogModel(X.name, X.artin_fan, table, None, X.kind)


def _a1_morphism(zero_cone_matrix, ray_matrix):
    """A^1 to itself, each cone to itself by the given matrix."""
    A1 = from_toric_fan([(1,)], [(0,)], 1)
    return ComplexMorphism(A1, A1, ((0, zero_cone_matrix), (1, ray_matrix)))


N1 = FineMonoid.free(1)
Z2 = FineMonoid.make(FgAbelianGroup(0, (2,)), [(1,)])
A = mixed_affine(1, (0,))

CHECKS = [
    (lambda: IntMatrix(-1, 0, ()), "negative matrix dimensions"),
    (lambda: IntMatrix(2, 2, (1,)), "entry count does not match"),
    (lambda: FgAbelianGroup(-1), "negative free rank"),
    (lambda: FgAbelianGroup(0, (1,)), "torsion orders must be >= 2"),
    (lambda: FgAbelianGroup(0, (2, 3)), "divisibility chain"),
    (lambda: MonoidHom(N1, N1, IntMatrix.from_rows([[1, 0]])), "wrong shape"),
    (lambda: MonoidHom(Z2, N1, IntMatrix.from_rows([[1]])), "map of ambient groups"),
    (lambda: MonoidHom(N1, N1, IntMatrix.from_rows([[-1]])), "does not map into"),
    (lambda: GeneralizedConeComplex((Cone.zero(0),), (FaceMap(0, 1, IntMatrix.identity(0)),)),
     "endpoints out of range"),
    (lambda: ComplexMorphism(point_complex(), point_complex(), ()), "cover every source cone"),
    (lambda: ComplexMorphism(point_complex(), point_complex(), ((0, IntMatrix.zero(1, 1)),)),
     "shape mismatch"),
    (lambda: _a1_morphism(IntMatrix.identity(1), IntMatrix.from_rows([[-1]])),
     "does not land inside"),
    (lambda: _a1_morphism(IntMatrix.zero(1, 1), IntMatrix.identity(1)), "does not commute"),
    (lambda: DiagonalAction(A, (1,), ((0,),)), "orders must be >= 2"),
    (lambda: DiagonalAction(A, (2,), ()), "one character row"),
    (lambda: DiagonalAction(A, (2,), ((0, 0),)), "row length"),
    (lambda: DiagonalAction(A, (2,), ((1,),), (0, 0)), "must permute"),
    (lambda: _affine_marked_p1(), "no higher cohomology"),
]


@pytest.mark.parametrize("build, message", CHECKS, ids=[m for _, m in CHECKS])
def test_construction_checks_still_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """`import logfan.cli` adds neither module, nor the rational and decimal
    number modules, to what a bare interpreter loads, and nothing in src/
    compiles code at run time."""
    probe = ("import sys; print(*sorted({'dataclasses', 'inspect', 'fractions', 'decimal', "
             "'numbers'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return set(out.split())

    assert loaded("import logfan.cli; " + probe) <= loaded(probe)
    for path in SRC.rglob("*.py"):
        assert not re.search(r"\b(exec|eval)\(", path.read_text()), path


def test_no_assert_statements_in_src():
    """`python -O` strips `assert`, so an invariant in src/ is a raised error."""
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_exact_layers_compute_in_integers_only():
    """The mathematical layers use no true division, no float literal and
    neither `fractions` nor `decimal`: every answer is an exact integer.
    `cli` and `suite` are left out, so timings may be taken in floats."""
    found = []
    for name in ("lattice", "_geometry", "monoid", "conecomplex", "logmodel", "hkr",
                 "orbifold"):
        path = SRC / "logfan" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name.split(".")[0] for a in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            if (isinstance(getattr(node, "op", None), ast.Div)
                    or isinstance(node, ast.Constant) and isinstance(node.value, float)
                    or {"fractions", "decimal"} & set(modules)):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, found


def test_no_finalizers_or_weakrefs_in_src():
    """The CLI freezes what is left at exit, so the final collection skips
    it: the `__del__` of an object in a cycle, or a weakref callback on it,
    would no longer run then.  src/ has neither."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
                names |= {t.id for n in node.body if isinstance(n, ast.Assign)
                          for t in n.targets if isinstance(t, ast.Name)}
                bad = "__del__" in names
            elif isinstance(node, ast.Import):
                bad = any(a.name.split(".")[0] == "weakref" for a in node.names)
            else:
                bad = isinstance(node, ast.ImportFrom) and node.module == "weakref"
            if bad:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, found


# Parameters that a shared signature makes a function take without reading:
# the `resolve` of the object builders `cli.parse` dispatches to, and the
# value `__setattr__` passes to `Record._refuse`.
UNREAD_PARAMETERS = {
    ("logfan/cli.py", "_build_complex", "resolve"),
    ("logfan/cli.py", "_build_matrix", "resolve"),
    ("logfan/cli.py", "_build_monoid", "resolve"),
    ("logfan/_record.py", "_refuse", "value"),
}


def test_every_parameter_in_src_is_read():
    """A parameter that its function's body never reads is a value passed for
    nothing.  A method's `self` or `cls` is not counted."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                      if p is not None} - {"self", "cls"}
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found |= {(path.relative_to(SRC).as_posix(), getattr(node, "name", "<lambda>"), p)
                      for p in params - read}
    assert found == UNREAD_PARAMETERS
