"""Command-line front end: declarative JSON documents in, tables out.

A document names objects (matrices, monoids, homs, complexes, models,
actions) and lists tasks that apply library operations to them.  Results
come back as aligned text, canonical JSON (byte-stable and round-trippable)
or DOT face-poset graphs.  Failures never crash the process: each task
carries its own structured diagnostic and the exit status reports the batch.

See docs/format.md for the input schema, or run `logfan check <file>` to
validate a document without executing it.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import math
import os
import sys
from itertools import chain

from . import conecomplex as cc
from . import hkr
from . import lattice
from . import logmodel as lm
from . import monoid as mn
from . import orbifold as ob
from ._record import Record
from .errors import (FormatUnavailable, KindMismatch, LogfanError, ParseError,
                     ScopeExceeded, UnknownOperation, UnresolvedReference)
from .lattice import FgAbelianGroup, IntMatrix
from .monoid import MAX_DIMENSION
from .suite import run_paper_suite

VERSION_TAG = "logfan/1"
# At exit, move what is left into the permanent generation, which the final
# collection skips.  `main` registers it once: atexit keeps unregistered slots.
_freeze_at_exit = functools.cache(functools.partial(atexit.register, gc.freeze))


class Task(Record):
    index: int
    op: str
    args: dict
    label: str | None


class Document(Record):
    objects: dict
    tasks: list[Task]


class Report(Record):
    results: list[dict]
    attachments: list   # (label, complex) pairs

    @property
    def exit_status(self) -> int:
        return 0 if all(r["status"] == "ok" for r in self.results) else 1


# ------------------------------------------------------------- object parsing
#
# Every value in a document is read by `_field` and one of the readers after
# it.  A reader checks a JSON value and returns it as a Python value; its
# messages name the field, and `_named` puts the object or task in front.

MAX_MARKED_POINTS = 64    # `n` of marked_p1
MAX_TRUNCATION = 15       # series order of a document, `--truncation`
MAX_FACE_MAPS = 10_000    # face maps of a literal complex

_REQUIRED = object()


def _field(spec, key, read=None, default=_REQUIRED, **bounds):
    """spec[key] through `read`; an absent field is `default`, or an error."""
    if not isinstance(spec, dict):
        raise ParseError(f"expected a JSON object, got {spec!r}")
    if key not in spec:
        if default is _REQUIRED:
            raise ParseError(f"missing field {key!r}")
        return default
    return spec[key] if read is None else read(spec[key], key, **bounds)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


_INT = frozenset((int,))


def _nat(val, key, below=None, limit=None) -> int:
    """An integer >= 0: an index below `below`, or a size of at most `limit`."""
    if below is not None:
        if not _is_int(val) or not 0 <= val < below:
            raise ParseError(f"{key!r} index {val!r} must be an integer in [0, {below})")
    elif not _is_int(val) or val < 0:
        raise ParseError(f"{key!r} must be an integer >= 0, got {val!r}")
    if limit is not None and val > limit:
        raise ScopeExceeded(f"{key!r} is {val}, above the desk-scale bound {limit}")
    return val


def _list(val, key, limit=None) -> list:
    """A list, of at most `limit` items when given."""
    if not isinstance(val, list):
        raise ParseError(f"{key!r} must be a list")
    if limit is not None and len(val) > limit:
        raise ScopeExceeded(f"{key!r} has {len(val)} entries, above the desk-scale bound {limit}")
    return val


def _vector(val, key, length=None, below=None) -> tuple[int, ...]:
    """A list of integers, or of indices below `below`; of `length` items when given."""
    if length not in (None, len(_list(val, key))):
        raise ParseError(f"{key!r} must hold vectors of length {length}")
    if below is not None:
        return tuple(_nat(x, key, below) for x in val)
    # one C-level pass over the entries' types
    if not _INT.issuperset(map(type, val)):
        raise ParseError(f"{key!r} must hold integers")
    return tuple(val)


def _vectors(val, key, length=None, below=None) -> tuple[tuple[int, ...], ...]:
    return tuple(_vector(v, key, length, below) for v in _list(val, key))


def _matrix(val, key) -> IntMatrix:
    rows = _vectors(val, key)
    if len(set(map(len, rows))) > 1:
        raise ParseError(f"{key!r} rows must have equal lengths")
    # the rows hold checked ints already, so `from_rows` would only copy them
    return IntMatrix(len(rows), len(rows[0]) if rows else 0, tuple(chain.from_iterable(rows)))


def _flag(val, key) -> bool:
    if not isinstance(val, bool):
        raise ParseError(f"{key!r} must be true or false, got {val!r}")
    return val


def _text(val, key) -> str:
    if not isinstance(val, str):
        raise ParseError(f"{key!r} must be a string, got {val!r}")
    return val


def _object(val, key) -> dict:
    if not isinstance(val, dict):
        raise ParseError(f"{key!r} must be an object")
    return val


def _named(where, build, *args):
    """build(*args), with every error naming `where`, the object or task;
    a library constructor's ValueError becomes a ParseError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    except LogfanError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _build_matrix(spec, resolve) -> IntMatrix:
    return _field(spec, "entries", _matrix)


def _build_monoid(spec, resolve) -> mn.FineMonoid:
    free = _field(spec, "free_rank", _nat, 0)
    torsion = _field(spec, "torsion", _vector, ())
    gens = _field(spec, "generators", _vectors, length=free + len(torsion))
    return mn.FineMonoid.make(FgAbelianGroup(free, torsion), gens)


def _build_hom(spec, resolve) -> mn.MonoidHom:
    return mn.MonoidHom(resolve(_field(spec, "source"), "monoid"),
                        resolve(_field(spec, "target"), "monoid"),
                        _field(spec, "matrix", _matrix))


def _toric_fields(spec):
    """Rays, maximal cones and rank of a toric fan."""
    rank = _field(spec, "rank", _nat, limit=MAX_DIMENSION)
    rays = _field(spec, "rays", _vectors, length=rank)
    return rays, _field(spec, "maximal_cones", _vectors, below=len(rays)), rank


def _build_complex(spec, resolve) -> cc.GeneralizedConeComplex:
    builtin = _field(spec, "builtin", _text, None)
    if builtin == "snc":
        return cc.snc_artin_fan(_field(spec, "simplices", _vectors))
    if builtin == "nodal_cubic":
        return cc.nodal_cubic_complex()
    if builtin == "point":
        return cc.point_complex()
    if builtin == "toric_fan":
        return cc.from_toric_fan(*_toric_fields(spec))
    if builtin is not None:
        raise ParseError(f"unknown complex builtin {builtin!r}")
    raw_cones = _field(spec, "cones", _list, limit=cc.MAX_CONES)
    raw_maps = _field(spec, "face_maps", _list, limit=MAX_FACE_MAPS)
    cones = []
    for c in raw_cones:
        # twice the model bound: a product of two models still reads back
        rank = _field(c, "rank", _nat, limit=2 * MAX_DIMENSION)
        cones.append(cc.Cone.make(_field(c, "rays", _vectors, (), length=rank), rank))

    identities = [IntMatrix.identity(c.lattice_rank) for c in cones]

    def face_map(m):
        """The map's (source, target, matrix), the key `validate` counts; a map
        with no matrix is the identity of its target's rank."""
        source = _field(m, "source", _nat, below=len(cones))
        target = _field(m, "target", _nat, below=len(cones))
        return source, target, _field(m, "matrix", _matrix, identities[target])

    # each map is read once and counted as it is read, so no map past the
    # bound is read
    keys = []
    cc.check_composable_pairs(keys.append(key) or key for key in map(face_map, raw_maps))
    K = cc.GeneralizedConeComplex(tuple(cones), tuple(cc.FaceMap(*key) for key in keys))
    K.validate()
    return K


_CONSTANT_MODELS = {"point": lm.point_model, "p1": lm.p1_toric_model,
                    "p2": lm.p2_toric_model, "nodal_cubic": lm.nodal_cubic}


def _build_model(spec, resolve, truncation) -> lm.LogModel:
    builtin = _field(spec, "builtin", _text)
    if builtin == "affine_space":
        return lm.affine_space_model(_field(spec, "d", _nat, limit=MAX_DIMENSION),
                                     truncation=truncation)
    if builtin == "toric":
        rays, cones, rank = _toric_fields(spec)
        return lm.toric_model(rays, cones, rank, _field(spec, "complete", _flag),
                              name=_field(spec, "name", _text, "toric"),
                              truncation=truncation)
    if builtin == "marked_p1":
        return lm.marked_p1(_field(spec, "n", _nat, limit=MAX_MARKED_POINTS))
    if builtin == "mixed_affine":
        coords = _field(spec, "coords", _nat, limit=MAX_DIMENSION)
        return lm.mixed_affine(coords, _field(spec, "log", _vector, (), below=coords),
                               truncation=truncation)
    if builtin == "product":
        factors = _field(spec, "factors", _list)
        if len(factors) < 2:
            raise ParseError("a product needs at least two factors")
        models = [resolve(f, "model") for f in factors]
        cones = math.prod(len(X.artin_fan.cones) for X in models)
        if cones > cc.MAX_CONES:
            raise ScopeExceeded(f"the product's Artin fan would have {cones} cones, "
                                f"above the desk-scale bound {cc.MAX_CONES}")
        return functools.reduce(lm.product_model, models)
    if builtin not in _CONSTANT_MODELS:
        raise ParseError(f"unknown model builtin {builtin!r}")
    return _CONSTANT_MODELS[builtin]()


def _build_action(spec, resolve) -> ob.DiagonalAction:
    return ob.DiagonalAction(resolve(_field(spec, "model"), "model"),
                             _field(spec, "orders", _vector, ()),
                             _field(spec, "characters", _vectors, ()),
                             _field(spec, "permutation", _vector, None))


# ---------------------------------------------------------------- operations

def _json_complex(K: cc.GeneralizedConeComplex):
    # one rows list per matrix object, so `_write_json` writes a matrix that
    # many maps share once
    matrices = {id(fm.matrix): fm.matrix for fm in K.face_maps}
    rows = {key: matrix.as_rows() for key, matrix in matrices.items()}
    return {
        "cones": [{"rank": c.lattice_rank, "rays": [list(r) for r in c.rays]}
                  for c in K.cones],
        "face_maps": [{"source": fm.source, "target": fm.target,
                       "matrix": rows[id(fm.matrix)]} for fm in K.face_maps],
        "cone_count": K.cone_count,
        "ray_count": K.ray_count,
    }


def _op_smith(args):
    snf = lattice.smith_normal_form(args["matrix"])
    return {"U": snf.U.as_rows(), "D": snf.D.as_rows(),
            "V": snf.V.as_rows(), "diagonal": list(snf.diagonal())}, []


def _json_group(G: FgAbelianGroup) -> dict:
    return {"free_rank": G.free_rank, "torsion": list(G.torsion_orders)}


def _op_cokernel(args):
    return _json_group(lattice.cokernel(args["matrix"])), []


def _op_saturate_subgroup(args):
    M = args["generators"]
    basis = lattice.saturate_subgroup([M.row(i) for i in range(M.rows)], M.cols)
    return {"basis": [list(b) for b in basis]}, []


def _op_hilbert_basis(args):
    M = args["generators"]
    hb = mn.hilbert_basis([M.row(i) for i in range(M.rows)], M.cols)
    return {"basis": [list(b) for b in hb]}, []


def _saturation_json(rep: mn.SaturationReport):
    S = rep.saturated
    return {
        "ambient": _json_group(S.ambient),
        "generators": [list(g) for g in S.generators],
        "torsion_order": rep.torsion_order,
        "added_generators": [list(g) for g in rep.index_data],
    }


def _op_saturate(args):
    return _saturation_json(mn.saturate(args["monoid"])), []


def _op_is_saturated(args):
    return {"saturated": mn.is_saturated(args["monoid"])}, []


def _op_component_count(args):
    return {"count": mn.spec_component_count(args["monoid"], args["require_saturated"])}, []


def _op_fs_pushout(args):
    rep = mn.fs_pushout(args["left"], args["right"])
    data = _saturation_json(rep)
    data["component_count"] = rep.saturated.gp_torsion_order
    return data, []


def _op_product(args):
    K = cc.product(args["left"], args["right"])
    return _json_complex(K), [("product", K)]


def _json_unimodular(K: cc.GeneralizedConeComplex) -> dict:
    """Is each maximal cone unimodular, keyed by its index as a string?"""
    return {str(i): K.cones[i].is_unimodular for i in K.maximal_cone_indices()}


def _op_star_subdivision(args):
    sub = cc.star_subdivision(args["complex"], args["cone"], args["ray"])
    data = _json_complex(sub.refined)
    data["trivial"] = sub.is_trivial()
    data["unimodular"] = _json_unimodular(sub.refined)
    return data, [("refined", sub.refined)]


def _json_image_flags(res: cc.DiagonalSubdivision) -> dict:
    out = {str(f.index): {"dim": f.dim, "naive_star_convex": f.naive_star_convex}
           for f in res.image_flags}
    if res.factoring is None:        # an image cone was cut by the refinement
        out["diagonal_subdivided"] = True
    return out


def _op_subdivide_along_diagonal(args):
    res = cc.subdivide_along_diagonal(args["complex"])
    data = {
        "refined": _json_complex(res.subdivision.refined),
        "image_subcomplex": _json_complex(res.image_subcomplex),
        "unimodular": _json_unimodular(res.subdivision.refined),
        "image_flags": _json_image_flags(res),
        "diagonal_factors": res.factoring is not None,
    }
    return data, [("refined", res.subdivision.refined),
                  ("image_subcomplex", res.image_subcomplex)]


def _op_complex_info(args):
    K = args["complex"]
    return _json_complex(K), [("complex", K)]


def _op_is_isomorphic(args):
    return {"isomorphic": cc.is_isomorphic(args["left"], args["right"])}, []


def _op_hh_homology(args):
    return hkr.hh_homology(args["model"]).to_json(), []


def _op_hh_cohomology(args):
    return hkr.hh_cohomology(args["model"]).to_json(), []


def _op_log_diagonal(args):
    pic = hkr.log_diagonal(args["model"])
    data = {
        "b_description": {"text": pic.b_description.text,
                          "torus_rank": pic.b_description.torus_rank},
        "conormal_rank": pic.conormal_rank,
        "b_subcomplex": _json_complex(pic.b_subcomplex),
        "image_flags": _json_image_flags(pic.diagonal),
    }
    return data, [("b_subcomplex", pic.b_subcomplex),
                  ("refined", pic.diagonal.subdivision.refined)]


def _op_periodic_cyclic(args):
    return hkr.periodic_cyclic(args["model"]).to_json(), []


def _op_euler_check(args):
    return {"euler": hkr.euler_check(args["model"])}, []


def _op_check_firm(args):
    return {"firm": ob.check_firm(args["action"])}, []


def _op_twisted_sector(args):
    sector = ob.twisted_sector(args["action"], args["element"])
    data = {"element": list(sector.g), "empty": sector.is_empty}
    if not sector.is_empty:
        data["locus"] = {"name": sector.locus.name,
                         "dimension": sector.locus.dimension}
        data["hodge"] = sector.locus.hodge.to_json()
    return data, []


def _op_orbifold_hh(args):
    return ob.orbifold_hh(args["action"]).to_json(), []


OPERATIONS = {
    "smith_normal_form": ({"matrix": "matrix"}, _op_smith),
    "cokernel": ({"matrix": "matrix"}, _op_cokernel),
    "saturate_subgroup": ({"generators": "matrix"}, _op_saturate_subgroup),
    "hilbert_basis": ({"generators": "matrix"}, _op_hilbert_basis),
    "saturate": ({"monoid": "monoid"}, _op_saturate),
    "is_saturated": ({"monoid": "monoid"}, _op_is_saturated),
    "spec_component_count": ({"monoid": "monoid", "require_saturated": (_flag, True)},
                             _op_component_count),
    "fs_pushout": ({"left": "hom", "right": "hom"}, _op_fs_pushout),
    "product": ({"left": "complex", "right": "complex"}, _op_product),
    "star_subdivision": ({"complex": "complex", "cone": (_nat, 0),
                          "ray": (_vector, _REQUIRED)}, _op_star_subdivision),
    "subdivide_along_diagonal": ({"complex": "complex"}, _op_subdivide_along_diagonal),
    "complex_info": ({"complex": "complex"}, _op_complex_info),
    "is_isomorphic": ({"left": "complex", "right": "complex"}, _op_is_isomorphic),
    "hh_homology": ({"model": "model"}, _op_hh_homology),
    "hh_cohomology": ({"model": "model"}, _op_hh_cohomology),
    "log_diagonal": ({"model": "model"}, _op_log_diagonal),
    "periodic_cyclic": ({"model": "model"}, _op_periodic_cyclic),
    "euler_check": ({"model": "model"}, _op_euler_check),
    "check_firm": ({"action": "action"}, _op_check_firm),
    "twisted_sector": ({"action": "action", "element": (_vector, _REQUIRED)},
                       _op_twisted_sector),
    "orbifold_hh": ({"action": "action"}, _op_orbifold_hh),
}


# -------------------------------------------------------------------- parsing

_BUILDERS = {"matrix": _build_matrix, "monoid": _build_monoid, "hom": _build_hom,
             "complex": _build_complex, "model": _build_model, "action": _build_action}


def _task(index, t, resolve) -> Task:
    """One task: an operation, its arguments and an optional label."""
    op = _field(t, "op", _text)
    if op not in OPERATIONS:
        raise UnknownOperation(f"unknown operation {op!r}")
    schema, _fn = OPERATIONS[op]
    raw_args = _field(t, "args", _object, {})
    args = {}
    for name, how in schema.items():
        if isinstance(how, str):       # an object of that kind
            args[name] = resolve(_field(raw_args, name), how)
        else:                          # a literal: (reader, default)
            args[name] = _field(raw_args, name, *how)
    for extra in raw_args:
        if extra not in schema:
            raise ParseError(f"operation {op!r} got unknown argument {extra!r}")
    return Task(index, op, args, _field(t, "label", _text, None))


def _check_truncation(truncation: int) -> None:
    """The series order of documents, `--truncation`, is 0 to MAX_TRUNCATION."""
    if truncation < 0:
        raise ParseError(f"truncation must be >= 0, got {truncation}")
    if truncation > MAX_TRUNCATION:
        raise ScopeExceeded(f"'truncation' is {truncation}, "
                            f"above the desk-scale bound {MAX_TRUNCATION}")


def parse(text: str, truncation: int | None = None) -> Document:
    """Parse and validate a document; diagnostics carry line/column info."""
    truncation = truncation if truncation is not None else lm.DEFAULT_TRUNCATION
    _check_truncation(truncation)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:              # an integer too long to convert
        raise ParseError(str(exc))
    except RecursionError:
        raise ParseError("document nested too deeply")
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    version = _field(raw, "version", default=None)
    if version != VERSION_TAG:
        raise ParseError(f"unrecognized version tag {version!r} (expected {VERSION_TAG!r})")

    raw_objects = _field(raw, "objects", _object, {})
    builders = dict(_BUILDERS, model=functools.partial(_build_model, truncation=truncation))
    objects: dict = {}
    kinds: dict = {}
    building: set = set()

    def resolve(ref, kind):
        if isinstance(ref, dict):          # an inline object; its kind is optional
            if _field(ref, "kind", _text, kind) != kind:
                raise KindMismatch(
                    f"inline object has kind {ref['kind']!r}, expected {kind!r}")
            return builders[kind](ref, resolve)
        if not isinstance(ref, str):
            raise ParseError("expected a name or an inline object")
        if ref not in raw_objects:
            raise UnresolvedReference(f"no object named {ref!r}")
        build(ref)
        if kinds[ref] != kind:
            raise KindMismatch(f"object {ref!r} has kind {kinds[ref]!r}, expected {kind!r}")
        return objects[ref]

    def named(spec):
        kind = _field(spec, "kind", _text)
        if kind not in builders:
            raise ParseError(f"unknown kind {kind!r}")
        return kind, builders[kind](spec, resolve)

    def build(name):
        if name in objects:
            return
        if name in building:
            raise ParseError(f"circular reference to {name!r}")
        building.add(name)
        kinds[name], objects[name] = _named(f"object {name!r}", named, raw_objects[name])

    for name in raw_objects:
        build(name)
    tasks = [_named(f"task {i}", _task, i, t, resolve)
             for i, t in enumerate(_field(raw, "tasks", _list, []))]
    return Document(objects, tasks)


# ------------------------------------------------------------------- running

def _run_task(task: Task) -> tuple[dict, list]:
    _schema, fn = OPERATIONS[task.op]
    base = {"task": task.index, "op": task.op}
    if task.label:
        base["label"] = task.label
    try:
        data, attachments = fn(task.args)
        base["status"] = "ok"
        base["data"] = data
        return base, [(f"{task.index}:{label}", K) for label, K in attachments]
    except Exception as exc:   # never panic: surface as a diagnostic
        base["status"] = "error"
        base["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return base, []


def run(doc: Document) -> Report:
    """Execute tasks in order; failures do not abort later tasks."""
    outcomes = [_run_task(t) for t in doc.tasks]
    results = [r for r, _ in outcomes]
    attachments = [a for _, atts in outcomes for a in atts]
    return Report(results, attachments)


# ------------------------------------------------------------------ emission

# Parts of an output handed to the sink at a time: about 40 KB of JSON.
_CHUNK_PARTS = 512


class _Chunks(list):
    """The parts of an output not yet handed to `sink`, which takes them as
    one bytes chunk once `_CHUNK_PARTS` parts wait.  Without a sink the parts
    are kept and never flushed."""

    def __init__(self, sink=None):
        super().__init__()
        self.sink = sink

    def write(self, part: str) -> None:
        self.append(part)
        if len(self) >= _CHUNK_PARTS and self.sink is not None:
            self.flush()

    def flush(self) -> None:
        text = "".join(self)
        self.clear()
        self.sink(text.encode())


def _write_text(value, out: _Chunks, indent="    ") -> None:
    """Write the lines of a task's data, a dict, or of a list inside it, each
    after a newline; an empty one is one empty line.  A series is rendered
    where it is a member, so it is never a whole value here."""
    if not value:
        out.write("\n")
    elif isinstance(value, list):
        for item in value:
            out.write(f"\n{indent}- {item}")
    else:
        for k in sorted(value, key=str):
            v = value[k]
            if isinstance(v, dict) and set(v) == {"series", "truncation"}:
                out.write(f"\n{indent}{k}: {lm.GradedEntry.series(v['series']).render()}")
            elif isinstance(v, (dict, list)):
                out.write(f"\n{indent}{k}:")
                _write_text(v, out, indent + "  ")
            else:
                out.write(f"\n{indent}{k}: {v}")


_escape_json = json.encoder.encode_basestring_ascii   # the stdlib encoder's C escaper


def _write_json(value, out: _Chunks, indent: str, seen: dict) -> None:
    """Write to `out` the stdlib's JSON text of `value` with sorted keys and
    `indent=2`, in parts; `indent` is a newline and the current level's spaces.

    A list or tuple that is not a flat int list, met again at the same indent,
    is written from its text.  `seen`, empty at the top, maps
    `(id(value), indent)` to None at a first writing; the first repeat writes
    the list afresh into a `_Chunks` of its own and keeps that text there.
    Each key stays valid because the payload being written keeps every object
    in it alive."""
    inner = indent + "  "
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            head = sep + inner + _escape_json(key) + ": "   # TypeError on a non-str key
            item = value[key]
            if type(item) is int:
                out.write(head + int.__repr__(item))
            else:
                out.write(head)
                _write_json(item, out, inner, seen)
            sep = ","
        out.write(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        if value and all(type(x) is int for x in value):
            out.write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]")
            return
        key = (id(value), indent)
        if key in seen:
            if seen[key] is None:          # the first repeat: keep its text
                kept = _Chunks()
                del seen[key]              # so that it is written as a first writing
                _write_json(value, kept, indent, seen)
                seen[key] = "".join(kept)
            out.write(seen[key])
            return
        seen[key] = None
        sep = "["
        for item in value:
            out.write(sep + inner)
            _write_json(item, out, inner, seen)
            sep = ","
        out.write(indent + "]" if value else "[]")
    elif isinstance(value, str):
        out.write(_escape_json(value))
    elif value is None:
        out.write("null")
    elif isinstance(value, bool):
        out.write("true" if value else "false")
    elif isinstance(value, int):
        out.write(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit(report: Report, format: str = "text", sink=None) -> bytes | None:
    """Serialize a report; bit-stable for a fixed input and version.  The bytes
    go to `sink` in chunks as they are written, or without one are collected
    and returned."""
    if format not in ("json", "text", "dot"):
        raise FormatUnavailable(f"unknown format {format!r}")
    if format == "dot" and not report.attachments:
        raise FormatUnavailable("no face-poset-bearing results in this report")
    collected: list = []
    out = _Chunks(collected.append if sink is None else sink)
    if format == "json":
        _write_json({"version": VERSION_TAG, "results": report.results}, out, "\n", {})
        out.write("\n")
    elif format == "text":
        for i, r in enumerate(report.results):
            head = f"[{r['task']}] {r['op']}"
            if r.get("label"):
                head += f" ({r['label']})"
            out.write(head if i == 0 else "\n\n" + head)
            if r["status"] == "ok":
                _write_text(r["data"], out)
            else:
                err = r["error"]
                out.write(f"\n    ERROR {err['type']}: {err['message']}")
        out.write("\n")
    else:
        for i, (label, K) in enumerate(report.attachments):
            out.write(f"// {label}\n" if i == 0 else f"\n// {label}\n")
            for line in cc.face_poset_dot(K):
                out.write(line)
    out.flush()
    return b"".join(collected) if sink is None else None


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    """`logfan ARGV`; returns the exit status.  When the reader of stdout goes
    away, the status is 1, with no traceback and nothing on stderr."""
    try:
        status = _command(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left in stdout's buffer goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


def _command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="logfan",
        description="combinatorial log-geometry calculator")
    parser.add_argument("--truncation", type=int,
                        default=os.environ.get("LOGFAN_TRUNCATION",
                                               lm.DEFAULT_TRUNCATION),
                        help="series truncation order of documents (default 10)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a document")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p_check = sub.add_parser("check", help="parse and validate only")
    p_check.add_argument("file")

    sub.add_parser("paper-suite", help="run the built-in reproduction suite")

    args = parser.parse_args(argv)
    _freeze_at_exit()
    try:
        _check_truncation(args.truncation)
    except LogfanError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.command == "paper-suite":
        results = run_paper_suite()
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        doc = parse(text, truncation=args.truncation)
    except LogfanError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"ok: {len(doc.objects)} objects, {len(doc.tasks)} tasks")
        return 0

    report = run(doc)
    try:
        emit(report, args.format, sys.stdout.buffer.write)
    except FormatUnavailable as exc:
        print(f"FormatUnavailable: {exc}", file=sys.stderr)
        return 2
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
