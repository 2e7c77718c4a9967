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
import json
import os
import sys
from dataclasses import dataclass, field

from . import conecomplex as cc
from . import hkr
from . import lattice
from . import logmodel as lm
from . import monoid as mn
from . import orbifold as ob
from .errors import (FormatUnavailable, KindMismatch, LogfanError, ParseError,
                     ScopeExceeded, UnknownOperation, UnresolvedReference)
from .lattice import FgAbelianGroup, IntMatrix
from .suite import run_paper_suite

VERSION_TAG = "logfan/1"


@dataclass
class Task:
    index: int
    op: str
    args: dict
    label: str | None = None


@dataclass
class Document:
    version: str
    objects: dict
    kinds: dict
    tasks: list[Task]
    truncation: int = lm.DEFAULT_TRUNCATION


@dataclass
class Report:
    results: list[dict]
    attachments: list = field(default_factory=list)   # (label, complex) pairs

    @property
    def exit_status(self) -> int:
        return 0 if all(r["status"] == "ok" for r in self.results) else 1


# ------------------------------------------------------------- object parsing

def _require(obj, key, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _as_matrix(rows, where) -> IntMatrix:
    try:
        return IntMatrix.from_rows(rows)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad matrix ({exc})")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _count_field(spec, key, where) -> int:
    """A required field holding an integer >= 0."""
    val = _require(spec, key, where)
    if not _is_int(val) or val < 0:
        raise ParseError(f"{where}: {key!r} must be an integer >= 0, got {val!r}")
    return val


def _index(val, key, where, bound) -> int:
    """An index into a list of `bound` items."""
    if not _is_int(val) or not 0 <= val < bound:
        raise ParseError(f"{where}: {key!r} index {val!r} must be an integer in [0, {bound})")
    return val


def _indices(val, key, where, bound) -> tuple[int, ...]:
    if not isinstance(val, list):
        raise ParseError(f"{where}: {key!r} must be a list of indices")
    return tuple(_index(i, key, where, bound) for i in val)


def _ints(val, key, where) -> tuple[int, ...]:
    """A list of integers."""
    if not isinstance(val, list) or not all(_is_int(x) for x in val):
        raise ParseError(f"{where}: {key!r} must be a list of integers")
    return tuple(val)


def _objects(val, key, where) -> list[dict]:
    """A list of JSON objects."""
    if not isinstance(val, list) or not all(isinstance(v, dict) for v in val):
        raise ParseError(f"{where}: {key!r} must be a list of objects")
    return val


def _vectors(val, key, where, length=None) -> list[tuple[int, ...]]:
    """A list of integer vectors, all of the given length when one is given."""
    if not isinstance(val, list) or not all(
            isinstance(v, list) and length in (None, len(v)) and all(_is_int(x) for x in v)
            for v in val):
        raise ParseError(f"{where}: {key!r} must be a list of integer vectors"
                         + (f" of length {length}" if length is not None else ""))
    return [tuple(v) for v in val]


def _build_monoid(spec, where) -> mn.FineMonoid:
    free = _count_field(spec, "free_rank", where) if "free_rank" in spec else 0
    torsion = _ints(spec.get("torsion", []), "torsion", where)
    gens = _vectors(_require(spec, "generators", where), "generators", where,
                    free + len(torsion))
    try:
        return mn.FineMonoid.make(FgAbelianGroup(free, torsion), gens)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")


def _build_hom(spec, where, resolver, truncation) -> mn.MonoidHom:
    src = resolver(_require(spec, "source", where), "monoid", where)
    dst = resolver(_require(spec, "target", where), "monoid", where)
    matrix = _as_matrix(_require(spec, "matrix", where), where)
    try:
        return mn.MonoidHom(src, dst, matrix)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")
    except ScopeExceeded as exc:
        raise ScopeExceeded(f"{where}: {exc}")


def _toric_fields(spec, where):
    """Rays, maximal cones and rank of a toric fan, type- and range-checked."""
    rank = _count_field(spec, "rank", where)
    rays = _vectors(_require(spec, "rays", where), "rays", where, rank)
    cones = _require(spec, "maximal_cones", where)
    if not isinstance(cones, list):
        raise ParseError(f"{where}: 'maximal_cones' must be a list of index lists")
    return rays, [_indices(m, "maximal_cones", where, len(rays)) for m in cones], rank


def _build_complex(spec, where) -> cc.GeneralizedConeComplex:
    builtin = spec.get("builtin")
    if builtin == "snc":
        simplices = _vectors(_require(spec, "simplices", where), "simplices", where)
        return cc.snc_artin_fan(simplices)
    if builtin == "nodal_cubic":
        return cc.nodal_cubic_complex()
    if builtin == "point":
        return cc.point_complex()
    if builtin not in (None, "toric_fan"):
        raise ParseError(f"{where}: unknown complex builtin {builtin!r}")
    try:
        if builtin == "toric_fan":
            return cc.from_toric_fan(*_toric_fields(spec, where))
        cones = []
        for c in _objects(_require(spec, "cones", where), "cones", where):
            rank = _count_field(c, "rank", where)
            cones.append(cc.Cone.make(_vectors(c.get("rays", []), "rays", where, rank), rank))
        maps = []
        for m in _objects(_require(spec, "face_maps", where), "face_maps", where):
            source = _index(_require(m, "source", where), "source", where, len(cones))
            target = _index(_require(m, "target", where), "target", where, len(cones))
            maps.append(cc.FaceMap(source, target,
                                   _as_matrix(m["matrix"], where)
                                   if m.get("matrix") is not None else
                                   IntMatrix.identity(cones[target].lattice_rank)))
        K = cc.GeneralizedConeComplex(tuple(cones), tuple(maps))
        K.validate()
        return K
    except ValueError as exc:      # a non-sharp cone or an illegal face map
        raise ParseError(f"{where}: {exc}")


def _build_model(spec, where, resolver, truncation) -> lm.LogModel:
    builtin = _require(spec, "builtin", where)
    if builtin == "point":
        return lm.point_model()
    if builtin == "affine_space":
        return lm.affine_space_model(_count_field(spec, "d", where), truncation=truncation)
    if builtin == "p1":
        return lm.p1_toric_model()
    if builtin == "p2":
        return lm.p2_toric_model()
    if builtin == "toric":
        rays, cones, rank = _toric_fields(spec, where)
        try:
            return lm.toric_model(rays, cones, rank,
                                  bool(_require(spec, "complete", where)),
                                  name=spec.get("name", "toric"),
                                  truncation=truncation)
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}")
    if builtin == "marked_p1":
        return lm.marked_p1(_count_field(spec, "n", where))
    if builtin == "nodal_cubic":
        return lm.nodal_cubic()
    if builtin == "mixed_affine":
        coords = _count_field(spec, "coords", where)
        return lm.mixed_affine(coords, _indices(spec.get("log", []), "log", where, coords),
                               truncation=truncation)
    if builtin == "product":
        factors = _require(spec, "factors", where)
        if not isinstance(factors, list) or len(factors) < 2:
            raise ParseError(f"{where}: a product needs at least two factors")
        models = [resolver(f, "model", where) for f in factors]
        out = models[0]
        for M in models[1:]:
            out = lm.product_model(out, M)
        return out
    raise ParseError(f"{where}: unknown model builtin {builtin!r}")


def _build_action(spec, where, resolver, truncation) -> ob.DiagonalAction:
    model = resolver(_require(spec, "model", where), "model", where)
    orders = _ints(spec.get("orders", []), "orders", where)
    chars = tuple(_vectors(spec.get("characters", []), "characters", where))
    perm = spec.get("permutation")
    if perm is not None:
        perm = _ints(perm, "permutation", where)
    try:
        return ob.DiagonalAction(model, orders, chars, perm)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}")


# ---------------------------------------------------------------- operations

def _json_complex(K: cc.GeneralizedConeComplex):
    return {
        "cones": [{"rank": c.lattice_rank, "rays": [list(r) for r in c.rays]}
                  for c in K.cones],
        "face_maps": [{"source": fm.source, "target": fm.target,
                       "matrix": fm.matrix.as_rows()} for fm in K.face_maps],
        "cone_count": K.cone_count,
        "ray_count": K.ray_count,
    }


def _op_smith(args):
    snf = lattice.smith_normal_form(args["matrix"])
    return {"U": snf.U.as_rows(), "D": snf.D.as_rows(),
            "V": snf.V.as_rows(), "diagonal": list(snf.diagonal())}, []


def _op_cokernel(args):
    G = lattice.cokernel(args["matrix"])
    return {"free_rank": G.free_rank, "torsion": list(G.torsion_orders)}, []


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
        "ambient": {"free_rank": S.ambient.free_rank,
                    "torsion": list(S.ambient.torsion_orders)},
        "generators": [list(g) for g in S.generators],
        "torsion_order": rep.torsion_order,
        "added_generators": [list(g) for g in rep.index_data],
    }


def _op_saturate(args):
    return _saturation_json(mn.saturate(args["monoid"])), []


def _op_is_saturated(args):
    return {"saturated": mn.is_saturated(args["monoid"])}, []


def _op_component_count(args):
    flag = bool(args.get("require_saturated", True))
    return {"count": mn.spec_component_count(args["monoid"], flag)}, []


def _op_fs_pushout(args):
    rep = mn.fs_pushout(args["left"], args["right"])
    data = _saturation_json(rep)
    data["component_count"] = rep.saturated.gp_torsion_order
    return data, []


def _op_product(args):
    K = cc.product(args["left"], args["right"])
    return _json_complex(K), [("product", K)]


def _op_star_subdivision(args):
    if "ray" not in args:
        raise ParseError("star_subdivision needs a 'ray' argument")
    sub = cc.star_subdivision(args["complex"], int(args.get("cone", 0)),
                              tuple(args["ray"]))
    data = _json_complex(sub.refined)
    data["trivial"] = sub.is_trivial()
    data["unimodular"] = {str(k): v for k, v in sub.unimodular.items()}
    return data, [("refined", sub.refined)]


def _json_image_flags(res: cc.DiagonalSubdivision) -> dict:
    out = {str(f.index): {"dim": f.dim, "naive_star_convex": f.naive_star_convex}
           for f in res.image_flags}
    if res.factoring is None:        # an image cone was cut by the refinement
        out["diagonal_subdivided"] = True
    return out


def _op_subdivide_along_diagonal(args):
    res = cc.subdivide_along(cc.diagonal_morphism(args["complex"]))
    data = {
        "refined": _json_complex(res.subdivision.refined),
        "image_subcomplex": _json_complex(res.image_subcomplex),
        "unimodular": {str(k): v for k, v in res.subdivision.unimodular.items()},
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
                  ("refined", pic.diagonal_subdivision.refined)]


def _op_periodic_cyclic(args):
    return hkr.periodic_cyclic(args["model"]).to_json(), []


def _op_euler_check(args):
    return {"euler": hkr.euler_check(args["model"])}, []


def _op_check_firm(args):
    return {"firm": ob.check_firm(args["action"])}, []


def _op_twisted_sector(args):
    if "element" not in args:
        raise ParseError("twisted_sector needs an 'element' argument")
    sector = ob.twisted_sector(args["action"], tuple(args["element"]))
    data = {"element": list(sector.g), "empty": sector.is_empty}
    if not sector.is_empty:
        data["locus"] = {"name": sector.locus.name,
                         "dimension": sector.locus.dimension}
        data["hodge"] = sector.hodge_contribution.to_json()
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
    "spec_component_count": ({"monoid": "monoid", "require_saturated": "literal"},
                             _op_component_count),
    "fs_pushout": ({"left": "hom", "right": "hom"}, _op_fs_pushout),
    "product": ({"left": "complex", "right": "complex"}, _op_product),
    "star_subdivision": ({"complex": "complex", "cone": "literal", "ray": "literal"},
                         _op_star_subdivision),
    "subdivide_along_diagonal": ({"complex": "complex"}, _op_subdivide_along_diagonal),
    "complex_info": ({"complex": "complex"}, _op_complex_info),
    "is_isomorphic": ({"left": "complex", "right": "complex"}, _op_is_isomorphic),
    "hh_homology": ({"model": "model"}, _op_hh_homology),
    "hh_cohomology": ({"model": "model"}, _op_hh_cohomology),
    "log_diagonal": ({"model": "model"}, _op_log_diagonal),
    "periodic_cyclic": ({"model": "model"}, _op_periodic_cyclic),
    "euler_check": ({"model": "model"}, _op_euler_check),
    "check_firm": ({"action": "action"}, _op_check_firm),
    "twisted_sector": ({"action": "action", "element": "literal"}, _op_twisted_sector),
    "orbifold_hh": ({"action": "action"}, _op_orbifold_hh),
}


# -------------------------------------------------------------------- parsing

_BUILDERS = {
    "matrix": lambda spec, where, resolver, trunc:
        _as_matrix(_require(spec, "entries", where), where),
    "monoid": lambda spec, where, resolver, trunc: _build_monoid(spec, where),
    "hom": _build_hom,
    "complex": lambda spec, where, resolver, trunc: _build_complex(spec, where),
    "model": _build_model,
    "action": _build_action,
}


def parse(text: str, truncation: int | None = None) -> Document:
    """Parse and validate a document; diagnostics carry line/column info."""
    truncation = truncation if truncation is not None else lm.DEFAULT_TRUNCATION
    if truncation < 0:
        raise ParseError(f"truncation must be >= 0, got {truncation}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    version = raw.get("version")
    if version != VERSION_TAG:
        raise ParseError(f"unrecognized version tag {version!r} (expected {VERSION_TAG!r})")

    raw_objects = raw.get("objects", {})
    if not isinstance(raw_objects, dict):
        raise ParseError("'objects' must be an object")
    objects: dict = {}
    kinds: dict = {}
    building: set = set()

    def resolver(ref, expected_kind, where):
        if isinstance(ref, str):
            if ref not in raw_objects:
                raise UnresolvedReference(f"{where}: no object named {ref!r}")
            build(ref)
            if kinds[ref] != expected_kind:
                raise KindMismatch(
                    f"{where}: object {ref!r} has kind {kinds[ref]!r}, "
                    f"expected {expected_kind!r}")
            return objects[ref]
        if isinstance(ref, dict):
            return _BUILDERS[expected_kind](ref, where, resolver, truncation)
        raise ParseError(f"{where}: expected a name or an inline object")

    def build(name):
        if name in objects:
            return
        if name in building:
            raise ParseError(f"object {name!r}: circular reference")
        building.add(name)
        spec = raw_objects[name]
        where = f"object {name!r}"
        if not isinstance(spec, dict):
            raise ParseError(f"{where}: must be a JSON object")
        kind = _require(spec, "kind", where)
        if kind not in _BUILDERS:
            raise ParseError(f"{where}: unknown kind {kind!r}")
        objects[name] = _BUILDERS[kind](spec, where, resolver, truncation)
        kinds[name] = kind
        building.discard(name)

    for name in raw_objects:
        build(name)

    raw_tasks = raw.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise ParseError("'tasks' must be a list")
    tasks = []
    for i, t in enumerate(raw_tasks):
        where = f"task {i}"
        if not isinstance(t, dict):
            raise ParseError(f"{where}: must be a JSON object")
        op = _require(t, "op", where)
        if op not in OPERATIONS:
            raise UnknownOperation(f"{where}: unknown operation {op!r}")
        schema, _fn = OPERATIONS[op]
        args = {}
        for arg_name, arg_kind in schema.items():
            raw_args = t.get("args", {})
            if arg_name not in raw_args:
                if arg_kind == "literal":
                    continue
                raise ParseError(f"{where}: operation {op!r} needs argument {arg_name!r}")
            val = raw_args[arg_name]
            if arg_kind == "literal":
                args[arg_name] = val
            else:
                args[arg_name] = resolver(val, arg_kind, where)
        for extra in t.get("args", {}):
            if extra not in schema:
                raise ParseError(f"{where}: operation {op!r} got unknown argument {extra!r}")
        tasks.append(Task(i, op, args, t.get("label")))
    return Document(version, objects, kinds, tasks, truncation)


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

def _render_value(value, indent="    "):
    if isinstance(value, dict):
        if set(value) == {"series", "truncation"}:
            return f"{indent}{lm.GradedEntry.series(value['series']).render()}"
        lines = []
        for k in sorted(value, key=str):
            v = value[k]
            if isinstance(v, dict) and set(v) == {"series", "truncation"}:
                lines.append(f"{indent}{k}: {lm.GradedEntry.series(v['series']).render()}")
            elif isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_render_value(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {v}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(f"{indent}- {item}" for item in value)
    return f"{indent}{value}"


def emit(report: Report, format: str = "text") -> bytes:
    """Serialize a report; bit-stable for a fixed input and version."""
    if format == "json":
        payload = {"version": VERSION_TAG, "results": report.results}
        return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    if format == "text":
        blocks = []
        for r in report.results:
            head = f"[{r['task']}] {r['op']}"
            if r.get("label"):
                head += f" ({r['label']})"
            if r["status"] == "ok":
                blocks.append(head + "\n" + _render_value(r["data"]))
            else:
                err = r["error"]
                blocks.append(f"{head}\n    ERROR {err['type']}: {err['message']}")
        return ("\n\n".join(blocks) + "\n").encode()
    if format == "dot":
        if not report.attachments:
            raise FormatUnavailable("no face-poset-bearing results in this report")
        graphs = []
        for label, K in report.attachments:
            graphs.append(f"// {label}\n" + cc.face_poset_dot(K))
        return "\n".join(graphs).encode()
    raise FormatUnavailable(f"unknown format {format!r}")


# ----------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="logfan",
        description="combinatorial log-geometry calculator")
    parser.add_argument("--truncation", type=int,
                        default=os.environ.get("LOGFAN_TRUNCATION",
                                               lm.DEFAULT_TRUNCATION),
                        help="series truncation order (default 10)")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for harness compatibility; computations "
                             "are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a document")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p_check = sub.add_parser("check", help="parse and validate only")
    p_check.add_argument("file")

    sub.add_parser("paper-suite", help="run the built-in reproduction suite")

    args = parser.parse_args(argv)
    if args.truncation < 0:
        print(f"error: truncation must be >= 0, got {args.truncation}",
              file=sys.stderr)
        return 2

    if args.command == "paper-suite":
        results = run_paper_suite(truncation=args.truncation)
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
        sys.stdout.buffer.write(emit(report, args.format))
    except FormatUnavailable as exc:
        print(f"FormatUnavailable: {exc}", file=sys.stderr)
        return 2
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
