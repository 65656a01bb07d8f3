"""Outside-in layer tracing for bentvec jobs.

`install` wraps the functions named in WRAP_POINTS from outside the
package (src/ is not modified).  Each call records a span
[name, start, end, parent, error] in memory; `Tracer.dump` writes them
when the job ends, and `summarize` derives self times and counts.

A span name is "<layer>.<group>"; the layer is a bentvec module.  Several
functions may share a group (all readers are "fileio.read").  Generators
are not wrapped: their call returns before any work is done.

Some callers hold references captured at import time
(`constructions.satisfies_p`, `cli.find_defining_sets`,
`boolfun._walsh_permutation`, the tuples in `cli.FAMILIES`).  Wrapping
the defining module's attribute would miss those calls, so `install`
rebinds every module-level reference to a wrapped function in every
bentvec module, including references held in module-level dicts of
tuples.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import threading
import time

LAYERS = ("cli", "constructions", "vectorial", "boolfun", "propp", "redpoly", "gf2n", "fileio")


def _mul_elems_count(args, kwargs, result):
    return {"elems": result.size}


def _fwht_count(args, kwargs, result):
    # computed, not measured: log2(rows) butterfly levels over every
    # element, each level reading and writing the array once
    levels = result.shape[0].bit_length() - 1
    return {"ops": levels * result.size, "bytes": 2 * levels * result.size * result.itemsize}


def _text_bytes(position):
    def count(args, kwargs, result):
        return {"bytes": len(args[position])}

    return count


def _distinct_components():
    """Counter of calls whose (function content, lambda, v) is new."""
    digests, seen = {}, set()

    def count(args, kwargs, result):
        F = args[0]
        lam = args[1] if len(args) > 1 else kwargs["lam"]
        v = args[2] if len(args) > 2 else kwargs.get("v", 0)
        if id(F) not in digests:
            h = hashlib.blake2b(digest_size=16)
            for part in (F.values, F.extra):
                h.update(part.tobytes())
            digests[id(F)] = (F, f"{F.m}/{F.t}/{h.hexdigest()}")  # F pinned: ids stay unique
        key = (digests[id(F)][1], int(lam), int(v))
        if key in seen:
            return {}
        seen.add(key)
        return {"distinct": 1}

    return count


# (span name, "module:qualname" in bentvec, counter factory or None)
WRAP_POINTS = (
    ("cli.main", "cli:main", None),
    ("cli.command", "cli:cmd_construct", None),
    ("cli.command", "cli:cmd_verify", None),
    ("cli.command", "cli:cmd_propp", None),
    ("cli.classify_components", "cli:_classify_components", None),
    ("constructions.family", "constructions:kasami_family", None),
    ("constructions.family", "constructions:niho_family", None),
    ("constructions.family", "constructions:gold_family", None),
    ("constructions.auto_u", "constructions:kasami_auto_u", None),
    ("constructions.auto_u", "constructions:niho_auto_u", None),
    ("constructions.auto_u", "constructions:gold_auto_u", None),
    ("constructions.run_family", "constructions:_run_family", None),
    ("constructions.component_dual_check", "constructions:_component_dual_check", None),
    ("constructions.vec_bent_lift", "constructions:vec_bent_lift", None),
    ("constructions.vec_plateaued_lift", "constructions:vec_plateaued_lift", None),
    ("constructions.require_p_tau_for", "constructions:_require_p_tau_for", None),
    ("constructions.p_tau_all_lambdas", "constructions:_p_tau_all_lambdas", None),
    ("constructions.tail_profile", "constructions:_tail_profile", None),
    ("constructions.class_string", "constructions:vectorial_class_string", None),
    ("vectorial.component", "vectorial:VectorialFunction.component", _distinct_components),
    ("vectorial.is_vectorial_bent", "vectorial:VectorialFunction.is_vectorial_bent", None),
    ("vectorial.is_vectorial_plateaued", "vectorial:VectorialFunction.is_vectorial_plateaued", None),
    ("vectorial.bent_component_count", "vectorial:VectorialFunction.bent_component_count", None),
    ("vectorial.coordinate_functions", "vectorial:VectorialFunction.coordinate_functions", None),
    ("vectorial.degree", "vectorial:VectorialFunction.degree", None),
    ("vectorial.from_univariate", "vectorial:VectorialFunction.from_univariate", None),
    ("vectorial.augment", "vectorial:VectorialFunction.augment", None),
    ("vectorial.add_boolean", "vectorial:VectorialFunction.add_boolean", None),
    ("boolfun.fwht", "boolfun:fwht", lambda: _fwht_count),
    ("boolfun.walsh", "boolfun:BooleanFunction.walsh", None),
    ("boolfun.classify", "boolfun:classify", None),
    ("boolfun.degree", "boolfun:BooleanFunction.degree", None),
    ("boolfun.dual", "boolfun:BooleanFunction.dual", None),
    ("boolfun.from_univariate", "boolfun:BooleanFunction.from_univariate", None),
    ("boolfun.scale_input", "boolfun:BooleanFunction.scale_input", None),
    ("redpoly.compose_traces", "redpoly:ReducedPolynomial.compose_traces", None),
    ("redpoly.parse", "redpoly:ReducedPolynomial.parse", None),
    ("redpoly.random", "redpoly:ReducedPolynomial.random", None),
    ("propp.satisfies_p", "propp:satisfies_p", None),
    ("propp.find_defining_sets", "propp:find_defining_sets", None),
    ("propp.span_closure", "propp:span_closure", None),
    ("propp.shift_decomposition", "propp:shift_decomposition", None),
    ("propp.product_shift", "propp:product_shift", None),
    ("gf2n.mul_elems", "gf2n:FieldSpec.mul_elems", lambda: _mul_elems_count),
    ("gf2n.pow_elems", "gf2n:FieldSpec.pow_elems", None),
    ("gf2n.inverse_elems", "gf2n:FieldSpec.inverse_elems", None),
    ("gf2n.scalar", "gf2n:FieldSpec.mul", None),
    ("gf2n.scalar", "gf2n:FieldSpec.pow", None),
    ("gf2n.scalar", "gf2n:FieldSpec.inverse", None),
    ("gf2n.scalar", "gf2n:FieldSpec.trace", None),
    ("gf2n.scalar", "gf2n:FieldSpec.subfield_abs_trace", None),
    ("gf2n.subsets", "gf2n:FieldSpec.subfield", None),
    ("gf2n.subsets", "gf2n:FieldSpec.subfield_basis", None),
    ("gf2n.subsets", "gf2n:FieldSpec.unit_circle", None),
    ("gf2n.linear_form_table", "gf2n:FieldSpec.linear_form_table", None),
    ("gf2n.tables", "gf2n:_exp_log", None),
    ("gf2n.tables", "gf2n:_abs_trace_table", None),
    ("gf2n.tables", "gf2n:_walsh_permutation", None),
    ("gf2n.tables", "gf2n:_subfield", None),
    ("fileio.read", "fileio:bf_from_text", lambda: _text_bytes(0)),
    ("fileio.read", "fileio:vf_from_text", lambda: _text_bytes(0)),
    ("fileio.read", "fileio:read_bf", None),
    ("fileio.read", "fileio:read_vf", None),
    ("fileio.read", "fileio:read_any", None),
    ("fileio.write", "fileio:bf_to_text", None),
    ("fileio.write", "fileio:vf_to_text", None),
    ("fileio.write", "fileio:write_bf", None),
    ("fileio.write", "fileio:write_vf", None),
    ("fileio.write", "fileio:atomic_write_text", lambda: _text_bytes(1)),
)


class Tracer:
    """In-memory span and counter store for one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.counts = {}
        self._local = threading.local()

    def wrap(self, name, fn, counter=None):
        spans, counts, local = self.spans, self.counts, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    counts[full] = counts.get(full, 0) + value
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"job_id": self.job_id, "spans": self.spans, "counts": self.counts}, handle)


def _resolve(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"bentvec.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer):
    """Wrap every WRAP_POINTS target and rebind all captured references."""
    replaced = {}  # id(original function) -> wrapper
    for name, target, counter in WRAP_POINTS:
        owner, attr = _resolve(target)
        raw = vars(owner)[attr]
        count = counter() if counter is not None else None
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(tracer.wrap(name, raw.__func__, count)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, raw, count))
        else:
            replaced[id(raw)] = tracer.wrap(name, raw, count)
    for module_name in LAYERS + ("",):
        module = importlib.import_module(f"bentvec.{module_name}" if module_name else "bentvec")
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if id(value) in replaced:
                namespace[key] = replaced[id(value)]
            elif isinstance(value, dict):
                for k, v in value.items():
                    if isinstance(v, tuple) and any(id(x) in replaced for x in v):
                        value[k] = tuple(replaced.get(id(x), x) for x in v)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(spans):
    """Per-name calls, self and inclusive seconds, errors, child names.

    Self time is a span's duration minus the part of it covered by its
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so recursion is not counted twice.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    stats = {}
    for i, (name, start, end, parent, error) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0, "errors": 0, "with_child": {}})
        s["calls"] += 1
        s["errors"] += error
        s["self_s"] += (end - start) - _covered(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            s["s"] += end - start
        for child_name in {spans[c][0] for c in children[i]}:
            s["with_child"][child_name] = s["with_child"].get(child_name, 0) + 1
    return stats


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced job, by BENCHMARK.json name."""
    stats = summarize(spans)
    empty = {"calls": 0, "self_s": 0.0, "s": 0.0, "errors": 0, "with_child": {}}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for layer in LAYERS:
        mine = [s for name, s in stats.items() if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        out[f"{layer}.errors"] = sum(s["errors"] for s in mine)
    first_gf2n = next((end - start for name, start, end, _, _ in spans if name.startswith("gf2n.")), 0.0)
    component = get("vectorial.component")
    distinct = counts.get("vectorial.component.distinct", 0)
    out.update(
        {
            "gf2n.mul_elems.calls": get("gf2n.mul_elems")["calls"],
            "gf2n.mul_elems.elems": counts.get("gf2n.mul_elems.elems", 0),
            "gf2n.mul_elems.self_s": get("gf2n.mul_elems")["self_s"],
            "gf2n.pow_elems.self_s": get("gf2n.pow_elems")["self_s"],
            "gf2n.tables.self_s": get("gf2n.tables")["self_s"],
            "gf2n.first_call_s": first_gf2n,
            "boolfun.fwht.calls": get("boolfun.fwht")["calls"],
            "boolfun.fwht.self_s": get("boolfun.fwht")["self_s"],
            "boolfun.fwht.ops": counts.get("boolfun.fwht.ops", 0),
            "boolfun.fwht.bytes": counts.get("boolfun.fwht.bytes", 0),
            "boolfun.walsh.calls": get("boolfun.walsh")["calls"],
            "boolfun.walsh.computed": get("boolfun.walsh")["with_child"].get("boolfun.fwht", 0),
            "boolfun.walsh.self_s": get("boolfun.walsh")["self_s"],
            "boolfun.classify.self_s": get("boolfun.classify")["self_s"],
            "boolfun.degree.calls": get("boolfun.degree")["calls"],
            "boolfun.degree.self_s": get("boolfun.degree")["self_s"],
            "boolfun.dual.calls": get("boolfun.dual")["calls"],
            "vectorial.component.calls": component["calls"],
            "vectorial.component.distinct": distinct,
            # no calls means no wasted calls
            "vectorial.component.useful_ratio": distinct / component["calls"] if component["calls"] else 1.0,
            "vectorial.component.self_s": component["self_s"],
            "vectorial.degree.s": get("vectorial.degree")["s"],
            "constructions.vec_bent_lift.s": get("constructions.vec_bent_lift")["s"],
            "constructions.vec_plateaued_lift.s": get("constructions.vec_plateaued_lift")["s"],
            "redpoly.compose_traces.self_s": get("redpoly.compose_traces")["self_s"],
            "propp.satisfies_p.calls": get("propp.satisfies_p")["calls"],
            "propp.satisfies_p.self_s": get("propp.satisfies_p")["self_s"],
            "fileio.read.self_s": get("fileio.read")["self_s"],
            "fileio.read.bytes": counts.get("fileio.read.bytes", 0),
            "fileio.write.self_s": get("fileio.write")["self_s"],
            "fileio.write.bytes": counts.get("fileio.write.bytes", 0),
            "trace.spans": len(spans),
        }
    )
    return out
