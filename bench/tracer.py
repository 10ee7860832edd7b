"""Layer attribution by wrapping danisurf's public callables from outside.

``Tracer.install`` replaces each traced callable, in every danisurf module
namespace that holds it (so aliases such as ``__radd__`` and names imported
into other modules, like ``isotropy.commutes`` or ``cli.commutes``, are
counted too), with a wrapper that records a span: metric name, parent span,
start and end.  A call whose innermost open span has the same metric name is
folded into it, so ``a - b`` is one ``multipoly.add`` span, not two.

Self time of a span is its duration minus the time its child spans cover,
including the wrappers' own bookkeeping inside those children, so that the
tracer's cost lands in no layer's self time.

Spans stay in memory in flat arrays while recording is on, and are written
out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
from array import array
from fractions import Fraction
from time import perf_counter

# metric name -> unit, in report order
PER_LAYER_UNITS = {
    "exactnum.rational.calls": "count", "exactnum.rational.self_s": "s",
    "exactnum.cyclo.calls": "count", "exactnum.cyclo.self_s": "s",
    "exactnum.descent_ratio": "ratio", "exactnum.max_conductor": "conductor",
    "exactnum.zeta.calls": "count", "exactnum.zeta.self_s": "s",
    "exactnum.root_order.calls": "count", "exactnum.root_order.self_s": "s",
    "multipoly.mul.calls": "count", "multipoly.mul.self_s": "s",
    "multipoly.mul.term_pairs": "count",
    "multipoly.add.calls": "count", "multipoly.add.self_s": "s",
    "multipoly.substitute.calls": "count", "multipoly.substitute.self_s": "s",
    "multipoly.substitute.out_terms": "count",
    "multipoly.rational_coeff_frac": "ratio",
    "surface.reduce.calls": "count", "surface.reduce.self_s": "s",
    "surface.reduce.in_terms": "count", "surface.reduce.out_terms": "count",
    "surface.reduce.noop_frac": "ratio",
    "diffmaps.map_init.calls": "count", "diffmaps.map_init.self_s": "s",
    "diffmaps.der_init.calls": "count", "diffmaps.der_init.self_s": "s",
    "diffmaps.map_apply.calls": "count", "diffmaps.map_apply.self_s": "s",
    "diffmaps.der_apply.calls": "count", "diffmaps.der_apply.self_s": "s",
    "diffmaps.commutes.calls": "count", "diffmaps.commutes.self_s": "s",
    "diffmaps.nilpotent.calls": "count", "diffmaps.nilpotent.self_s": "s",
    "isotropy.generator.calls": "count", "isotropy.generator.self_s": "s",
    "isotropy.suite.calls": "count", "isotropy.suite.self_s": "s",
    "isotropy.checks": "count",
    "parsing.calls": "count", "parsing.self_s": "s",
    "cli.run.calls": "count", "cli.run.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Span names; each owns "<name>.calls" and "<name>.self_s" ("parsing" owns
# "parsing.calls" and "parsing.self_s").
SPAN_NAMES = ("exactnum.rational", "exactnum.cyclo", "exactnum.zeta",
              "exactnum.root_order", "multipoly.mul", "multipoly.add",
              "multipoly.substitute", "surface.reduce", "diffmaps.map_init",
              "diffmaps.der_init", "diffmaps.map_apply", "diffmaps.der_apply",
              "diffmaps.commutes", "diffmaps.nilpotent", "isotropy.generator",
              "isotropy.suite", "parsing", "cli.run")

# Counters that are not calls or self time; they are summed over the pass.
COUNTERS = ("cyclo_descents", "max_conductor", "term_pairs", "product_coeffs",
            "rational_product_coeffs", "substitute_out_terms", "reduce_in_terms",
            "reduce_out_terms", "reduce_noops", "checks")


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.stack: list[list] = []          # [name, span index, excluded seconds]
        self.recording = False
        self.span_name = array("b")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new pass: clear the per-pass aggregates in place."""
        self.calls.update(dict.fromkeys(SPAN_NAMES, 0))
        self.self_s.update(dict.fromkeys(SPAN_NAMES, 0.0))
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        """Wrap ``fn``; ``name_of(args)`` gives the span name, or None to skip."""
        stack, calls, self_s = self.stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            t_enter = perf_counter()
            name = name_of(args)
            if name is None or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            index = -1
            if self.recording:
                index = len(self.span_start)
                self.span_name.append(self.name_ids[name])
                self.span_parent.append(stack[-1][1] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            frame = [name, index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[2]
                if index >= 0:
                    self.span_start[index] = t0
                    self.span_end[index] = t1
                if stack:                            # the parent excludes this call
                    stack[-1][2] += t1 - t_enter
            if after is not None:
                after(args, result)
                if stack:
                    stack[-1][2] += perf_counter() - t1
            return result

        return traced

    def install(self, package) -> None:
        """Patch the traced callables of the imported danisurf package."""
        from danisurf import cli, diffmaps, exactnum, isotropy, multipoly, parsing, surface
        modules = (package, exactnum, multipoly, surface, diffmaps, isotropy, parsing, cli)
        counts = self.counts
        Cyc, Poly = exactnum.CycScalar, multipoly.MultiPoly
        scalar_types = (Cyc, int, Fraction)

        def scalar_name(args):
            if len(args) == 1:                       # inverse
                return "exactnum.rational" if args[0].conductor == 1 else "exactnum.cyclo"
            other = args[1]
            if not isinstance(other, scalar_types):
                return None                          # NotImplemented, no work done
            c2 = other.conductor if isinstance(other, Cyc) else 1
            return ("exactnum.rational" if args[0].conductor == 1 and c2 == 1
                    else "exactnum.cyclo")

        def scalar_after(args, result):
            lcm = args[0].conductor
            if len(args) > 1:
                lcm = math.lcm(lcm, getattr(args[1], "conductor", 1))
            if lcm == 1:
                return
            if result.conductor < lcm:
                counts["cyclo_descents"] += 1
            if lcm > counts["max_conductor"]:
                counts["max_conductor"] = lcm

        poly_types = (Poly, Cyc, int, Fraction)

        def poly_name(name):
            return lambda args: name if isinstance(args[1], poly_types) else None

        def mul_after(args, result):
            other = args[1]
            other_terms = len(other.terms) if isinstance(other, Poly) else 1
            counts["term_pairs"] += len(args[0].terms) * other_terms
            counts["product_coeffs"] += len(result.terms)
            counts["rational_product_coeffs"] += sum(
                1 for c in result.terms.values() if c.conductor == 1)

        def substitute_after(args, result):
            counts["substitute_out_terms"] += len(result.terms)

        def reduce_after(args, result):
            p = args[1]
            counts["reduce_in_terms"] += len(p.terms)
            counts["reduce_out_terms"] += len(result.terms)
            if result is p:                          # reduce returns p itself when nothing reduces
                counts["reduce_noops"] += 1

        def suite_after(args, result):
            counts["checks"] += len(result.checks)

        def fixed(name):
            return lambda args: name

        targets = [
            # (owner, attribute, name_of, after); owner None = module-level function
            (Cyc, "__add__", scalar_name, scalar_after),
            (Cyc, "__radd__", scalar_name, scalar_after),
            (Cyc, "__sub__", scalar_name, scalar_after),
            (Cyc, "__rsub__", scalar_name, scalar_after),
            (Cyc, "__mul__", scalar_name, scalar_after),
            (Cyc, "__rmul__", scalar_name, scalar_after),
            (Cyc, "inverse", scalar_name, scalar_after),
            (Cyc, "zeta", fixed("exactnum.zeta"), None),
            (None, exactnum.zeta, fixed("exactnum.zeta"), None),
            (None, exactnum.root_of_unity_order, fixed("exactnum.root_order"), None),
            (Poly, "__mul__", poly_name("multipoly.mul"), mul_after),
            (Poly, "__rmul__", poly_name("multipoly.mul"), mul_after),
            (Poly, "__add__", poly_name("multipoly.add"), None),
            (Poly, "__radd__", poly_name("multipoly.add"), None),
            (Poly, "__sub__", poly_name("multipoly.add"), None),
            (Poly, "__rsub__", poly_name("multipoly.add"), None),
            (Poly, "substitute", fixed("multipoly.substitute"), substitute_after),
            (surface.SurfaceSpec, "reduce", fixed("surface.reduce"), reduce_after),
            (diffmaps.RingMap, "__init__", fixed("diffmaps.map_init"), None),
            (None, diffmaps.check_map_well_defined, fixed("diffmaps.map_init"), None),
            (diffmaps.Derivation, "__init__", fixed("diffmaps.der_init"), None),
            (None, diffmaps.check_derivation_well_defined, fixed("diffmaps.der_init"), None),
            (diffmaps.RingMap, "apply", fixed("diffmaps.map_apply"), None),
            (diffmaps.Derivation, "apply", fixed("diffmaps.der_apply"), None),
            (None, diffmaps.commutes, fixed("diffmaps.commutes"), None),
            (None, diffmaps.is_locally_nilpotent, fixed("diffmaps.nilpotent"), None),
            (None, diffmaps.exp_derivation, fixed("diffmaps.nilpotent"), None),
            *[(None, getattr(isotropy, fn), fixed("isotropy.generator"), None)
              for fn in ("hyperbolic_rotation", "involution", "triangular",
                         "rescaling", "symmetry", "make_generator")],
            (None, isotropy.verify_isotropy_theorem, fixed("isotropy.suite"), suite_after),
            (None, isotropy.plane_example_suite, fixed("isotropy.suite"), suite_after),
            *[(None, getattr(parsing, fn), fixed("parsing"), None)
              for fn in ("parse_expression", "parse_images", "parse_surface",
                         "parse_scalar")],
            (None, cli.run, fixed("cli.run"), None),
        ]
        for owner, attr, name_of, after in targets:
            if owner is not None:
                original = owner.__dict__[attr]
                if isinstance(original, staticmethod):
                    wrapped = staticmethod(self._wrap(original.__func__, name_of, after))
                else:
                    wrapped = self._wrap(original, name_of, after)
                self._patch(owner, attr, original, wrapped)
                continue
            original = attr
            wrapped = self._wrap(original, name_of, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset``."""
        c, out = self.counts, {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        cyclo = self.calls["exactnum.cyclo"]
        out["exactnum.descent_ratio"] = c["cyclo_descents"] / cyclo if cyclo else 0.0
        out["exactnum.max_conductor"] = c["max_conductor"]
        out["multipoly.mul.term_pairs"] = c["term_pairs"]
        out["multipoly.substitute.out_terms"] = c["substitute_out_terms"]
        out["multipoly.rational_coeff_frac"] = (
            c["rational_product_coeffs"] / c["product_coeffs"] if c["product_coeffs"] else 0.0)
        reduces = self.calls["surface.reduce"]
        out["surface.reduce.in_terms"] = c["reduce_in_terms"]
        out["surface.reduce.out_terms"] = c["reduce_out_terms"]
        out["surface.reduce.noop_frac"] = c["reduce_noops"] / reduces if reduces else 0.0
        out["isotropy.checks"] = c["checks"]
        return {k: out[k] for k in PER_LAYER_UNITS if k in out}

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as gzip-compressed JSON; returns the span count."""
        data = {"names": list(SPAN_NAMES),
                "columns": ["name", "parent", "start_s", "end_s"],
                "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                "start_s": self.span_start.tolist(), "end_s": self.span_end.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as stream:
            json.dump(data, stream)
        return len(self.span_start)
