"""Span tracer that wraps entrank's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span) in memory;
nothing is written until `Tracer.layer_metrics` runs at the end of the main
phase. A function is replaced in every entrank module that holds a reference
to it, so calls through `from .x import f` bindings inside the package are
seen too; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, attribute or Class.method, span name)
TARGETS = (
    ("entrank.scan", "point_record", "scan.point_record"),
    ("entrank.scan", "g_value", "scan.g_value"),
    ("entrank.scan", "phi_v", "scan.phi_v"),
    ("entrank.scan", "lattice_shell_points", "scan.lattice_shell_points"),
    ("entrank.numberfield", "NumberField.pow_vector", "numberfield.pow_vector"),
    ("entrank.numberfield", "NumberField.inv", "numberfield.inv"),
    ("entrank.numberfield", "NumberField.norm", "numberfield.norm"),
    ("entrank.numberfield", "ord_v", "numberfield.ord_v"),
    ("entrank.numberfield", "compare_abs_to_one", "numberfield.compare_abs_to_one"),
    ("entrank.numberfield", "log_abs_v_ball", "numberfield.log_abs_v_ball"),
    ("entrank.numberfield", "embeddings", "numberfield.embeddings"),
    ("entrank.numberfield", "build_field", "numberfield.build_field"),
    ("entrank.numberfield", "finite_places_above", "numberfield.finite_places_above"),
    ("entrank.polyfactor", "gf_factor", "polyfactor.gf_factor"),
    ("entrank.polyfactor", "hensel_lift_factors", "polyfactor.hensel_lift_factors"),
    ("entrank.polyfactor", "irreducible_over_q", "polyfactor.irreducible_over_q"),
    ("entrank.algebra", "resultant", "algebra.resultant"),
    ("entrank.algebra", "factor_int", "algebra.factor_int"),
    ("entrank.action", "parse_spec", "action.parse_spec"),
    ("entrank.action", "place_spec", "action.place_spec"),
    ("entrank.action", "mixing_check", "action.mixing_check"),
    ("entrank.counting", "count_composite", "counting.count_composite"),
    ("entrank.counting", "count_prime_char0", "counting.count_prime_char0"),
    ("entrank.counting", "count_prime_charp", "counting.count_prime_charp"),
    ("entrank.groebner", "GroebnerBasis.__init__", "groebner.build"),
    ("entrank.groebner", "GroebnerBasis.normal_form", "groebner.normal_form"),
    ("entrank.groebner", "GroebnerBasis.standard_monomial_count",
     "groebner.standard_monomial_count"),
    ("entrank.entropy", "entropy_function_of", "entropy.entropy_function_of"),
    ("entrank.entropy", "directional_entropy", "entropy.directional_entropy"),
    ("entrank.entropy", "sphere_extrema", "entropy.sphere_extrema"),
    ("entrank.entropy", "nonexpansive_candidates", "entropy.nonexpansive_candidates"),
    ("entrank.entropy", "mahler_measure", "entropy.mahler_measure"),
)

# Per-layer metrics in output order: (name, unit). Spans named in TARGETS
# give `.calls` and `.self_s`; the rest are derived in `layer_metrics`.
LAYER_METRICS = (
    ("scan.point_record.calls", "count"),
    ("scan.point_record.p50_ms", "ms"),
    ("scan.point_record.p99_ms", "ms"),
    ("scan.g_value.self_s", "s"),
    ("scan.phi_v.calls", "count"),
    ("scan.phi_v.self_s", "s"),
    ("scan.lattice_shell_points.self_s", "s"),
    ("numberfield.pow_vector.calls", "count"),
    ("numberfield.pow_vector.per_point", "calls/point"),
    ("numberfield.inv.calls", "count"),
    ("numberfield.inv.self_s", "s"),
    ("numberfield.norm.calls", "count"),
    ("numberfield.norm.self_s", "s"),
    ("numberfield.ord_v.calls", "count"),
    ("numberfield.ord_v.self_s", "s"),
    ("numberfield.pow_cache.hit_ratio", "ratio"),
    ("numberfield.compare_abs_to_one.calls", "count"),
    ("numberfield.compare_abs_to_one.self_s", "s"),
    ("numberfield.compare_abs_to_one.ties", "count"),
    ("numberfield.log_abs_v_ball.calls", "count"),
    ("numberfield.log_abs_v_ball.self_s", "s"),
    ("numberfield.embeddings.calls", "count"),
    ("numberfield.embeddings.prec_escalations", "count"),
    ("numberfield.build_field.self_s", "s"),
    ("numberfield.finite_places_above.self_s", "s"),
    ("polyfactor.gf_factor.calls", "count"),
    ("polyfactor.gf_factor.self_s", "s"),
    ("polyfactor.hensel_lift_factors.self_s", "s"),
    ("polyfactor.irreducible_over_q.self_s", "s"),
    ("algebra.resultant.calls", "count"),
    ("algebra.resultant.self_s", "s"),
    ("algebra.factor_int.self_s", "s"),
    ("action.parse_spec.self_s", "s"),
    ("action.place_spec.calls", "count"),
    ("action.place_spec.self_s", "s"),
    ("action.mixing_check.self_s", "s"),
    ("counting.count_composite.calls", "count"),
    ("counting.count_composite.self_s", "s"),
    ("counting.count_prime_char0.calls", "count"),
    ("counting.count_prime_char0.self_s", "s"),
    ("counting.count_prime_charp.calls", "count"),
    ("counting.count_prime_charp.self_s", "s"),
    ("groebner.build.calls", "count"),
    ("groebner.build.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.useful_reduction_ratio", "ratio"),
    ("groebner.basis_size", "count"),
    ("groebner.standard_monomial_count.self_s", "s"),
    ("entropy.entropy_function_of.self_s", "s"),
    ("entropy.directional_entropy.calls", "count"),
    ("entropy.directional_entropy.self_s", "s"),
    ("entropy.sphere_extrema.self_s", "s"),
    ("entropy.nonexpansive_candidates.self_s", "s"),
    ("entropy.mahler_measure.calls", "count"),
    ("entropy.mahler_measure.self_s", "s"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records nested spans and a few counters while `enabled` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.enabled = False
        self.ties = 0
        self.prec_escalations = 0
        self.nonzero_normal_forms = 0
        self.basis_sizes: list[int] = []

    def install(self) -> None:
        from entrank.numberfield import DEFAULT_PREC

        hooks = {
            "numberfield.compare_abs_to_one": self._tie_hook,
            "numberfield.embeddings": self._make_prec_hook(DEFAULT_PREC),
            "groebner.normal_form": self._normal_form_hook,
            "groebner.build": self._build_hook,
        }
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "entrank" or k.startswith("entrank."))]
        for module_name, path, span in TARGETS:
            owner, attr = _resolve(module_name, path)
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, span, hooks.get(span))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, span: str, hook):
        name_id = len(self.names)
        self.names.append(span)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    # -- counters read from arguments and results ----------------------------

    def _tie_hook(self, args, _kwargs, out) -> None:
        place = args[0]
        # 0 at an archimedean place of a field of degree > 1 is the silent
        # tie at maximum precision; elsewhere 0 is an exact answer.
        if out == 0 and place.kind == "arch" and place.field.degree > 1:
            self.ties += 1

    def _make_prec_hook(self, default_prec: int):
        def hook(args, kwargs, _out) -> None:
            prec = args[1] if len(args) > 1 else kwargs.get("prec", default_prec)
            if prec > default_prec:
                self.prec_escalations += 1
        return hook

    def _normal_form_hook(self, _args, _kwargs, out) -> None:
        if out:
            self.nonzero_normal_forms += 1

    def _build_hook(self, args, _kwargs, _out) -> None:
        self.basis_sizes.append(len(args[0].basis))

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self times; self time = span duration minus the
        part covered by its child spans."""
        import entrank.numberfield as nf

        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        child_ns = [0] * len(self.spans)
        point_ms: list[float] = []
        point_id = self.names.index("scan.point_record")
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, _parent = span
            calls[name_id] += 1
            self_ns[name_id] += (end - start) - child_ns[idx]
            if name_id == point_id:
                point_ms.append((end - start) / 1e6)

        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_ns[i] / 1e9
        points = out["scan.point_record.calls"]
        out["scan.point_record.p50_ms"] = statistics.median(point_ms) if point_ms else 0.0
        out["scan.point_record.p99_ms"] = (
            statistics.quantiles(point_ms, n=100)[98] if len(point_ms) >= 2 else 0.0)
        out["numberfield.pow_vector.per_point"] = (
            out["numberfield.pow_vector.calls"] / points if points else 0.0)
        info = nf._pow_cached.cache_info()
        lookups = info.hits + info.misses
        out["numberfield.pow_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["numberfield.compare_abs_to_one.ties"] = self.ties
        out["numberfield.embeddings.prec_escalations"] = self.prec_escalations
        nf_calls = out["groebner.normal_form.calls"]
        out["groebner.useful_reduction_ratio"] = (
            self.nonzero_normal_forms / nf_calls if nf_calls else 0.0)
        out["groebner.basis_size"] = (
            statistics.mean(self.basis_sizes) if self.basis_sizes else 0.0)
        return {name: out[name] for name, _unit in LAYER_METRICS}
