"""Spans around z2beta's public functions, and the per-layer metrics built
from them.

The tracer wraps each function in TRACED and installs the wrapper under
every name that holds the original in any loaded z2beta module, so calls
through ``from .x import y`` bindings are seen as well.  A span records
(name, start, end, parent, job); a span's self time is its duration minus
the time covered by its child spans.  Spans stay in memory (at most
SPAN_LIMIT of them; per-layer totals stay exact past that limit) and are
written out when the run ends.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

#: Spans kept in memory for the span file; counting continues past it.
SPAN_LIMIT = 50_000


def _bucket(sizes, value):
    """Label of the smallest size >= value, or None above the largest."""
    for size in sizes:
        if value <= size:
            return str(size)
    return None


def _degree(poly) -> int:
    return -1 if poly.is_zero() else int(poly.degree)


def _gcd_bucket(args, kwargs):
    label = _bucket((4, 8, 12), max(_degree(args[0]), _degree(args[1])))
    return f"deg{label}" if label else None


def _gcd_bits(args, result):
    bits = 0
    for poly in args[:2]:
        for c in poly.coefficients.values():
            bits = max(bits, abs(c).bit_length())
    return {"max_coeff_bits": bits}


def _order_bucket(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["order"]
    label = _bucket((32, 64, 96), order)
    return f"order{label}" if label else None


def _expand_terms(args, result):
    return {"terms": len(result)}


def _gf2_cols(args, result):
    return {"max_cols": len(args[0])}


def _cells_bucket(args, kwargs):
    label = _bucket((256, 512, 1024), len(args[0].cells))
    return f"cells{label}" if label else None


def _verb(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# (module, attribute path, bucket(args, kwargs), observe(args, result)); the
# span is named module.<first part of the path>, e.g. algebra.RationalU.
TRACED = (
    ("algebra", "poly_gcd", _gcd_bucket, _gcd_bits),
    ("algebra", "RationalU.__init__", None, None),
    ("algebra", "exact_divide", None, None),
    ("algebra", "laurent_expand", None, None),
    ("zeta", "expand_zeta", _order_bucket, _expand_terms),
    ("zeta", "zeta_equal", None, None),
    ("zeta", "check_sign_identity", None, None),
    ("zeta", "load_resolution", None, None),
    ("arcs", "compare_with_dl", None, None),
    ("arcs", "oracle_zeta", None, None),
    ("arcs", "symbolic_constraint_check", None, None),
    ("homology", "validate_complex", None, None),
    ("homology", "gf2_rank", None, _gf2_cols),
    ("homology", "equivariant_homology", None, None),
    ("homology", "equivariant_cohomology", None, None),
    ("homology", "homology_table", None, None),
    ("homology", "equivariant_betti_series", _cells_bucket, None),
    ("homology", "product_with_trivial", None, None),
    ("calculus", "VirtualClass.__post_init__", None, None),
    ("calculus", "atom_class", None, None),
    ("dsl", "parse_expression", None, None),
    ("dsl", "evaluate", None, None),
    ("cli", "main", _verb, None),
    ("cli", "format_output", None, None),
    ("verify", "run_suite", None, None),
)

#: Observed values kept as a maximum over calls; the others are summed.
_MAX_FIELDS = ("max_coeff_bits", "max_cols")

SRC_MODULES = ("__init__", "algebra", "arcs", "calculus", "cli", "complexes",
               "dsl", "errors", "homology", "verify", "zeta")

ZETA, LADDER, CLI = "zeta_series", "homology_ladder", "cli_session"

# Where each layer metric should move an end-to-end metric: (workload,
# metric) pairs.  The first workload must exercise the layer: a traced run
# of it that records no call for the metric fails.
GCD = ((ZETA, "wall_s"), (CLI, "job_p50_ms"))
NORMALISE = ((ZETA, "wall_s"), (ZETA, "job_tail_ms"))
LAURENT = ((CLI, "job_p50_ms"),)
ZETA_WALL = ((ZETA, "wall_s"),)
LADDER_WALL = ((LADDER, "wall_s"),)
RANK = ((LADDER, "wall_s"), (LADDER, "job_tail_ms"))
CLASSES = ((CLI, "job_p50_ms"), (ZETA, "wall_s"))
CLI_CALL = ((CLI, "job_p50_ms"),)
CLI_TAIL = ((CLI, "job_tail_ms"),)

UNITS = {"calls": "count", "self_s": "s", "max_coeff_bits": "bits",
         "terms": "count", "max_cols": "count", "overhead_ratio": "ratio"}

_LAYER_MOVES = (
    ("algebra.poly_gcd.calls", GCD),
    ("algebra.poly_gcd.self_s", GCD),
    ("algebra.poly_gcd.max_coeff_bits", GCD),
    ("algebra.poly_gcd.deg4.self_s", GCD),
    ("algebra.poly_gcd.deg8.self_s", GCD),
    ("algebra.poly_gcd.deg12.self_s", GCD),
    ("algebra.RationalU.calls", NORMALISE),
    ("algebra.RationalU.self_s", NORMALISE),
    ("algebra.exact_divide.calls", NORMALISE),
    ("algebra.exact_divide.self_s", NORMALISE),
    ("algebra.laurent_expand.calls", LAURENT),
    ("algebra.laurent_expand.self_s", LAURENT),
    ("zeta.expand_zeta.calls", NORMALISE),
    ("zeta.expand_zeta.self_s", NORMALISE),
    ("zeta.expand_zeta.terms", NORMALISE),
    ("zeta.expand_zeta.order32.self_s", NORMALISE),
    ("zeta.expand_zeta.order64.self_s", NORMALISE),
    ("zeta.expand_zeta.order96.self_s", NORMALISE),
    ("zeta.zeta_equal.self_s", ZETA_WALL),
    ("zeta.check_sign_identity.self_s", ZETA_WALL),
    ("zeta.load_resolution.self_s", ZETA_WALL + ((ZETA, "setup_s"),)),
    ("arcs.compare_with_dl.self_s", ZETA_WALL),
    ("arcs.oracle_zeta.self_s", ZETA_WALL),
    ("arcs.symbolic_constraint_check.calls", ZETA_WALL),
    ("arcs.symbolic_constraint_check.self_s", ZETA_WALL),
    ("homology.validate_complex.calls", LADDER_WALL),
    ("homology.validate_complex.self_s", LADDER_WALL),
    ("homology.gf2_rank.calls", RANK),
    ("homology.gf2_rank.self_s", RANK),
    ("homology.gf2_rank.max_cols", RANK),
    ("homology.equivariant_homology.self_s", LADDER_WALL),
    ("homology.equivariant_cohomology.self_s", LADDER_WALL),
    ("homology.homology_table.self_s", LADDER_WALL),
    ("homology.equivariant_betti_series.cells256.self_s", LADDER_WALL),
    ("homology.equivariant_betti_series.cells512.self_s", LADDER_WALL),
    ("homology.equivariant_betti_series.cells1024.self_s", LADDER_WALL),
    ("homology.product_with_trivial.self_s", ((LADDER, "setup_s"),)),
    ("calculus.VirtualClass.calls", CLASSES),
    ("calculus.atom_class.self_s", CLASSES),
    ("dsl.parse_expression.self_s", CLI_CALL),
    ("dsl.evaluate.self_s", CLI_CALL),
    ("cli.main.eval.self_s", CLI_CALL),
    ("cli.main.homology.self_s", CLI_CALL),
    ("cli.main.zeta.self_s", CLI_CALL),
    ("cli.main.oracle.self_s", CLI_CALL),
    ("cli.main.verify.self_s", CLI_TAIL),
    ("cli.format_output.self_s", CLI_CALL),
    ("verify.run_suite.self_s", CLI_TAIL),
    # traced over untraced pass time, on every workload
    ("trace.overhead_ratio", ()),
)

#: (metric, unit, moves) for every per-layer metric, in BENCHMARK.json order;
#: src_lines.<module> is the module's line count and moves no timing.
PER_LAYER = tuple((name, UNITS[name.rpartition(".")[2]], moves)
                  for name, moves in _LAYER_MOVES) \
    + tuple((f"src_lines.{module}", "lines", ())
            for module in SRC_MODULES + ("total",))


class Tracer:
    """Records spans and per-name totals while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.job = None
        self.stats = {}      # phase -> key -> [calls, self_s]
        self.observed = {}   # phase -> field key -> value
        self.spans = []
        self.dropped = 0
        self._stack = []     # [span id, child time] per open span
        self._next_id = 0
        self._patches = []   # (owner, attribute, original)

    # -- installation ----------------------------------------------------------

    def install(self, z):
        """Wrap every function in TRACED under all of its bindings."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "z2beta" or name.startswith("z2beta.")]
        for module_name, path, bucket, observe in TRACED:
            owner = getattr(z, module_name)
            span = f"{module_name}.{path.split('.')[0]}"
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, bucket, observe)
            self._patch(owner, attr, original, wrapper)
            if not outer:  # module-level function: rebind every import
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        stale = [f"{m.__name__}.{name}" for m in modules
                 for name, value in vars(m).items()
                 if any(value is orig for _, _, orig in self._patches)]
        if stale:
            raise RuntimeError("untraced bindings left: " + ", ".join(stale))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        if getattr(owner, attr) is original:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))

    def _wrap(self, fn, span, bucket, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(span, bucket and bucket(args, kwargs),
                               duration - frame[1])
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((span, start, end, span_id, parent,
                                         tracer.job))
                else:
                    tracer.dropped += 1
            if observe:
                tracer._observe(span, observe(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- recording -------------------------------------------------------------

    def _record(self, span, label, self_s):
        table = self.stats.setdefault(self.phase, {})
        for key in (span, f"{span}.{label}") if label else (span,):
            entry = table.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s

    def _observe(self, span, values):
        table = self.observed.setdefault(self.phase, {})
        for field, value in values.items():
            key = f"{span}.{field}"
            if field in _MAX_FIELDS:
                table[key] = max(table.get(key, 0), value)
            else:
                table[key] = table.get(key, 0) + value

    # -- results ---------------------------------------------------------------

    def value(self, metric: str):
        """Setup-phase value plus the median over traced passes.

        Returns (value, calls) where calls counts the calls behind it."""
        key, _, field = metric.rpartition(".")
        passes = [p for p in self.stats if p != "setup"]

        def per_phase(phase):
            if field in ("calls", "self_s"):
                entry = self.stats.get(phase, {}).get(key, [0, 0.0])
                return entry[0] if field == "calls" else entry[1]
            return self.observed.get(phase, {}).get(metric, 0)

        def calls(phase):
            return self.stats.get(phase, {}).get(key, [0, 0.0])[0]

        median_pass = statistics.median(per_phase(p) for p in passes) \
            if passes else 0
        if field in _MAX_FIELDS:
            value = max([per_phase("setup")] + [per_phase(p) for p in passes])
        else:
            value = per_phase("setup") + median_pass
        return value, calls("setup") + sum(calls(p) for p in passes)

    def span_dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["name", "start_s", "end_s", "id", "parent", "job"],
            "names": names,
            "dropped": self.dropped,
            "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4],
                       s[5]] for s in self.spans],
        }
