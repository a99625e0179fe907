"""Per-layer tracing of jostspec from outside the package.

`from .x import f` copies the reference into the importing module, so a
wrapper installed only on `x.f` would miss `y.f`.  `Tracer.install` therefore
rebinds every module-level name in the package that refers to a traced
function, and replaces traced methods on their class.  Nothing under `src/`
changes, and `uninstall` restores every binding.

Each traced call records its self time (its span minus the spans of the
traced calls it made), one call, the sites a kernel visited, and an error
when an exception first leaves a traced call.  Aggregates and the outer spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (metric label, module, attribute path, sites visited by one call or None).
# Kernel site counts follow the kernel signatures in jostspec._kernels.
TARGETS = (
    ("kernels.jost_backward", "_kernels", "jost_backward", lambda args: len(args[0]) - 1),
    ("kernels.strip_downward", "_kernels", "strip_downward", lambda args: int(args[4])),
    ("kernels.period_products", "_kernels", "period_products", lambda args: int(args[3]) * int(args[4])),
    ("bands.band_edges", "bands", "band_edges", None),
    ("bands.admissible_intervals", "bands", "admissible_intervals", None),
    ("bands.interval_constants", "bands", "interval_constants", None),
    ("transfer.discriminant", "transfer", "discriminant", None),
    ("transfer.discriminant_derivative", "transfer", "discriminant_derivative", None),
    ("transfer.floquet_eigenvalue", "transfer", "floquet_eigenvalue", None),
    ("transfer.RenormChain", "transfer", "RenormChain.__init__", None),
    ("measures.tail_m_function", "measures", "tail_m_function", None),
    ("measures.oracle_green_11", "measures", "oracle_green_11", None),
    ("measures.density_curve", "measures", "density_curve", None),
    ("measures.entropy_integral", "measures", "entropy_integral", None),
    ("jost.jost_solution", "jost", "jost_solution", None),
    ("jost.ac_density", "jost", "ac_density", None),
    ("jost.product_representation", "jost", "product_representation", None),
    ("certify.check_floquet_bound", "certify", "check_floquet_bound", None),
    ("certify.check_w_summability", "certify", "check_w_summability", None),
    ("certify.check_diagonal_products", "certify", "check_diagonal_products", None),
    ("certify.check_harmonic_hypotheses", "certify", "check_harmonic_hypotheses", None),
    ("coefficients.coefficient_arrays", "coefficients", "CoefficientModel.coefficient_arrays", None),
    ("cli.main", "cli", "main", None),
)

# Spans are kept for cli.main and the calls it makes directly; deeper calls,
# millions per pass, are folded into the aggregates only.
SPAN_DEPTH = 2


def error_label(label):
    return label.split(".", 1)[0] + ".errors"


ERROR_LABELS = tuple(dict.fromkeys(error_label(t[0]) for t in TARGETS))


class Tracer:
    """Span and count recorder for the traced jostspec calls."""

    def __init__(self):
        self.calls = {t[0]: 0 for t in TARGETS}
        self.self_s = {t[0]: 0.0 for t in TARGETS}
        self.sites = {t[0]: 0 for t in TARGETS}
        self.errors = {label: 0 for label in ERROR_LABELS}
        # (op id, span id, parent span id, label, start, end); an op is one
        # outermost traced call, so all spans of a CLI invocation share its id.
        self.spans = []
        self._op_id = -1
        self._stack = []
        self._next_id = 0
        self._seen_errors = []
        self._saved = []

    def _wrap(self, label, fn, sites_of):
        stack = self._stack
        calls, self_s, sites, errors = self.calls, self.self_s, self.sites, self.errors
        err_label = error_label(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            if depth == 0:
                self._op_id += 1
            span_id = None
            if depth < SPAN_DEPTH:
                span_id = self._next_id
                self._next_id += 1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # An exception crossing several traced frames counts once,
                # against the innermost layer it left.
                if not any(exc is seen for seen in self._seen_errors):
                    self._seen_errors.append(exc)
                    errors[err_label] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = end - frame[0]
                calls[label] += 1
                self_s[label] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if sites_of is not None:
                    sites[label] += sites_of(args)
                if span_id is not None:
                    parent = stack[-1][2] if stack else None
                    self.spans.append((self._op_id, span_id, parent, label, frame[0], end))

        return traced

    def install(self):
        """Rebind every traced function and method to its wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "jostspec"]
        for label, module, path, sites_of in TARGETS:
            owner = sys.modules.get(f"jostspec.{module}")
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            original = getattr(owner, attr, None)
            if original is None:
                # Gone from the library: the layer reports zero calls.
                continue
            traced = self._wrap(label, original, sites_of)
            if outer:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, traced)

    def uninstall(self):
        """Restore every binding `install` replaced."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self._seen_errors.clear()
