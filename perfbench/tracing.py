"""Spans around the public boundaries of each ``logdiff`` module.

Only the traced run calls ``install``; untraced runs import nothing from
here.  Operators are wrapped by replacing the class attribute; plain
functions by replacing every binding of the function object in every
loaded ``logdiff`` module, since the modules import these names directly.
Each span records its boundary, its request id, its parent span, start,
end and self time (duration minus the time its child spans cover).  Spans
stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from pathlib import Path

# (layer, boundary, how to reach it): ("class", Name, attribute) wraps a
# class attribute, ("fn", name) a function.
BOUNDARIES = (
    ("polyring", "mul", ("class", "Poly", "__mul__")),
    ("polyring", "exact_divide", ("fn", "exact_divide")),
    ("polyring", "pow", ("class", "Poly", "__pow__")),
    ("weyl", "mul", ("class", "DiffOp", "__mul__")),
    ("weyl", "iterated_commutator", ("fn", "iterated_commutator")),
    ("linalg", "determinant", ("fn", "determinant")),
    ("linalg", "permanent", ("fn", "permanent")),
    ("linalg", "sym_power_matrix", ("fn", "sym_power_matrix")),
    ("jacobian", "commutator_value_matrix", ("fn", "commutator_value_matrix")),
    ("jacobian", "product_family", ("fn", "product_family")),
    ("jacobian", "higher_jacobian", ("fn", "higher_jacobian")),
    ("arrangement", "Arrangement", ("class", "Arrangement", "__init__")),
    ("arrangement", "saito_check", ("fn", "saito_check")),
    ("tangent", "decompose", ("fn", "decompose")),
    ("tangent", "reassemble", ("fn", "reassemble")),
    ("tangent", "transport", ("fn", "transport")),
    ("tangent", "tangency_table", ("fn", "tangency_table")),
    ("tangent", "is_tangent", ("fn", "is_tangent")),
    ("tangent", "is_tangent_q", ("fn", "is_tangent_q")),
    ("exprparse", "parse_diffop", ("fn", "parse_diffop")),
    ("exprparse", "render", ("fn", "render")),
    ("cli", "main", ("fn", "main")),
)
# Extra counts recorded at a boundary, beside calls and self time.
EXTRA_COUNTS = (
    "polyring.mul.term_pairs",
    "polyring.exact_divide.failed",
    "polyring.pow.exponent_sum",
    "tangent.decompose.words",
)
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, name, _ in BOUNDARIES)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.parent = array("q")
        self.request_ids = array("q")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts = Counter()
        self.active = False
        self.request = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list = []

    def open(self, name: int) -> None:
        sid = len(self.start)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request_ids.append(self.request)
        self.name.append(name)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([sid, 0.0])
        self.start.append(time.perf_counter())

    def close(self) -> None:
        end = time.perf_counter()
        sid, covered = self._stack.pop()
        duration = end - self.start[sid]
        self.end[sid] = end
        self.self_s[sid] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, index: int, fn, before=None, after=None, error=None):
        """Span around ``fn``.  ``before(args)`` may count and return False
        to call through without a span; ``after(result)`` and
        ``error(exc)`` update counts."""

        def traced(*args, **kwargs):
            if not self.active or (before is not None and not before(args)):
                return fn(*args, **kwargs)
            self.open(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                self.close()
            if after is not None:
                after(result)
            return result

        return traced

    def _hooks(self, ld) -> dict[str, dict]:
        counts = self.counts
        scalars = (int, Fraction)

        def mul(args):
            # Poly * DiffOp only returns NotImplemented; it is not a product.
            a, b = args
            if isinstance(b, ld.Poly):
                counts["polyring.mul.term_pairs"] += len(a.terms) * len(b.terms)
            elif isinstance(b, scalars):
                counts["polyring.mul.term_pairs"] += len(a.terms)
            else:
                return False
            return True

        def pow_(args):
            counts["polyring.pow.exponent_sum"] += args[1]
            return True

        def divide_failed(exc):
            if isinstance(exc, ld.NotDivisibleError):
                counts["polyring.exact_divide.failed"] += 1

        def words(result):
            counts["tangent.decompose.words"] += len(result.words)

        return {
            "polyring.mul": {"before": mul},
            "polyring.pow": {"before": pow_},
            "polyring.exact_divide": {"error": divide_failed},
            "tangent.decompose": {"after": words},
        }

    def install(self, ld) -> None:
        """Wrap every boundary of the already imported package ``ld``."""
        hooks = self._hooks(ld)
        modules = [m for name, m in sys.modules.items()
                   if name == "logdiff" or name.startswith("logdiff.")]
        for index, (layer, _, (how, *where)) in enumerate(BOUNDARIES):
            hook = hooks.get(SPAN_NAMES[index], {})
            if how == "class":
                cls = getattr(ld, where[0])
                fn = cls.__dict__[where[1]]
                setattr(cls, where[1], self._wrap(index, fn, **hook))
                self._restore.append((cls, where[1], fn))
                continue
            fn = getattr(sys.modules[f"logdiff.{layer}"], where[0])
            wrapper = self._wrap(index, fn, **hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def totals(self) -> dict[str, float]:
        """Calls and self time per boundary, plus the extra counts."""
        calls = Counter(self.name)
        self_s = [0.0] * len(SPAN_NAMES)
        for name, s in zip(self.name, self.self_s):
            self_s[name] += s
        out: dict[str, float] = {}
        for index, key in enumerate(SPAN_NAMES):
            out[f"{key}.calls"] = calls.get(index, 0)
            out[f"{key}.self_s"] = self_s[index]
        for key in EXTRA_COUNTS:
            out[key] = self.counts.get(key, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every span as a gzipped tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_s\tend_s\tself_s\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.parent[sid]}\t{self.request_ids[sid]}\t"
                          f"{SPAN_NAMES[self.name[sid]]}\t{self.start[sid]!r}\t"
                          f"{self.end[sid]!r}\t{self.self_s[sid]!r}\n")
