"""Span tracing of smoothntt's public functions, installed from outside ``src/``.

Each traced function is replaced by a wrapper in every ``smoothntt`` module
namespace that holds it (``smoothntt.transform.find_generator`` and
``smoothntt.numtheory.find_generator`` are the same object, so both names are
rebound); methods are patched on their class.  Spans are kept in memory as
``(name, start_ns, end_ns, parent_index)`` and written out when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap and the self times of a tree add up to its root's duration exactly.
"""

import dataclasses
import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

import smoothntt.numtheory

# (module, attribute) pairs whose calls become spans, with the span name.
SPANNED = (
    ("field", "FieldParams.__post_init__", "field.FieldParams"),
    ("numtheory", "factorize", "numtheory.factorize"),
    ("numtheory", "find_generator", "numtheory.find_generator"),
    ("transform", "plan_transform", "transform.plan_transform"),
    ("transform", "build_twiddle_table", "transform.build_twiddle_table"),
    ("transform", "DigitPermutation.from_radices", "transform.digit_perm_build"),
    ("transform", "DigitPermutation.apply", "transform.permute"),
    ("transform", "fft_twiddle", "transform.fft_twiddle"),
    ("transform", "fft_recursive", "transform.fft_recursive"),
    ("transform", "ifft", "transform.ifft"),
    ("transform", "dft_naive", "transform.dft_naive"),
    ("transform", "idft_naive", "transform.idft_naive"),
    ("transform", "cyclic_convolve_via_fft", "transform.cyclic_convolve_via_fft"),
    ("cli", "main", "cli.main"),
    ("cli", "read_vector_file", "cli.read_vector_file"),
    ("cli", "write_vector_file", "cli.write_vector_file"),
)

KERNELS = ("transform.fft_twiddle", "transform.fft_recursive", "transform.ifft")
PLAN_BUILD = (
    "transform.plan_transform",
    "transform.build_twiddle_table",
    "transform.digit_perm_build",
)


def plan_nbytes(obj) -> int:
    """Sum of ``nbytes`` over every array reachable from a plan's fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(plan_nbytes(v) for v in obj)
    if isinstance(obj, dict):
        return sum(plan_nbytes(v) for v in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(plan_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent_index)
        self._stack: list[int] = []
        self.fp_pow_calls = 0  # fp_pow calls made from smoothntt.numtheory
        self.kernel_calls: list[tuple] = []  # (n, radices, variant)
        self.plan_bytes: list[int] = []
        self.cli_bytes: Counter = Counter()  # vector-file bytes read ("in") and written ("out")
        self._patches: list[tuple] = []

    def reset_counters(self) -> None:
        """Zero the per-op counters; spans and plan sizes are kept."""
        self.fp_pow_calls = 0
        self.kernel_calls.clear()
        self.cli_bytes.clear()

    def span(self, name: str, fn, on_return=None):
        """Wrap fn so each call records a span; on_return(args, kwargs, result) runs after it ends."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def root(self, name: str, fn):
        """Run fn() as a root span (an op or a set-up step) and return its result."""
        return self.span(name, fn)()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in every loaded smoothntt module."""
        hooks = {
            "transform.plan_transform": lambda a, k, plan: self.plan_bytes.append(
                plan_nbytes(plan)
            ),
            "cli.read_vector_file": self._file_hook("in"),
            "cli.write_vector_file": self._file_hook("out"),
        }
        for kernel in KERNELS:
            hooks[kernel] = self._kernel_hook(kernel)
        for module_name, attr, name in SPANNED:
            module = sys.modules[f"smoothntt.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._patch_method(getattr(module, cls_name), meth, name, hooks.get(name))
            else:
                original = getattr(module, attr)
                self._rebind(original, self.span(name, original, hooks.get(name)))

        original_pow = smoothntt.numtheory.fp_pow

        @functools.wraps(original_pow)
        def counted_pow(*args, **kwargs):
            self.fp_pow_calls += 1
            return original_pow(*args, **kwargs)

        self._patches.append((smoothntt.numtheory, "fp_pow", original_pow))
        smoothntt.numtheory.fp_pow = counted_pow

    def _kernel_hook(self, name: str):
        def hook(args, kwargs, result):
            plan = args[0]
            if name == "transform.ifft":
                variant = args[2] if len(args) > 2 else kwargs.get("variant", "twiddle")
            else:
                variant = "twiddle" if name == "transform.fft_twiddle" else "recursive"
            self.kernel_calls.append((plan.n, plan.radices, variant))

        return hook

    def _file_hook(self, direction: str):
        def hook(args, kwargs, result):
            self.cli_bytes[direction] += os.path.getsize(args[0])

        return hook

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "smoothntt" and not mod_name.startswith("smoothntt."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, meth: str, name: str, hook) -> None:
        descriptor = cls.__dict__[meth]
        self._patches.append((cls, meth, descriptor))
        if isinstance(descriptor, classmethod):
            setattr(cls, meth, classmethod(self.span(name, descriptor.__func__, hook)))
        else:
            setattr(cls, meth, self.span(name, descriptor, hook))

    def uninstall(self) -> None:
        """Restore every name install() rebound."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, indexed like self.spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def under(self, root_name: str) -> list[int]:
        """Indices of every span whose root span is named root_name."""
        root_of: list[int] = []
        out = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            r = i if parent == -1 else root_of[parent]
            root_of.append(r)
            if self.spans[r][0] == root_name:
                out.append(i)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
