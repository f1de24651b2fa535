"""Span recording around edgekeep's public functions, from outside the package.

A Tracer rebinds a fixed list of functions to a wrapper that records one span
per call: its name, start, end, parent span and the operation it belongs to.
The wrapper is bound in every loaded edgekeep module that holds the function,
so calls between modules (filters -> texture -> kernels) are seen too, and the
originals are put back when the tracer is removed. A function the package no
longer has is reported as absent. The parent links assume one thread, which
is how every benchmark workload runs.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

#: (module, function) pairs that are traced. The module names are those the
#: functions live in at the seed commit; they name the per-layer metrics even
#: if a function later moves to another module.
TRACED = (
    ("image", "load_pnm"),
    ("image", "save_pnm"),
    ("texture", "compute_texture_map"),
    ("texture", "decompose"),
    ("texture", "local_energy"),
    ("texture", "classify"),
    ("kernels", "convolve"),
    ("kernels", "window_mean"),
    ("filters", "filter_image"),
    ("noise", "add_noise"),
    ("metrics", "evaluate_pair"),
    ("bench", "run_bench"),
)

PACKAGE = "edgekeep"


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    # Arguments or results kept for the counts; dropped once they are taken.
    detail: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def package_modules() -> list:
    """Every loaded module of the package under test."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _filter_call(arguments: dict) -> dict:
    # Enough of a filter_image call to count pixel/neighbour pair evaluations.
    img = arguments["img"]
    params = arguments.get("params")
    policy = arguments.get("policy")
    return {"pixels": img.width * img.height, "params": params,
            "policy": None if policy is None else policy.value}


def _texture_result(result) -> dict:
    return {"labels": result.labels}


_ON_CALL = {"filters.filter_image": _filter_call}
_ON_RETURN = {"texture.compute_texture_map": _texture_result}


class Tracer:
    """Records spans for calls made while it is installed.

    Use as a context manager around the calls to trace; `op` tags every span
    recorded until it is changed.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        self.absent = []
        for home, name in TRACED:
            original = getattr(by_name.get(f"{PACKAGE}.{home}"), name, None)
            if original is None:
                original = next((getattr(mod, name) for mod in modules
                                 if callable(getattr(mod, name, None))), None)
            if original is None:
                self.absent.append(f"{home}.{name}")
                continue
            wrapper = self._wrap(f"{home}.{name}", original)
            for mod in modules:
                if getattr(mod, name, None) is original:
                    self._bindings.append((mod, name, original))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._bindings):
            setattr(mod, name, original)
        self._bindings.clear()

    def _wrap(self, key: str, fn):
        signature = inspect.signature(fn)
        on_call = _ON_CALL.get(key)
        on_return = _ON_RETURN.get(key)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(key, stack[-1] if stack else None, self.op)
            if on_call is not None:
                span.detail = on_call(signature.bind(*args, **kwargs).arguments)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_return is not None:
                span.detail.update(on_return(result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def self_times(self) -> list[float]:
        """Self time of every recorded span, in recording order."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own
