"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer and rebinds
every name under which a package module holds them (``beran`` lives in
``survival`` but is called as ``cure.beran``, ``bootstrap.beran`` and
``experiments.beran``).  The bootstrap's internal stages have no public
entry, so the pilot-kit build and the resample draw are wrapped on
``_ResamplingKit``; a target that no longer exists is reported as
missing, so a later refactor shows up as a gap rather than as zero.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# metric stem -> (module, attribute) of a public function
FUNCTIONS = {
    "io_utils.ingest": ("npmixcure.io_utils", "ingest"),
    "io_utils.write_table": ("npmixcure.io_utils", "write_table"),
    "io_utils.write_meta": ("npmixcure.io_utils", "write_meta"),
    "bootstrap.mise_star": ("npmixcure.bootstrap", "mise_star"),
    "survival.beran": ("npmixcure.survival", "beran"),
    "kernels.nw_weights": ("npmixcure.kernels", "nw_weights"),
    "cure.latency_estimate": ("npmixcure.cure", "latency_estimate"),
    "models.generate": ("npmixcure.models", "generate"),
    "experiments.true_mise_two_bw": ("npmixcure.experiments", "true_mise_two_bw"),
    "oracle.amse": ("npmixcure.oracle", "amse"),
    "oracle.bias_variance_terms": ("npmixcure.oracle", "bias_variance_terms"),
    "oracle.phi_y_derivatives": ("npmixcure.oracle", "phi_y_derivatives"),
    "oracle.phi1": ("npmixcure.oracle", "phi1"),
    "numerics.adaptive_simpson": ("npmixcure.numerics", "adaptive_simpson"),
}
# metric stem -> (module, class, method) of a bootstrap stage
METHODS = {
    "bootstrap.kit_build": ("npmixcure.bootstrap", "_ResamplingKit", "build"),
    "bootstrap.draw": ("npmixcure.bootstrap", "_ResamplingKit", "draw"),
}
ROOT_SPAN = "cli.main"  # opened by the benchmark around each CLI call
INTEGRAND = "numerics.adaptive_simpson"


class Tracer:
    """Spans ``(id, parent, job, name, start, end)`` kept in memory.

    One thread only: the open spans form a stack, and a span's parent
    is the span open when it started.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 1
        self.job = 0
        self.integrand_evals = 0
        self.evals_per_job: dict[int, int] = {}  # completed jobs only
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.job, name, start, end))

        return traced

    def _count_integrand(self, fn):
        tracer = self

        def counted_quadrature(f, *args, **kwargs):
            def integrand(v):
                tracer.integrand_evals += 1
                return f(v)

            return fn(integrand, *args, **kwargs)

        return counted_quadrature

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target under every package name bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "npmixcure"
                                         or name.startswith("npmixcure."))]
        for stem, (module_name, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if not callable(fn):
                self.missing.append(stem)
                continue
            inner = self._count_integrand(fn) if stem == INTEGRAND else fn
            wrapper = self.wrap(stem, inner)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, name, wrapper)
        for stem, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(stem, raw.__func__)))
            elif callable(raw):
                self._set(cls, attr, self.wrap(stem, raw))
            else:
                self.missing.append(stem)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def job_profiles(spans) -> dict[int, dict]:
    """Per job and span name: ``calls``, inclusive ``s`` and ``self_s``.

    Self time is the span's duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.  The
    pseudo-span ``bootstrap.grid_fits`` is the time ``mise_star`` spent
    outside the kit build and the draws it called.
    """
    covered = defaultdict(float)
    names = {}
    for sid, parent, _, name, start, end in spans:
        covered[parent] += end - start
        names[sid] = name
    profiles = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
    for sid, parent, job, name, start, end in spans:
        profile = profiles[job]
        entry = profile[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - covered[sid]
        if name == "bootstrap.mise_star":
            profile["bootstrap.grid_fits"]["s"] += end - start
        elif names.get(parent) == "bootstrap.mise_star" and name in (
                "bootstrap.kit_build", "bootstrap.draw"):
            profile["bootstrap.grid_fits"]["s"] -= end - start
    return {job: dict(profile) for job, profile in profiles.items()}


def write_spans(path, spans, origin: float) -> None:
    """Spans as CSV, times in seconds from ``origin``."""
    with open(path, "w") as handle:
        handle.write("id,parent,job,name,start_s,end_s\n")
        for sid, parent, job, name, start, end in spans:
            handle.write(f"{sid},{parent},{job},{name},"
                         f"{start - origin:.9f},{end - origin:.9f}\n")
