"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

``Tracer.install`` replaces every public function of each module by a
wrapper, at the name its callers look up: a module attribute. Functions a
module imports from another one are wrapped there too, under the importing
module's name, so ``plate2d.pcg`` (bound by ``from .fem3d import pcg``) is a
span of its own apart from ``fem3d.pcg``. A span's layer is the part of its
name before the first dot.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index into Tracer.spans, -1 at the root
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solve_attrs(args, kwargs, out) -> dict:
    k, info = args[0], out[1]
    return {"iterations": info.iterations, "n": k.shape[0], "nnz": k.nnz,
            "index_bytes": k.indices.dtype.itemsize}


# arguments and results worth keeping, by span name
ATTRS = {
    "fem3d.pcg": _solve_attrs,
    "plate2d.pcg": _solve_attrs,
    "cell.homogenize": lambda a, kw, out: {"gamma": out.gamma},
    "fem3d.solve_clamped": lambda a, kw, out: {"h": out[0].scale},
}


# per-layer metrics that are the total time of one span name
TOTALS = {
    "fem3d.assemble_s": "fem3d.assemble",
    "fem3d.loads_s": "fem3d.corrector_loads",
    "plate2d.assemble_s": "plate2d.assemble_plate",
    "plate2d.cell_strains_s": "plate2d.cell_strains",
    "convergence.extract_kl_s": "convergence.extract_kl",
    "gclosure.sample_s": "gclosure.sample_ptheta",
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, out)
                return out
            finally:
                self._end(span)

        return traced

    def install(self, modules, package: str) -> None:
        """Wrap the public functions bound in each module of ``modules``
        that are defined somewhere in ``package``."""
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(package + ".")):
                    continue
                self._patched.append((mod, name, obj))
                setattr(mod, name, self.wrap(f"{short}.{name}", obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def _ancestor_attr(spans, span: Span, name: str, key: str):
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return span.attrs.get(key)
    return None


def gamma_key(gamma: float) -> str:
    return f"g{gamma:g}"


def h_key(h: float) -> str:
    return f"h{round(1.0 / h)}"


SOLVES = {"fem3d": ("fem3d.pcg",), "plate2d": ("plate2d.pcg",),
          "solve": ("fem3d.pcg", "plate2d.pcg")}
ASSEMBLIES = ("fem3d.assemble", "plate2d.assemble_plate")


def _solve_metrics(prefix: str, solves: list[Span]) -> dict:
    """CG metrics of the returned solves among ``solves``, named
    ``<prefix>.*``; a call that raised has no attrs and is not counted."""
    done = [s for s in solves if s.attrs]
    if not done:
        return {}
    its = sum(s.attrs["iterations"] for s in done)
    pcg_s = sum(s.seconds for s in solves)
    largest = max(done, key=lambda s: s.attrs["nnz"])
    # computed, not measured: one CSR product per iteration plus the
    # initial residual; bytes count values, column indices, row pointers,
    # one read of x and one write of y
    products = [(s.attrs["iterations"] + 1, s.attrs["n"], s.attrs["nnz"],
                 s.attrs["index_bytes"]) for s in done]
    out = {
        f"{prefix}.pcg_s": (pcg_s, "s"),
        f"{prefix}.pcg_calls": (len(done), "count"),
        f"{prefix}.pcg_iterations": (its, "count"),
        f"{prefix}.iter_per_rhs.max": (
            max(s.attrs["iterations"] for s in done), "count"),
        f"{prefix}.ndof": (largest.attrs["n"], "count"),
        f"{prefix}.nnz": (largest.attrs["nnz"], "count"),
        f"{prefix}.spmv_gflop": (
            sum(p * 2 * nnz for p, _, nnz, _ in products) / 1e9, "GFLOP"),
        f"{prefix}.spmv_gb": (
            sum(p * ((8 + ib) * nnz + ib * (n + 1) + 16 * n)
                for p, n, nnz, ib in products) / 1e9, "GB"),
    }
    if its:
        out[f"{prefix}.pcg_us_per_iter"] = (1e6 * pcg_s / its, "us")
    return out


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round; a metric appears only when
    the spans it is made of occurred.

    ``solve.*`` and ``assemble.*`` pool the 3D and 2D solves and assemblies,
    which every workload has; ``fem3d.*``, ``plate2d.*``, ``cell.*`` and the
    other module metrics split them where they occur.
    """
    out: dict[str, tuple[float, str]] = {}
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
        total[s.name] += s.seconds
        calls[s.name] += 1
    for layer, t in layer_self.items():
        out[f"{layer}.self_s"] = (t, "s")

    for metric, name in TOTALS.items():
        if calls[name]:
            out[metric] = (total[name], "s")
    if calls["fem3d.assemble"]:
        out["fem3d.assemble_calls"] = (calls["fem3d.assemble"], "count")
    if any(calls[name] for name in ASSEMBLIES):
        out["assemble.total_s"] = (sum(total[n] for n in ASSEMBLIES), "s")
        out["assemble.calls"] = (sum(calls[n] for n in ASSEMBLIES), "count")
    for prefix, names in SOLVES.items():
        out.update(_solve_metrics(prefix, [s for s in spans if s.name in names]))

    by_h: dict[str, int] = defaultdict(int)
    by_gamma: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.name != "fem3d.pcg" or not s.attrs:
            continue
        h = _ancestor_attr(spans, s, "fem3d.solve_clamped", "h")
        if h is not None:
            by_h[h_key(h)] += s.attrs["iterations"]
        g = _ancestor_attr(spans, s, "cell.homogenize", "gamma")
        if g is not None:
            by_gamma[gamma_key(g)] += s.attrs["iterations"]
    for key, n in by_h.items():
        out[f"fem3d.pcg_iterations.{key}"] = (n, "count")
    for key, n in by_gamma.items():
        out[f"cell.iterations.{key}"] = (n, "count")

    for s in spans:
        if not s.attrs:
            continue
        if s.name == "fem3d.solve_clamped":
            name = f"fem3d.solve_clamped_s.{h_key(s.attrs['h'])}"
        elif s.name == "cell.homogenize":
            name = f"cell.homogenize_s.{gamma_key(s.attrs['gamma'])}"
        else:
            continue
        out[name] = (out.get(name, (0.0, "s"))[0] + s.seconds, "s")
    return out
