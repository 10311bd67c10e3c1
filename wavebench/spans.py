"""Span tracing around wavetrap's public functions, from outside the package.

Tracer.install replaces each named function with a wrapper in every
wavetrap module that imported it, so calls made through `from .x import f`
are seen too.  A span is (name, start, end, parent, item, info); spans stay
in memory until the run writes them out.  A span's self time is its length
minus the time its child spans cover, minus the time the tracer itself spent
computing child span info; its net time (Span.net) is its length minus the
info time of all its descendants.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute or Class.method, span name): the functions whose spans a
# per-layer metric reads, and nothing else, so the traced pass pays for no
# span that no metric uses.  The info hooks below name the few whose
# arguments or results the metrics need.
TRACED = (
    ("circle_map", "power_break_data", "circle_map.power_break_data"),
    ("circle_map", "lift_iter", "circle_map.lift_iter"),
    ("rotation", "compare_rho", "rotation.compare_rho"),
    ("rotation", "rho_certify", "rotation.rho_certify"),
    ("families", "FamilyMaasTau.build", "families.build"),
    ("tongues", "tongue_interval", "tongues.tongue_interval"),
    ("tongues", "render_phase_diagram", "tongues.render_phase_diagram"),
    ("classify", "classify", "classify.classify"),
    ("classify", "fixed_set", "classify.fixed_set"),
    ("tracer", "trace_segments", "tracer.trace_segments"),
    ("dilation", "reduce_direction", "dilation.reduce_direction"),
    ("dilation", "closed_leaf_exists", "dilation.closed_leaf_exists"),
    ("reports", "write_scan_csv", "reports.write_scan_csv"),
    ("cli", "main", "cli.main"),
)


def _bits(x) -> int:
    return int(x.numerator).bit_length() + int(x.denominator).bit_length()


def _lift_key(L):
    return hash((L.breaks, L.slopes, L.values))


def _arg(a, kw, pos, name, default=None):
    if len(a) > pos:
        return a[pos]
    return kw.get(name, default)


def _info_power_break_data(a, kw, out):
    vals = list(out.breaks) + list(out.disp)
    return {"q": out.q, "bits": max(_bits(v) for v in vals) if vals else 0}


def _info_compare_rho(a, kw, out):
    return {"lift": _lift_key(a[0]), "p": a[1], "q": a[2], "rel": out.rel}


def _info_rho_certify(a, kw, out):
    kind = "enclosure" if hasattr(out, "lo") else "certified"
    return {"outcome": kind, "q_max": _arg(a, kw, 1, "q_max", 2000)}


def _info_closed_leaf(a, kw, out):
    return {"m": str(a[0]), "s": str(a[1]), "q_max": _arg(a, kw, 2, "q_max", 2000)}


def _info_reduce(a, kw, out):
    return {"steps": out.steps, "status": out.status}


def _info_cli(a, kw, out):
    argv = _arg(a, kw, 0, "argv") or []
    words = [w for w in argv[:2] if not w.startswith("-")]
    if words[:1] in (["map"], ["tongue"], ["dilation"]):
        return {"sub": "_".join(words[:2])}
    return {"sub": words[0] if words else "?"}


INFO: Dict[str, Callable] = {
    "circle_map.power_break_data": _info_power_break_data,
    "rotation.compare_rho": _info_compare_rho,
    "rotation.rho_certify": _info_rho_certify,
    "dilation.closed_leaf_exists": _info_closed_leaf,
    "dilation.reduce_direction": _info_reduce,
    "cli.main": _info_cli,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "info", "info_s", "hook_s")

    def __init__(self, name, parent, item):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = 0.0
        self.info = None
        self.info_s = 0.0  # tracer time spent on info after the span ended
        self.hook_s = 0.0  # info time of descendants, inside [start, end]

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def net(self) -> float:
        return self.end - self.start - self.hook_s


class Tracer:
    """Collects spans while enabled; installed wrappers cost one flag test when not."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self.item: Optional[str] = None
        self._stack: List[int] = []
        self._restore: List = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import wavetrap.cli  # noqa: F401  (with the package, loads every submodule)

        mods = [m for n, m in sys.modules.items() if n == "wavetrap" or n.startswith("wavetrap.")]
        for mod_name, attr, span_name in TRACED:
            mod = sys.modules[f"wavetrap.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span_name, orig)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._restore.append((m, k, orig))
                        setattr(m, k, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        info_fn = INFO.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            sp = Span(name, stack[-1] if stack else -1, self.item)
            stack.append(len(spans))
            spans.append(sp)
            sp.start = clock()
            try:
                out = fn(*a, **kw)
            finally:
                sp.end = clock()
                stack.pop()
            if info_fn is not None:
                sp.info = info_fn(a, kw, out)
                sp.info_s = clock() - sp.end
            if stack:
                spans[stack[-1]].hook_s += sp.hook_s + sp.info_s
            return out

        return wrapper

    # -- spans owned by the benchmark itself ----------------------------

    def item_span(self, item_id: str):
        return _ItemSpan(self, item_id)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                covered[sp.parent] += sp.dur + sp.info_s
        return [sp.dur - covered[i] for i, sp in enumerate(self.spans)]

    def dump(self) -> List[list]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            [sp.name, round(sp.start - t0, 7), round(sp.end - t0, 7), sp.parent, sp.item,
             _jsonable(sp.info)]
            for sp in self.spans
        ]


class _ItemSpan:
    def __init__(self, tracer: Tracer, item_id: str):
        self.tracer = tracer
        self.item_id = item_id

    def __enter__(self):
        t = self.tracer
        self.prev = t.item
        t.item = self.item_id
        if t.enabled:
            self.sp = Span("item", t._stack[-1] if t._stack else -1, self.item_id)
            t._stack.append(len(t.spans))
            t.spans.append(self.sp)
            self.sp.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            self.sp.end = time.perf_counter()
            t._stack.pop()
        t.item = self.prev
        return False


def _jsonable(info):
    if info is None:
        return None
    return {k: (v if isinstance(v, (int, float, str, bool)) or v is None else str(v))
            for k, v in info.items()}
