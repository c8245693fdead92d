"""Outside-in layer tracing by patching glnlab attributes at run time.

The library carries no instrumentation, so the traced run wraps the
public functions of each layer module (and the ``Mat`` and ring methods
of ``rings``) from here.  Each wrapper is a span: it records calls and
self seconds, its duration minus the part its child spans cover.  Ring
element ``*`` and ``+`` run millions of times per request, so they are
counted, not timed; their time stays in the caller's span.  Spans are
aggregated by name in memory; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from workloads import coset_count, dominant_count, hermite_candidates

LAYERS = ("rings", "roots", "lang", "building", "hecke", "lfactor")

# hot leaf helpers whose per-call cost is far below a span's own cost;
# their time stays in the calling span
UNTIMED = {"hecke.vp", "hecke.is_dominant", "roots.inner"}

RING_METHODS = {
    "Mat": {"__mul__": "mat_mul", "inverse": "mat_inverse", "det": "mat_det",
            "__add__": "mat_add", "sigma": "mat_sigma", "scale": "mat_scale",
            "transpose": "mat_transpose", "from_ints": "mat_from_ints",
            "identity": "mat_identity"},
    "FiniteField": {"__init__": "ring_init"},
    "TruncatedLocalRing": {"__init__": "ring_init"},
}
ELEMENT_CLASSES = ("FqElement", "LocalRingElement")
MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.spans = {}      # name -> [calls, self seconds]
        self.counts = {}     # name -> number
        self._stack = [0.0]  # child seconds of each open span
        self.cli_self_s = 0.0  # request time outside every layer span
        self._patches = []   # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------
    def _span(self, name, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _counter(self, name, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _add(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- counters computed from a call's arguments and result -------------
    def _after_gl_elements(self, args, kwargs, result):
        ring = args[0]
        s = args[1] if len(args) > 1 else kwargs["s"]
        size = ring.size() if hasattr(ring, "size") else ring.q
        self._add("lang.gl_elements.candidates", size ** (s * s))
        self._add("lang.gl_elements.kept", len(result))

    def _after_coset_decompose(self, args, kwargs, result):
        lam, p = tuple(args[0]), args[2]
        self._add("hecke.coset_decompose.candidates",
                  hermite_candidates(lam, p))
        self._add("hecke.coset_decompose.kept", len(result))

    def _after_convolve(self, args, kwargs, result):
        f, g = args[0], args[1]
        n, p = f.n, f.p
        pairs = 0
        for lam in f.support:
            for mu in g.support:
                pairs += (dominant_count(lam[-1] + mu[-1], lam[0] + mu[0], n,
                                         sum(lam) + sum(mu))
                          * coset_count(lam, p) * coset_count(mu, p))
        self._add("hecke.convolve.pairs_tested", pairs)
        # structure constants are readable only for basis elements
        if len(f.support) == len(g.support) == 1:
            c = next(iter(f.support.values())) * next(iter(g.support.values()))
            if not c.b and c.a:
                self._add("hecke.convolve.hits_pairs", pairs)
                self._add("hecke.convolve.hits",
                          sum(v.a for v in result.support.values()) / c.a)

    # -- install / uninstall ---------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = {layer: importlib.import_module(f"glnlab.{layer}")
                   for layer in LAYERS}
        importlib.import_module("glnlab.cli")
        after = {"lang.gl_elements": self._after_gl_elements,
                 "hecke.coset_decompose": self._after_coset_decompose,
                 "hecke.convolve": self._after_convolve}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTIMED
                        or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._span(name, fn, after.get(name))
                self._patch(mod, attr, wrapper)
                replaced[id(fn)] = (fn, wrapper)
        rings = modules["rings"]
        for cls_name, methods in RING_METHODS.items():
            cls = getattr(rings, cls_name)
            for attr, short in methods.items():
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(f"rings.{short}",
                                                 raw.__func__))
                else:
                    new = self._span(f"rings.{short}", raw)
                self._patch(cls, attr, new)
        for cls_name in ELEMENT_CLASSES:
            cls = getattr(rings, cls_name)
            self._patch(cls, "__mul__",
                        self._counter("rings.elem_mul.calls", cls.__mul__))
            self._patch(cls, "__add__",
                        self._counter("rings.elem_add.calls", cls.__add__))
        # rebind names other modules imported with "from .x import f"
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("glnlab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def exclude(self, seconds):
        """Leave seconds spent outside the program (a host-speed sample)
        out of the self time of the innermost open span."""
        self._stack[-1] += seconds

    # -- requests and results ---------------------------------------------
    def request(self, fn, *args):
        """Run one request as the root span; returns (result, wall, layer
        self seconds inside it)."""
        before = sum(stat[1] for stat in self.spans.values())
        self._stack[0] = 0.0
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        inside = sum(stat[1] for stat in self.spans.values()) - before
        self.cli_self_s += wall - self._stack[0]
        return result, wall, inside

    def layer_metrics(self):
        """Per-layer metrics keyed as in BENCHMARK.json (without units)."""
        span = self.spans
        count = self.counts

        def calls(name):
            return span.get(name, [0, 0.0])[0]

        def secs(name):
            return span.get(name, [0, 0.0])[1]

        def ratio(num, den):
            den = count.get(den, 0)
            return count.get(num, 0) / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                st[1] for name, st in span.items()
                if name.split(".", 1)[0] == layer)
        out.update({
            "rings.elem_mul.calls": count.get("rings.elem_mul.calls", 0),
            "rings.elem_add.calls": count.get("rings.elem_add.calls", 0),
        })
        for short in ("mat_mul", "mat_inverse", "mat_det", "ring_init"):
            out[f"rings.{short}.calls"] = calls(f"rings.{short}")
            out[f"rings.{short}.s"] = secs(f"rings.{short}")
        out["lang.gl_elements.calls"] = calls("lang.gl_elements")
        for name in ("lang.gl_elements", "lang.h1_cyclic",
                     "lang.twisted_classes", "lang.lang_image",
                     "lang.lang_preimage", "lang.dm_bijection_check",
                     "hecke.coset_decompose", "hecke.convolve",
                     "hecke.satake_transform", "hecke.satake_by_coset_count",
                     "building.iwasawa_decompose", "roots.weyl_group"):
            out[f"{name}.s"] = secs(name)
        out["lang.gl_elements.kept_ratio"] = ratio(
            "lang.gl_elements.kept", "lang.gl_elements.candidates")
        out["hecke.coset_decompose.calls"] = calls("hecke.coset_decompose")
        out["hecke.coset_decompose.kept_ratio"] = ratio(
            "hecke.coset_decompose.kept", "hecke.coset_decompose.candidates")
        out["hecke.convolve.pairs_tested"] = count.get(
            "hecke.convolve.pairs_tested", 0)
        out["hecke.convolve.hit_ratio"] = float(ratio(
            "hecke.convolve.hits", "hecke.convolve.hits_pairs"))
        out["building.iwasawa_decompose.calls"] = calls(
            "building.iwasawa_decompose")
        out["lfactor.l_factor.calls"] = calls("lfactor.l_factor")
        out["cli.self_s"] = self.cli_self_s
        return out


def installed_wrappers():
    """Names of glnlab attributes that currently hold a tracing wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("glnlab"):
            continue
        for attr, value in vars(mod).items():
            owners = [(attr, value)]
            if isinstance(value, type):
                owners = [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            for name, obj in owners:
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, MARK):
                    found.append(f"{mod_name}.{name}")
    return found

