"""Outside-in tracing of cliffcat's layers.

Each traced function is replaced by a wrapper at every place where a caller
looks it up: the module attribute of its home module, every module that
imported it by name (``catun.tensor_f2``, ``bimodule.verify_mc``,
``boxalgebra.box_arrow_targets``, ...) and, for methods, the class
attribute.  A wrapper records calls, inclusive time and self time per
metric name, plus a few counts taken from arguments or results.  Spans of
the first ops are also kept with their parent and op id.  The program's
``lru_cache`` objects stay in place behind the wrappers, so their
``cache_info()`` is read unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "cliffcat"
MARKER = "__perfbench_span__"

# metric name -> traced functions, as "module.attr" or "module.Class.attr"
SPANS = {
    "kzero.mult": ["kzero.mult"],
    "kzero.mult_mono": ["kzero.mult_mono"],
    "kzero.higher_mult": ["kzero.higher_mult"],
    "kzero.m_slices": ["kzero.m_slices"],
    "laurent.arith": [
        "laurent.LaurentZ.__add__",
        "laurent.LaurentZ.__mul__",
        "laurent.LaurentZH.__add__",
        "laurent.LaurentZH.__mul__",
    ],
    "laurent.specialize_h": ["laurent.LaurentZH.specialize_h"],
    "quiver.box_arrow_targets": ["quiver.box_arrow_targets"],
    "boxalgebra.build_all": ["boxalgebra.BoxAlgebra.build_all"],
    "boxalgebra.normal_form": ["boxalgebra.BoxAlgebra.normal_form"],
    "boxalgebra.hom_basis": ["boxalgebra.BoxAlgebra.hom_basis"],
    "boxalgebra.cohomology_dims": ["boxalgebra.BoxAlgebra.cohomology_dims"],
    "boxalgebra.diff": ["boxalgebra.BoxAlgebra.diff"],
    "boxalgebra.h_map": ["boxalgebra.BoxAlgebra.h_map"],
    "gf2.rank": ["gf2.rank"],
    "gf2.solve": ["gf2.solve"],
    "ralgebra.mult_r": ["ralgebra.mult_r"],
    "ralgebra.mult_rr": ["ralgebra.mult_rr"],
    "complexes.tensor_f2": ["complexes.tensor_f2"],
    "complexes.lift_to_box": ["complexes.lift_to_box"],
    "complexes.delta_square": ["complexes.delta_square"],
    "complexes.verify_mc": ["complexes.verify_mc"],
    "bimodule.tensor_T": ["bimodule.tensor_T"],
    "bimodule.act_element": ["bimodule.act_element"],
    "bimodule.right_act_chainmap": ["bimodule.right_act_chainmap"],
    "bimodule.t_pair": ["bimodule.t_pair"],
    "catun.lift_word": ["catun.lift_word"],
    "catun.rho": ["catun.rho"],
}

# metric prefix -> lru_cache whose currsize and hit ratio are reported
CACHES = {
    "kzero.pair_data": "kzero.pair_data",
    "ralgebra.forced_pairs": "ralgebra.forced_pairs",
    "bimodule.t_pair": "bimodule.t_pair",
}

# Counted, not timed: classes built per source by the lazy box build.
CLASS_BUILD = "boxalgebra.BoxAlgebra._build_from"

LOG_OPS = 2  # ops whose spans are kept one by one
LOG_CAP = 20000  # at most this many kept spans

SPAN_FIELDS = (("calls", "count"), ("incl_s", "s"), ("self_s", "s"))
COUNT_UNITS = {
    "boxalgebra.classes": "count",
    "gf2.rank.rows": "count",
    "gf2.solve.rows": "count",
    "catun.rho.summands_out": "count",
    "catun.rho.delta_out": "count",
}


def resolve(target):
    """(holder, attribute, object) for "module.attr" or "module.Class.attr"."""
    parts = target.split(".")
    holder = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        holder = getattr(holder, part)
    return holder, parts[-1], getattr(holder, parts[-1])


def binding_sites(holder, original):
    """Every (namespace, name) through which callers reach ``original``."""
    if isinstance(holder, type):
        spaces = [holder]
    else:
        spaces = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == PACKAGE]
    return [
        (space, name)
        for space in spaces
        for name, value in list(vars(space).items())
        if value is original
    ]


def assert_unwrapped():
    """Raise if a loaded cliffcat module or class holds a tracing wrapper."""
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] != PACKAGE:
            continue
        classes = [v for v in vars(mod).values() if isinstance(v, type)]
        for space in [mod] + classes:
            for attr, value in vars(space).items():
                if hasattr(value, MARKER):
                    raise RuntimeError(f"{name}.{attr} is wrapped in an untraced run")


class Tracer:
    """Per-name call counts and times, recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.stats = {}  # metric -> [calls, incl_s, self_s, depth]
        self.counts = dict.fromkeys(COUNT_UNITS, 0)
        self.slices = [0, 0]  # m_slices results: all, with a monomial
        self.caches = {}  # metric -> cache_info of the program's lru_cache
        self.lookups = {}  # metric -> [hits, misses, currsize] over the ops
        self._before = {}
        self.missing = []
        self.stack = []  # open frames: [child_s, log_index]
        self.op = None
        self.logging = False
        self.spans = []  # [op, parent index, name, start_s, dur_s]
        self._op_t0 = 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        # Import every traced module first, so that binding_sites sees every
        # module that imported a traced name.
        targets = [t for ts in SPANS.values() for t in ts] + list(CACHES.values())
        for target in targets + [CLASS_BUILD]:
            try:
                importlib.import_module(f"{PACKAGE}.{target.split('.')[0]}")
            except ImportError:
                pass  # reported as missing below
        hooks = {
            "kzero.m_slices": (None, self._count_slices),
            "gf2.rank": (self._count_rows("gf2.rank.rows"), None),
            "gf2.solve": (self._count_rows("gf2.solve.rows"), None),
            "catun.rho": (None, self._count_rho),
        }
        for metric, targets in SPANS.items():
            self.stats[metric] = [0, 0.0, 0.0, 0]
            pre, post = hooks.get(metric, (None, None))
            for target in targets:
                try:
                    holder, attr, original = resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                wrapper = self._span_wrapper(metric, original, pre, post)
                for space, name in binding_sites(holder, original):
                    setattr(space, name, wrapper)
        for metric, target in CACHES.items():
            try:
                self.caches[metric] = resolve(target)[2].cache_info
            except (ImportError, AttributeError):
                self.missing.append(target)
        try:
            holder, attr, original = resolve(CLASS_BUILD)
        except (ImportError, AttributeError):
            self.missing.append(CLASS_BUILD)
        else:
            setattr(holder, attr, self._class_counter(original))

    def _span_wrapper(self, metric, fn, pre, post):
        stats = self.stats[metric]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            log_index = tracer._log_open(metric) if tracer.logging else None
            frame = [0.0, log_index]
            stack.append(frame)
            stats[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[3] -= 1
                stats[0] += 1
                if stats[3] == 0:  # recursion: count the outermost call once
                    stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if log_index is not None:
                    tracer.spans[log_index][3:] = [t0 - tracer._op_t0, dt]
            if post is not None:
                post(args, out)
            return out

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARKER, metric)
        for name in ("cache_info", "cache_clear"):
            if hasattr(fn, name):
                setattr(wrapper, name, getattr(fn, name))
        return wrapper

    def _class_counter(self, fn):
        counts = self.counts

        def build_from(alg, *args, **kwargs):
            before = sum(map(len, alg._classes.values()))
            out = fn(alg, *args, **kwargs)
            if self.active:
                counts["boxalgebra.classes"] += sum(map(len, alg._classes.values())) - before
            return out

        functools.update_wrapper(build_from, fn)
        setattr(build_from, MARKER, "boxalgebra.classes")
        return build_from

    def _count_rows(self, key):
        counts = self.counts

        def pre(args):
            counts[key] += len(args[0])

        return pre

    def _count_slices(self, args, out):
        self.slices[0] += len(out)
        self.slices[1] += sum(1 for s in out if s[3] is not None)

    def _count_rho(self, args, out):
        self.counts["catun.rho.summands_out"] += len(out.summands)
        self.counts["catun.rho.delta_out"] += len(out.delta)

    # -- ops and spans -----------------------------------------------------

    def start_op(self, op_id):
        self.op = op_id
        self.logging = op_id < LOG_OPS
        self._before = {metric: info() for metric, info in self.caches.items()}
        self._op_t0 = time.perf_counter()
        self.active = True

    def stop_op(self):
        """Stop recording; cache lookups made by checks after this don't count."""
        self.active = False
        for metric, info in self.caches.items():
            now, before = info(), self._before[metric]
            acc = self.lookups.setdefault(metric, [0, 0, 0])
            acc[0] += now.hits - before.hits
            acc[1] += now.misses - before.misses
            acc[2] = now.currsize

    def _log_open(self, metric):
        if len(self.spans) >= LOG_CAP:
            return None
        parent = self.stack[-1][1] if self.stack else None
        self.spans.append([self.op, parent, metric, None, None])
        return len(self.spans) - 1

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for metric, (calls, incl, self_s, _) in self.stats.items():
            for (field, unit), value in zip(SPAN_FIELDS, (calls, incl, self_s)):
                out[f"{metric}.{field}"] = (value, unit)
        for name, unit in COUNT_UNITS.items():
            out[name] = (self.counts[name], unit)
        slices, useful = self.slices
        out["kzero.m_slices.useful_ratio"] = (useful / slices if slices else 0.0, "ratio")
        for metric in CACHES:
            hits, misses, currsize = self.lookups.get(metric, (0, 0, 0))
            out[f"{metric}.currsize"] = (currsize, "count")
            out[f"{metric}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return out
