"""Per-layer tracing of loophomology from outside the package.

`Tracer.install()` wraps every public function of every `loophomology`
module at every place it is bound: the defining module, each module that
imported it with `from .x import y`, and module-level dicts such as
`certify.SUITES`.  Each wrapper counts calls and measures self time with a
call stack, so a function's self time excludes the time of the wrapped
functions it calls, and the self times of one process sum to at most its
wall time.  A few functions also count work units (rows, columns, terms).
The operation caches' `cache_info()` gives their hit counts.

Nothing in the package is edited; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from types import ModuleType

PACKAGE = "loophomology"


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


#: Work units counted per call: label -> {stat: fn(args, kwargs, result)}.
COUNTERS = {
    "hopf.reduced_coproduct": {"tensor_terms": lambda a, kw, r: len(r.terms)},
    "f2algebra.masks_for_term_sets": {
        "rows": lambda a, kw, r: len(r[0]),
        "columns": lambda a, kw, r: len(r[1]),
    },
    "f2algebra.basis_enumerate": {"monomials": lambda a, kw, r: len(r)},
    "linalg_f2.echelon": {"rows": lambda a, kw, r: len(_first(a, kw, "rows"))},
    "linalg_f2.kernel_of_images": {
        "columns": lambda a, kw, r: len(_first(a, kw, "images")),
        "kernel_dim": lambda a, kw, r: len(r),
    },
}

#: Operation caches: metric prefix -> (module, private cached function).
CACHES = {
    "hopf.psi_cache": ("hopf", "_psi_monomial"),
    "steenrod.sq_cache": ("steenrod", "_sq_monomial"),
    "dlops.q_cache": ("dlops", "_q_monomial"),
    "dlops.adem_cache": ("dlops", "_normalize_entries"),
}


def package_modules() -> list[ModuleType]:
    package = importlib.import_module(PACKAGE)
    names = [info.name for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(f"{PACKAGE}.{name}") for name in names]


def _is_public_function(obj, module: ModuleType, name: str) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return callable(obj) and not isinstance(obj, type)


class Tracer:
    """Call counts, self times and work counters for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self._stack: list[float] = []  # time spent in wrapped callees, per open call
        self._clock = clock

    def install(self) -> None:
        modules = package_modules()
        wrappers: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if _is_public_function(obj, module, name) and id(obj) not in wrappers:
                    # an alias such as `spherical_candidates = screen_degree`
                    # shares the wrapper, labelled with the defining name
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
        for module in modules:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    namespace[name] = wrappers[id(obj)]
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrappers:
                            obj[key] = wrappers[id(value)]

    def _wrap(self, label: str, fn):
        counters = COUNTERS.get(label, {})
        stat = self.stats.setdefault(
            label, {"calls": 0, "self_s": 0.0, **{key: 0 for key in counters}}
        )
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat["self_s"] += elapsed - stack.pop()
                stat["calls"] += 1
                if stack:
                    stack[-1] += elapsed
            for key, count in counters.items():
                stat[key] += count(args, kwargs, result)
            return result

        return wrapper

    def report(self) -> dict:
        caches = {}
        for prefix, (module, name) in CACHES.items():
            info = getattr(sys.modules[f"{PACKAGE}.{module}"], name).cache_info()
            caches[prefix] = {"hits": info.hits, "misses": info.misses}
        return {"functions": self.stats, "caches": caches}


def merge(total: dict, part: dict) -> dict:
    """Add one process's `Tracer.report()` (plus any top-level numbers) into `total`."""
    for section in ("functions", "caches"):
        dest = total.setdefault(section, {})
        for label, stat in part.get(section, {}).items():
            acc = dest.setdefault(label, {})
            for key, value in stat.items():
                acc[key] = acc.get(key, 0) + value
    for key, value in part.items():
        if key not in ("functions", "caches"):
            total[key] = total.get(key, 0) + value
    return total


def metric(total: dict, name: str) -> float:
    """Look up one per-layer metric, `<module>.<function>.<stat>` or
    `<module>.<cache>.hit_ratio`, in merged trace data.  A function that was
    never called reads 0, and so does the hit ratio of an unused cache.  An
    unknown function, cache or stat raises KeyError."""
    prefix, _, stat = name.rpartition(".")
    if prefix in CACHES:
        if stat != "hit_ratio":
            raise KeyError(name)
        info = total["caches"][prefix]
        lookups = info["hits"] + info["misses"]
        return info["hits"] / lookups if lookups else 0.0
    return total["functions"][prefix][stat]
