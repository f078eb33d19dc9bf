"""Every per-layer metric in BENCHMARK.json names code that still exists.

`perfbench/run.py --trace 1` looks each metric up by name and raises KeyError
on one it never traced, so a public function that is deleted or made private,
or an operation cache that is renamed, must fail here first.  BENCHMARK.json
and perfbench/layertrace.py are only read.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
#: prefixes that perfbench/run.py measures itself rather than traces
RUNNER = {"run", "host", "repo"}


def test_every_per_layer_metric_names_a_traced_function_or_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    missing = []
    for name in PER_LAYER:
        prefix, _, stat = name.rpartition(".")
        if prefix in RUNNER:
            continue
        if prefix in layertrace.CACHES:
            module, fn = layertrace.CACHES[prefix]
            cached = getattr(importlib.import_module(f"loophomology.{module}"), fn, None)
            if stat != "hit_ratio" or not callable(getattr(cached, "cache_info", None)):
                missing.append(name)
            continue
        module_name, _, fn = prefix.partition(".")
        module = importlib.import_module(f"loophomology.{module_name}")
        public = layertrace._is_public_function(getattr(module, fn, None), module, fn)
        if not public or stat not in {"calls", "self_s", *layertrace.COUNTERS.get(prefix, {})}:
            missing.append(name)
    assert missing == []
