"""The benchmark's workloads: what each one runs and how its output is checked.

A workload is a list of jobs per pass.  Each job is one fresh `loophomology`
process, so every job pays the interpreter start, the package import and cold
`lru_cache`s, as a command-line user does.

The three certify workloads run one `verify` call per pass.  They are
exhaustive, so the seed does not change them.  The cli-session workload draws
its queries from a finite, fixed universe (see `query_universe`), stratified
so that every pass holds the same number of queries of each kind; the seed
picks which queries of each kind and their order.  Because the universe is
finite, the stdout digest of every query in it is recorded once
(`record_digests.py`), and any seed's mix is checked byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "expected_digests.json"

#: Space descriptions a query can name by "@<name>"; the run writes each one
#: to a file and substitutes its path.  They are the sigma2 (double
#: suspension) models the CLI reads from description files.
DESCRIPTIONS = {
    "sigma2-a1b2": {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": [],
    },
    "sigma2-a1b2-sq1": {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 2}],
        "sq_action": [{"r": 1, "from": "b", "to": ["a"]}],
    },
    "sigma2-a1b3-sq2": {
        "model": "sigma2",
        "cells": [{"name": "a", "dim": 1}, {"name": "b", "dim": 3}],
        "sq_action": [{"r": 2, "from": "b", "to": ["a"]}],
    },
}


@dataclass(frozen=True)
class Job:
    """One fresh CLI process.

    `args` are the CLI arguments, where "@<name>" stands for the path of the
    description file `<name>`.  A job with `suites` passes when it exits 0 and
    prints exactly "<suite> pass" for each suite; a job without passes when it
    exits 0 and its stdout has the recorded digest.
    """

    args: tuple[str, ...]
    suites: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _verify(*suites: str, max_degree: int | None = None) -> Job:
    args = ["verify"]
    for s in suites:
        args += ["--suite", s]
    if max_degree is not None:
        args += ["--max-degree", str(max_degree)]
    return Job(tuple(args), suites)


#: Certify workloads: one `verify` job per pass, the same for every seed.
CERTIFY = {
    # even-squares over qs1 roots <= 8 and the two-cell model: the coproduct
    # layer dominates, and the ROADMAP's first optimisation target.
    "certify-hopf": [_verify("even-squares", max_degree=16)],
    # suspension kernels over qs0 and qs1 up to degree 19: elimination and
    # basis enumeration only, no coproduct or Steenrod call.
    "certify-linear": [_verify("suspension-kernel", max_degree=19)],
    # element-level coproduct identities and the p_I basis: expand_slot,
    # solve_linear, and a warm coproduct cache.
    "certify-identities": [_verify("hopf-consistency", "primitive-basis")],
}

CLI_SESSION = "cli-session"
WORKLOADS = (*CERTIFY, CLI_SESSION)

_SPACES = (
    ("--space", "qs0"),
    *(("--space", "qsn", "--n", str(n)) for n in (1, 2, 3)),
    *(("--space", "@" + name) for name in DESCRIPTIONS),
)


def query_universe() -> dict[str, list[tuple[str, ...]]]:
    """Every query cli-session can issue, grouped by kind.

    Degrees stay within the CLI's default degree budget, and every query
    exits 0 at the commit that recorded the digests.
    """
    strata: dict[str, list[tuple[str, ...]]] = {}
    strata["basis"] = [
        ("basis", *space, "--degree", str(d), *fmt)
        for space in _SPACES[1:]
        for d in range(1, 17)
        for fmt in ((), ("--json",))
    ]
    strata["basis-qs0"] = [
        ("basis", "--space", "qs0", "--degree", str(d), *charge, *fmt)
        for d in range(10, 20)
        for charge in ((), ("--charge", "0"))
        for fmt in ((), ("--json",))
    ]
    strata["screen"] = [
        ("screen", *space, "--degree", str(d), *loop)
        for space in _SPACES
        for d in range(2, 15)
        for loop in ((), ("--loop", "1"), ("--loop", "2"))
    ]
    strata["screen-json"] = [
        ("screen", *space, "--degree", str(d), "--json")
        for space in _SPACES
        for d in range(2, 15)
    ]
    strata["bounds"] = [
        ("bounds", "--l", str(l), "--k", str(k)) for l in range(2, 11) for k in range(-1, 4)
    ]
    strata["immersion-threshold"] = [
        ("immersion-threshold", "--d", str(d), "--k", str(k))
        for d in range(1, 17)
        for k in (1, 2, 3)
    ]
    strata["stable-range"] = [
        ("stable-range", "--d", str(d), "--n", str(n), "--l", str(l))
        for d in range(1, 13)
        for n in range(1, 5)
        for l in range(1, 5)
    ]
    strata["verify"] = [
        *((("verify", "--suite", s)) for s in ("sum-identity", "stable-range")),
        *(
            ("verify", "--suite", s, "--max-degree", str(cap))
            for s in ("kernel-of-r", "dimension-bounds", "wellington", "suspension-kernel")
            for cap in range(4, 9)
        ),
    ]
    # Two to four times the cost of a light query: the qs0 basis near the top
    # of the degree budget, and verify calls at a wider scope.  They are over
    # a fifth of each pass, so the 90th percentile falls among them and
    # follows the engine's speed rather than the host's brief slow spells.
    strata["heavy"] = [
        *(
            ("basis", "--space", "qs0", "--degree", str(d), *charge, *fmt)
            for d in (21, 22)
            for charge in ((), ("--charge", "0"))
            for fmt in ((), ("--json",))
        ),
        *(("verify", "--suite", "suspension-kernel", "--max-degree", str(c)) for c in (13, 14)),
        *(("verify", "--suite", "primitive-basis", "--max-degree", str(c)) for c in (9, 10)),
        ("verify", "--suite", "hopf-consistency", "--max-degree", "7"),
    ]
    return strata


#: Queries of each kind in one cli-session pass: 47 light ones, and every
#: heavy one, so that the heavy fifth of a pass is the same for every seed.
#: Two passes give 120 latencies, so 12 of them lie beyond the 90th percentile.
PASS_MIX = {
    "basis": 7,
    "basis-qs0": 6,
    "screen": 11,
    "screen-json": 8,
    "bounds": 4,
    "immersion-threshold": 3,
    "stable-range": 4,
    "verify": 4,
    "heavy": 13,
}


def session_pass(seed: int, index: int) -> list[Job]:
    """Pass number `index` of the cli-session mix for `seed`."""
    rng = random.Random(f"cli-session/{seed}/{index}")
    universe = query_universe()
    queries = [q for kind, count in PASS_MIX.items() for q in rng.sample(universe[kind], count)]
    rng.shuffle(queries)
    return [Job(q) for q in queries]


def workload_pass(name: str, seed: int, index: int) -> list[Job]:
    if name == CLI_SESSION:
        return session_pass(seed, index)
    return list(CERTIFY[name])


def load_digests() -> dict[str, str]:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def write_descriptions(directory: Path) -> dict[str, str]:
    """Write every description file; return the map from "@name" to its path."""
    paths = {}
    for name, desc in DESCRIPTIONS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(desc, indent=2) + "\n", encoding="utf-8")
        paths["@" + name] = str(path)
    return paths
