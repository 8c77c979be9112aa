#!/usr/bin/env python3
"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

For each workload, runs a cheap subset of its items twice: once as is, where
the oracle must pass every item, and once with each output deliberately
corrupted, where the oracle must flag every item.  Prints both fail ratios
per workload and exits 0 only when every oracle behaves.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import run as bench
from workloads import WORKLOADS

SEED = 1


def _corrupt_corpus(lib, item, out):
    rec = out[("protoconcept", "semiconcept")[item.id % 2]]
    if item.id % 3 == 0:
        rec["catalog_failures"] = ("1a: x & x = x",)
    elif item.id % 2 == 0:
        rec["fully_contextual"] = False
    else:
        rec["pure"] = False


def _corrupt_search(lib, item, out):
    if item.kind == "dba3":  # one model short
        out["found"], out["signatures"] = out["found"][:-1], out["signatures"][:-1]
        out["models"] -= 1
    elif item.kind == "dcore3":  # models out of enumeration order
        out["found"], out["signatures"] = out["found"][::-1], out["signatures"][::-1]
    elif item.kind == "mustfail":  # a model that satisfies 5a and 5b
        alg = lib.fixtures.get_fixture("boolean2")
        out["found"], out["signatures"] = [alg], (repr(alg.signature()),)
        out["models"] = 1
    else:  # reports a finished sweep instead of a first model
        out["complete"] = True


def _corrupt_prove(lib, item, out):
    if item.kind == "proof":
        out["script"] = None
    elif out["model"] is not None:  # hide the countermodel
        out["model"] = None
    else:  # claim one on the first model, at the first object-sorted values
        out["model"], out["env"] = "context-0", (("x", 0), ("y", 0))


def _corrupt_cli(lib, item, out):
    if item.id % 2:
        out["code"] += 1
    else:
        out["stdout"] = out["stdout"].rstrip("\n") + "0\n"


# workload -> (item subset, corruption)
CASES = {
    "corpus": (lambda items: items[:60], _corrupt_corpus),
    "search": (lambda items: [i for i in items if i.kind in ("mustfail", "first4")]
               + [i for i in items if i.kind in ("dba3", "dcore3") and i.payload
                  in {j.payload for j in items if j.kind == "dcore3"}],
               _corrupt_search),
    "prove": (lambda items: [i for i in items if i.kind == "refute"][:30]
              + [i for i in items if i.kind == "proof"][:1], _corrupt_prove),
    "cli": (lambda items: items[:8] + items[-20:], _corrupt_cli),
}


class Corrupted:
    """The workload with every output corrupted before the oracle sees it."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt

    def run(self, lib, item, state):
        out = copy.copy(self.wl.run(lib, item, state))
        self.corrupt(lib, item, out)
        return out

    def check(self, lib, item, out, state):
        return self.wl.check(lib, item, out, state)

    def record(self, item, out):
        return self.wl.record(item, out)


def main():
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.ROOT / "src"))
    ok = True
    for name, (subset, corrupt) in CASES.items():
        wl = WORKLOADS[name]()
        workdir = bench.WORK / name
        items = subset(wl.items(wl.generate(bench.fresh_import(), SEED, workdir)))
        ratios = []
        for runner in (wl, Corrupted(wl, corrupt)):
            _, failures, _ = bench.run_pass(runner, bench.fresh_import(), items,
                                           bench.HostSpeed())
            ratios.append(len(failures) / len(items))
        shutil.rmtree(workdir, ignore_errors=True)
        good = ratios == [0.0, 1.0]
        ok &= good
        print(f"{name}: {len(items)} items, fail_ratio clean {ratios[0]:.3g}, "
              f"corrupted {ratios[1]:.3g} -> {'ok' if good else 'ORACLE MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
