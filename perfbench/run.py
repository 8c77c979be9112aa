#!/usr/bin/env python3
"""The dbakit benchmark.

    python3 perfbench/run.py [--workload corpus|search|prove|cli|all]
                             [--seed N] [--seconds S] [--trace 0|1]

One workload runs per interpreter, single-threaded, as a closed loop: one
caller submits the items of the workload's fixed item set one at a time and
waits for each result.  A pass is the whole item set.  A run makes
``--seconds`` divided by the workload's nominal pass time passes (at least
one), so every commit does the same work for the same ``--seconds``.

Each pass starts cold and does the same work: it sets up (imports dbakit
afresh and generates the seeded inputs), then imports dbakit afresh again,
so no module cache carries over from set-up or from the previous pass.
The host's speed swings by up to 2x over seconds, so every timed call is
bracketed by a fixed probe and scaled to the host's full speed (see
``HostSpeed``).  An item's latency is the median of its passes at full
speed.  ``setup_s`` is the median of the set-ups at full speed: one before
each pass, and ``SETUP_EXTRA`` more before the first.
Each output is checked by the workload's oracle and hashed into the pass
digest; every pass of a run must give the same digest.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics from a traced run).  ``--workload all``
runs each workload in its own interpreter and prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy  # noqa: F401  imported before the timed set-up: it is not dbakit's cost

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench-work")  # relative to ROOT, so outputs name no absolute path
MODULE_NAMES = ("algebra", "cli", "constructions", "errors", "fca", "fileformats",
                "fixtures", "logic", "representation", "search", "suites", "terms")
SETUP_EXTRA = 3  # set-ups beyond the one before each pass
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class Unavailable(Exception):
    """The checkout holds no dbakit sources to benchmark."""


def fresh_import():
    """Import dbakit from this checkout's ``src`` with empty module state."""
    for name in [n for n in sys.modules if n == "dbakit" or n.startswith("dbakit.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if not (src / "dbakit" / "__init__.py").is_file():
        raise Unavailable(f"no dbakit package under {src}")
    pkg = importlib.import_module("dbakit")
    if Path(pkg.__file__).resolve().parent != (src / "dbakit").resolve():
        raise Unavailable(f"dbakit imported from {pkg.__file__}, not from {src}")
    lib = types.SimpleNamespace(pkg=pkg, module_names=MODULE_NAMES)
    for m in MODULE_NAMES:
        setattr(lib, m, importlib.import_module(f"dbakit.{m}"))
    return lib


def _probe_work():
    """A fixed bit of interpreter work, about 0.2 ms at full speed."""
    d = {}
    for i in range(1500):
        d[i & 31] = d.get(i & 31, 0) + (i, i)[i & 1]
    return d


class HostSpeed:
    """How fast the host runs this process, from a fixed probe timed before,
    during and after each timed call.

    On a shared host a neighbour can slow this process down by 1.3x to 2x
    for stretches of seconds, without taking the CPU away from it (CPU time
    and wall time stay equal), and the slow share of a run varies from run
    to run.  So each timed call is bracketed by probes, and a timer signal
    probes again every ``INTERVAL`` seconds while it runs; the probes' own
    time is taken out of the call's.  A call's slowdown ``f`` is the mean of
    its probes over the full-speed probe (at least 1).  At full speed the
    call would have taken ``seconds / f**alpha``.  ``fit`` learns ``alpha``
    as the least-squares slope of log seconds on log slowdown, within each
    item over the passes.  The benchmark's calls slow down less than the
    probe does, and not all alike: pooled over many runs, alpha comes out
    between 0.88 and 0.99, by workload.

    The full-speed probe is a low percentile of the run's probes.  One run
    may meet no moment of full speed, and one run's slope is noisy, so both
    are pooled over the runs in the checkout, in ``path``: a run measures
    against the fastest full-speed probe of all the runs so far, and fits
    alpha to the least-squares sums of all the runs of its workload so far.
    """

    SLACK = 1.15  # a call is reported as slowed down past this
    ALPHA_RANGE = (0.5, 1.2)
    INTERVAL = 0.02
    FULL_SPEED_QUANTILE = 0.02

    def __init__(self, path=None, key=None):
        self.path, self.key = path, key
        self.known = {"full_speed_probe_s": float("inf"), "fit": {}}
        if path is not None and path.is_file():
            self.known = json.loads(path.read_text(encoding="utf-8"))
        self.probes = []  # every probe of the run, in seconds
        self.best = self.known["full_speed_probe_s"]
        self.sums = self.known["fit"].get(key, [0.0, 0.0])  # sxx, sxy
        self.alpha = 1.0
        self.in_call = None
        signal.signal(signal.SIGALRM, self._tick)

    def probe(self):
        """The fastest of three probe runs, in seconds."""
        fastest = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            fastest = min(fastest, time.perf_counter() - t0)
        self.probes.append(fastest)
        return fastest

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.in_call[0].append(self.probe())
        self.in_call[1] += time.perf_counter() - t0

    def begin(self):
        """Starts timing a call."""
        self.in_call = [[self.probe()], 0.0, None]
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        self.in_call[2] = time.perf_counter()

    def end(self):
        """Stops timing the call; returns the sample ``(seconds, probes)``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        probes, ticks_s, t0 = self.in_call
        seconds = time.perf_counter() - t0 - ticks_s
        self.in_call = None
        return seconds, tuple(probes + [self.probe()])

    def settle(self):
        """Fixes the full-speed probe, once the run's probes are in."""
        ranked = sorted(self.probes)
        self.best = min(self.known["full_speed_probe_s"],
                        ranked[int(self.FULL_SPEED_QUANTILE * len(ranked))])

    def save(self):
        """Records the full-speed probe and the fit for later runs in this
        checkout."""
        self.known["full_speed_probe_s"] = self.best
        self.known["fit"][self.key] = self.sums
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)

    def slowdown(self, sample):
        probes = sample[1]
        return max(1.0, sum(probes) / (len(probes) * self.best))

    def is_slow(self, sample):
        return self.slowdown(sample) > self.SLACK

    def fit(self, samples):
        """Sets ``alpha`` from each item's samples, one per pass, and those
        of earlier runs.  With no change of speed within items, alpha
        stays 1."""
        sxx, sxy = self.sums
        for per_item in samples:
            lt = [math.log(x[0]) for x in per_item]
            lf = [math.log(self.slowdown(x)) for x in per_item]
            mt, mf = sum(lt) / len(lt), sum(lf) / len(lf)
            sxx += sum((f - mf) ** 2 for f in lf)
            sxy += sum((f - mf) * (t - mt) for f, t in zip(lf, lt))
        self.sums = [sxx, sxy]
        if sxx > 0.01:
            lo, hi = self.ALPHA_RANGE
            self.alpha = min(max(sxy / sxx, lo), hi)

    def full_speed(self, sample):
        """The sample's seconds, at the host's full speed."""
        return sample[0] / self.slowdown(sample) ** self.alpha


def run_pass(wl, lib, items, speed, tracer=None, verdicts=None):
    """Closed loop over the item set once.  Returns each item's timing
    sample (see ``HostSpeed.end``), the failures, and the pass digest.  ``verdicts`` maps (item id, output record) to the oracle's
    verdict from an earlier pass, so an output that repeats is not checked
    again."""
    samples, failures, state = [], [], {}
    verdicts = {} if verdicts is None else verdicts
    digest = hashlib.sha256()
    for item in items:
        if tracer is not None:
            tracer.begin_item(item.id)
        speed.begin()
        try:
            out, err = wl.run(lib, item, state), None
        except Exception as exc:  # an item that raises is a failed item
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        samples.append(speed.end())
        if tracer is not None:
            tracer.end_item()
        if err is None:
            try:
                record = wl.record(item, out)
                digest.update(record.encode("utf-8"))
                key = (item.id, record)
                if key not in verdicts:
                    verdicts[key] = wl.check(lib, item, out, state)
                err = verdicts[key]
            except Exception as exc:
                err = f"oracle raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((item, err))
    return samples, failures, digest.hexdigest()


def set_up(wl, seed, workdir, speed):
    """Imports dbakit afresh and generates the seeded inputs.  Returns the
    inputs and the timing samples of the import and of the generation."""
    speed.begin()
    lib = fresh_import()
    imported = speed.end()
    speed.begin()
    inputs = wl.generate(lib, seed, workdir)
    return inputs, [imported, speed.end()]


def run_passes(wl, seed, workdir, passes, speed, tracer=None):
    """``passes`` cold passes, each after its own set-up.  Returns the item
    set, each item's timing samples (one per pass), the set-up samples, the
    failures and one digest per pass.  Before untraced passes, set-up runs
    ``SETUP_EXTRA`` more times, so that its median rests on more samples."""
    extra = SETUP_EXTRA if tracer is None else 0
    setup = [set_up(wl, seed, workdir, speed)[1] for _ in range(extra)]
    items, samples, failures, digests, verdicts = None, None, [], [], {}
    for _ in range(passes):
        inputs, timing = set_up(wl, seed, workdir, speed)
        setup.append(timing)
        if items is None:
            items = wl.items(inputs)
        elif wl.items(inputs) != items:
            raise RuntimeError("set-up made different inputs from the same seed")
        lib = fresh_import()
        if getattr(lib.algebra, "_checker_cache", {}):
            raise RuntimeError("dbakit module caches are not empty before measurement")
        if tracer is not None:
            tracer.install(lib)
        try:
            smp, fail, dig = run_pass(wl, lib, items, speed, tracer, verdicts)
        finally:
            if tracer is not None:
                tracer.restore()
        samples = [[x] for x in smp] if samples is None else [a + [x] for a, x in zip(samples, smp)]
        failures += fail
        digests.append(dig)
    return items, samples, setup, failures, digests


def latencies(speed, samples):
    """Each item's latency: the median of its passes, at full speed."""
    return [statistics.median(map(speed.full_speed, per_item)) for per_item in samples]


def summarize(latencies):
    """End-to-end timing metrics from per-item latencies in seconds."""
    ms = sorted(1000.0 * x for x in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if len(ms) > 1 else ms[0]
    return {"items_per_s": len(ms) / (sum(ms) / 1000.0),
            "item_p50_ms": statistics.median(ms), "item_p90_ms": p90}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]()
    workdir = WORK / name
    # The pass count follows --seconds through the pass time measured when
    # the benchmark was added, so every commit does the same work per run.
    passes = max(1, round((seconds / 2 if trace else seconds) / wl.pass_s))
    fresh_import()  # stops the run early when there is no dbakit to measure
    speed = HostSpeed(WORK / "host-speed.json", name)
    items, samples, setup, failures, digests = run_passes(wl, seed, workdir, passes, speed)
    speed.settle()
    speed.fit(samples)
    slow = sum(map(speed.is_slow, (x for per_item in samples for x in per_item)))
    lines = [f"workload: {name}", f"seed: {seed}", f"items_per_pass: {len(items)}",
             f"passes: {len(digests)}", f"digest: {digests[0]}",
             f"host_slow_share: {slow / (len(items) * passes):.3f}",
             f"host_full_speed_probe_us: {speed.best * 1e6:.2f}",
             f"host_alpha: {speed.alpha:.3f}"]
    e2e = summarize(latencies(speed, samples))
    e2e["setup_s"] = statistics.median(sum(map(speed.full_speed, parts)) for parts in setup)
    e2e["peak_rss_mb"] = peak_rss_mb()
    attempted = len(items) * passes
    if trace:
        tr = tracing.Tracer()
        _, t_samples, _, t_fail, t_dig = run_passes(wl, seed, workdir, passes, speed, tracer=tr)
        t_lat = latencies(speed, t_samples)
        traced = len(t_lat) / sum(t_lat)
        spans_file = WORK / f"spans-{name}-seed{seed}.npz"
        n_spans = tr.write(spans_file)
        metrics = tr.metrics()
        metrics["trace.overhead_items_per_s"] = e2e["items_per_s"] - traced
        metrics["trace.overhead_ratio"] = 1.0 - traced / e2e["items_per_s"]
        units = dict(tracing.metric_names())
        lines += [f"traced_items_per_s: {traced:.6g} 1/s",
                  f"spans: {n_spans} kept, {tr.dropped} dropped, written to "
                  f"{spans_file}"]
        failures += t_fail
        digests += t_dig
        attempted += len(items) * passes
    else:
        metrics = e2e
        units = dict(END_TO_END)
    shutil.rmtree(workdir, ignore_errors=True)
    speed.save()

    fail_ratio = len(failures) / attempted
    lines.append(f"fail_ratio: {fail_ratio:.6g}")
    for item, err in failures[:5]:
        lines.append(f"FAILED item {item.id} {item.kind} {item.payload!r}: {err}")
    consistent = len(set(digests)) == 1
    if not consistent:
        lines.append("FAILED: passes gave different output digests")
    for key in units:
        lines.append(f"{key}: {metrics[key]:.6g} {units[key]}")
    print("\n".join(lines))
    result = {"correct": not failures and consistent, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in a fresh interpreter; prints every metric by name."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}, no result")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok &= res["correct"]
        print(f"== {name}: correct={str(res['correct']).lower()} attempted={res['attempted']} "
              f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:.6g}")
        print("\n".join(f"   {line}" for line in lines[:-1]
                        if line.startswith(("passes", "digest", "host", "spans", "traced", "FAILED"))))
        for key, m in res["metrics"].items():
            print(f"   {name}.{key}: {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    except Unavailable as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
