"""Benchmark of snclab's exact pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends one operation at a time (a closed loop)
and the library stays single-threaded.  A run draws the workload's inputs
from the seed and times every input in each of P passes, P =
max(3, round(S / the workload's nominal pass time)), so P depends on
--seconds alone.  Each pass starts with a set-up: a fresh import of
snclab and the inputs rebuilt from it, so no state of one pass reaches the
next.  The passes visit the inputs in a seeded order, and each operation
starts after a garbage collection outside the timed window.  Every output
is checked by an oracle outside the timed window and must render exactly
as the input's first output did; an operation that raises, is rejected or
renders differently counts as failed.

The shared machine runs the same code up to 1.9x slower for stretches of
seconds to minutes, longer than a run.  So the run also times a fixed
reference computation (`reference`, exact rational arithmetic in pure
Python, sharing no code with snclab) before an operation whenever 0.2 s
have passed since the last such probe, and after each pass.  Each
operation's time is divided by the mean of the probes on either side of it
and multiplied by REFERENCE_S, the reference's time at this machine's
fastest: a time in seconds at the machine's reference speed.  A change to
snclab moves it as it moves the raw time; a slow stretch moves the
operation and the reference alike.  An input's latency is the median of
its passes' times.  Set-ups are scaled the same way by probes on either
side.  The details line gives the raw figures.  Past the third pass, no
pass starts once the run's wall time exceeds 1.2 x S.

--trace 0 prints the end-to-end metrics, in seconds at reference speed,
and installs nothing:
  ops_per_s    inputs / the sum of their latencies: the rate of one pass
  op_p50_s     median latency over the inputs
  op_tail_s    latency at the highest percentile with at least 10 inputs
               beyond it (the 11th largest; the largest if there are
               fewer than 22 inputs; percentile and count in details)
  setup_s      median of 9 set-ups spread over the passes (a fresh import
               of snclab plus building the inputs)
  peak_rss_mb  peak resident memory, read before any deferred oracle runs

--trace 1 wraps the library's public functions (see tracer.py) in every
pass and prints the per-layer metrics, summed over the run; it always
makes all P passes, so its exact counts repeat.

Both print a details line (input profile, output digest, tail percentile,
failure share) before the result line, and store a summary under
.bench_work/results so that the later of the two runs for the same
workload, seed and seconds reports the tracing overhead and checks that
both produced the same digest and counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MODULES = ("cli", "complexes", "intlinalg", "presentations", "qlinalg",
           "resolution", "snc", "voronoi")
SETUP_REPEATS = 9
MIN_PASSES = 3
# reference() at the fastest this 2-vCPU machine ran it (Python 3.11.7;
# 600 timings: fastest 7.22 ms, median 11.3 ms)
REFERENCE_S = 0.00722
PROBE_EVERY_S = 0.2
# past MIN_PASSES, no new pass starts after this share of --seconds of wall
# time, nor after WALL_LIMIT_S, so a slow stretch cannot stretch a run much
# past --seconds and a run ends well within 180 s
WALL_SHARE = 1.2
WALL_LIMIT_S = 120.0


def import_snclab() -> SimpleNamespace:
    """A fresh import of snclab from this checkout's src/ (timed as set-up)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "snclab" or m.startswith("snclab.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"snclab.{m}") for m in MODULES})
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"snclab was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it,
    or the largest when that percentile would not lie above the median."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 22:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def reference():
    """The fixed computation the run's times are scaled by."""
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return s


def probe():
    gc.collect()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scaled(events):
    """(input, raw seconds, seconds at reference speed) for each operation
    of a pass, from its events: probe times (floats) and (input, seconds)."""
    out = []
    before = None
    pending = []
    for e in events:
        if isinstance(e, float):
            for i, t in pending:
                out.append((i, t, t * REFERENCE_S / ((before + e) / 2)))
            before, pending = e, []
        else:
            pending.append(e)
    return out


def passes(workload, seconds):
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def check(workload, inp, out):
    """The oracle's objection to an output, or None; an oracle that cannot
    read the output objects too."""
    try:
        return workload.check(inp, out)
    except Exception as exc:  # malformed output: record it as a rejection
        return f"unreadable output: {exc!r}"


def set_up(workload, seed, workdir):
    gc.collect()
    start = time.perf_counter()
    lib = import_snclab()
    inputs = workload.make_inputs(lib, seed, workdir)
    return time.perf_counter() - start, lib, inputs


def schedule(n_inputs, n_passes, seed, name):
    """The input indices of each pass, every input in a seeded order."""
    order = []
    for p in range(n_passes):
        ids = list(range(n_inputs))
        random.Random(f"{name}:{seed}:pass{p}").shuffle(ids)
        order.append(ids)
    return order


def measure(workload, seed, seconds, trace, workdir):
    n_passes = passes(workload, seconds)
    tracer = Tracer() if trace else None
    setups, raw_setups, timings, raw_timings, rendered = [], [], {}, {}, {}
    probes = []
    errors, rejections, deferred = [], [], []
    counts = Counter()
    attempted = 0
    op_time = 0.0
    profile = order = None
    pass_time = []
    done = 0
    wall_start = time.perf_counter()
    for p in range(n_passes):
        limit = WALL_LIMIT_S if trace else min(WALL_SHARE * seconds, WALL_LIMIT_S)
        if p >= MIN_PASSES and time.perf_counter() - wall_start > limit:
            break
        # spread the set-ups over the passes; the pass uses the last one
        for _ in range(-(-(SETUP_REPEATS - len(setups)) // (n_passes - p)) or 1):
            before = probe()
            setup_s, lib, inputs = set_up(workload, seed, workdir)
            raw_setups.append(setup_s)
            setups.append(setup_s * REFERENCE_S / ((before + probe()) / 2))
        if order is None:
            profile = workload.profile(inputs)
            order = schedule(len(inputs), n_passes, seed, workload.name)
        pass_time.append(0.0)
        events, last_probe = [], None
        if tracer:
            tracer.install(lib)
        try:
            for i in order[p]:
                inp = inputs[i]
                attempted += 1
                out = None  # free the previous output outside the timed window
                if last_probe is None or time.perf_counter() - last_probe >= PROBE_EVERY_S:
                    events.append(probe())
                    last_probe = time.perf_counter()
                gc.collect()  # so no op pays for an earlier op's garbage
                if tracer:
                    tracer.begin_op(workload.root_span)
                start = time.perf_counter()
                try:
                    out = workload.run(lib, inp)
                except Exception as exc:  # a raising operation is a failed one
                    out = exc
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.leave()
                op_time += elapsed
                if isinstance(out, Exception):
                    errors.append("".join(traceback.format_exception_only(out)).strip())
                    continue
                events.append((i, elapsed))
                pass_time[-1] += elapsed
                text = workload.render(inp, out)
                if i in rendered:
                    # the oracle checked the first output; later ones must repeat it
                    if text != rendered[i]:
                        errors.append(f"input {i}: pass {p} output differs from its first output")
                    continue
                rendered[i] = text
                counts.update(workload.counts(out))
                if workload.deferred_check:
                    deferred.append((inp, out))
                else:
                    rejections.append(check(workload, inp, out))
        finally:
            if tracer:
                tracer.uninstall()
        events.append(probe())
        probes += [e for e in events if isinstance(e, float)]
        for i, raw, at_reference in scaled(events):
            raw_timings.setdefault(i, []).append(raw)
            timings.setdefault(i, []).append(at_reference)
        inputs = lib = out = None
        done += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rejections += [check(workload, inp, out) for inp, out in deferred]
    errors += [f"oracle: {r}" for r in rejections if r]
    digest = hashlib.sha256("".join(rendered[i] for i in sorted(rendered)).encode())
    return SimpleNamespace(
        setups=setups, raw_setups=raw_setups, profile=profile, tracer=tracer,
        latencies=[statistics.median(t) for _, t in sorted(timings.items())],
        raw_latencies=[statistics.median(t) for _, t in sorted(raw_timings.items())],
        probes=probes,
        errors=errors, digest=digest.hexdigest(), counts=dict(counts),
        attempted=attempted, failed=len(errors), op_time=op_time, passes=done, pass_time=pass_time,
        peak_rss_mb=peak_rss_mb, wall=time.perf_counter() - wall_start,
    )


def code_id() -> str:
    """Hash of the library and benchmark sources, so that stored summaries
    of other code are never compared."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_other_mode(name, seed, seconds, trace, m, p50):
    """Store this run's summary; report against the other mode's, if stored."""
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    mine = {"digest": m.digest, "input_counts": m.counts, "op_p50_s": p50}
    stem = f"{name}-{seed}-{seconds}-{code_id()}"
    (results / f"{stem}-trace{trace}.json").write_text(json.dumps(mine, sort_keys=True))
    other_path = results / f"{stem}-trace{1 - trace}.json"
    if not other_path.exists():
        return {}
    other = json.loads(other_path.read_text())
    untraced, traced = (mine, other) if trace == 0 else (other, mine)
    return {
        "matches_other_mode": other["digest"] == m.digest and other["input_counts"] == m.counts,
        "tracing_overhead": traced["op_p50_s"] / untraced["op_p50_s"] - 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snclab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no snclab sources under {SRC}\n")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        m = measure(workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p50 = statistics.median(m.latencies) if m.latencies else float("nan")
    tail_s, tail_pct = tail(m.latencies) if m.latencies else (float("nan"), 0.0)
    details = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "trace": args.trace,
        "input_profile": m.profile,
        "passes": m.passes,
        "pass_op_seconds": m.pass_time,
        "op_seconds": m.op_time,
        "ops_per_s_all_timings": m.attempted / m.op_time,
        "wall_seconds": m.wall,
        "digest": m.digest,
        "input_counts": m.counts,
        "failed_op_share": m.failed / m.attempted,
        "errors": m.errors[:5],
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(m.latencies),
        "setup_repeats_s": m.setups,
        "reference_probe_s": {"count": len(m.probes), "fastest": min(m.probes),
                              "median": statistics.median(m.probes)},
        "raw_seconds": {
            "ops_per_s": len(m.raw_latencies) / sum(m.raw_latencies) if m.raw_latencies else None,
            "op_p50_s": statistics.median(m.raw_latencies) if m.raw_latencies else None,
            "op_tail_s": tail(m.raw_latencies)[0] if m.raw_latencies else None,
            "setup_s": statistics.median(m.raw_setups),
        },
    }
    if args.trace:
        details["traced_op_p50_s"] = p50
        spans = WORK / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        path = spans / f"{args.workload}-{args.seed}-{args.seconds}.jsonl"
        path.write_text("".join(json.dumps(s) + "\n" for s in m.tracer.spans))
        details["spans_file"] = str(path.relative_to(ROOT))
        values = m.tracer.layer_metrics()
        key = "per_layer"
    else:
        values = {
            "ops_per_s": len(m.latencies) / sum(m.latencies) if m.latencies else float("nan"),
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "setup_s": statistics.median(m.setups),
            "peak_rss_mb": m.peak_rss_mb,
        }
        key = "end_to_end"
    cross = compare_with_other_mode(args.workload, args.seed, args.seconds, args.trace, m, p50)
    details.update(cross)
    correct = m.failed == 0 and cross.get("matches_other_mode", True)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in spec[key]}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
