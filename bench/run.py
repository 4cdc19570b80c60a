#!/usr/bin/env python3
"""stylekit benchmark: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload stdlib-analyze --seed 0 --seconds 20 --trace 0

One invocation runs one workload in a fresh process. It times three imports
of stylekit in fresh interpreters and sets up the workload's inputs from
``--seed`` three times, checks the analyzer against ``golden/*.json``,
makes one untimed warm-up job on the analysis workloads, then repeats jobs
for about ``--seconds`` seconds and checks every job's outputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics of
the traced ones (self times in seconds and counts, per traced job), plus the
tracing overhead: the median traced job's time over the median untraced
job's, minus one. The last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds provenance, fingerprints, sample counts, the failure ratio and the
end-to-end metrics before host-speed scaling.

End-to-end metrics, with the item each workload counts (see workloads.py).
Times are scaled to a reference host speed (see hostclock.py).

- ``setup_s``: median import plus median input generation.
- ``job_s``: median time of one job. On desk-train this is the desk run
  from corpus to the recall@1 verdict; on heldout-retrieval one CLI run.
- ``items_per_s``: median over jobs of items / time. On transfer-score the
  time is that of the ``score`` loop, on desk-train that of the ``train()``
  call (pairs x epochs per second).
- ``item_ms_p50``, ``item_ms_p95``: per-op time divided by the op's items,
  as percentiles over items (an op of 30 KB weighs 30 times one of 1 KB),
  over every op of every job.
- ``peak_rss_mb``: the process's peak resident set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3   # imports and input generations timed for setup_s
GOLDEN_TOLERANCE = 1e-9
# Layers whose call counts are reported: each re-lexes or re-parses a source.
COUNTED_CALLS = ("lexer.lex", "syntax.parse_module", "features.analyze",
                 "metrics.metric_tokens", "corpus.token_count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stdlib-analyze", "transfer-score", "desk-train",
                                 "heldout-retrieval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="minimal inputs, for the harness's self-check")
    return parser.parse_args(argv)


def fix_blas_threads() -> str:
    """Pin the BLAS pool before numpy loads: OPENBLAS_NUM_THREADS if the
    environment sets it, else one thread."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or "1"
    for var in BLAS_ENV:
        os.environ[var] = threads
    return threads


def import_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing stylekit, numpy and
    the corpus generator."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import numpy, stylekit.cli, archetype_corpus"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "tests")],
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_program():
    """Import stylekit and the corpus generator from this checkout."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "stylekit").is_dir() or not (tests / "archetype_corpus.py").is_file():
        raise SystemExit(f"bench: no stylekit sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests), str(Path(__file__).resolve().parent)]
    import stylekit
    if Path(stylekit.__file__).resolve().parent != (src / "stylekit").resolve():
        raise SystemExit(f"bench: imported stylekit from {stylekit.__file__}, not {src}")


@dataclass
class Job:
    traced: bool
    wall_s: float      # minus the host-speed samples taken inside the job
    factor: float      # host-speed scale for this job's times
    items: float
    rec: object
    prints: dict


def run_jobs(workload, inputs, seconds: float, clock, tracer, layer_totals):
    """Repeat jobs until the next one would end past ``seconds``. With a
    tracer, every second job is traced, starting with the second; the host
    clock samples only untraced jobs, so that spans hold stylekit's time."""
    from workloads import Recorder

    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(jobs) % 2 == 1
        rec = Recorder(clock, tracer if traced else None)
        if traced:
            tracer.forget_sources()
            tracer.install()
        else:
            clock.start()
        t0 = time.perf_counter()
        try:
            items, prints = workload.job(inputs, rec)
        finally:
            t1 = time.perf_counter()
            if traced:
                tracer.uninstall()
            else:
                clock.stop()
        if traced:
            split_train_time(tracer, rec, layer_totals)
            factor = 1.0
        else:
            factor = clock.factor(t0, t1)
        jobs.append(Job(traced, t1 - t0 - clock.spent(t0, t1), factor, items, rec, prints))
        elapsed = time.perf_counter() - start
        enough = len(jobs) >= (2 if tracer is not None else 1)
        if enough and elapsed + statistics.median(j.wall_s for j in jobs) > seconds:
            return jobs


def split_train_time(tracer, rec, totals):
    """Prelude and epoch self time of a traced ``train`` call, from its
    EpochLog wall times and the spans directly inside it."""
    if not rec.epoch_ms:
        return
    epochs_s = sum(rec.epoch_ms) / 1000.0
    first_epoch_start = rec.epoch_ends[0] - rec.epoch_ms[0] / 1000.0
    in_epochs = sum(dt for t0, dt in tracer.train_children if t0 >= first_epoch_start)
    totals["contrastive.train.prelude_s"] += rec.timed_s - epochs_s
    totals["contrastive.epoch.self_s"] += epochs_s - in_epochs


def golden_problems() -> list[str]:
    from stylekit import analyze

    docs = sorted((ROOT / "golden").glob("*.json"))
    if not docs:
        raise SystemExit("bench: no golden/*.json vectors")
    problems = []
    for path in docs:
        doc = json.loads(path.read_text(encoding="utf-8"))
        got = analyze(doc["source"]).as_dict()
        worst = max(abs(got[k] - v) for k, v in doc["raw"].items())
        if not worst <= GOLDEN_TOLERANCE:
            problems.append(f"golden {path.name}: max |err| {worst:.3g}")
    return problems


def percentile(samples, q: float) -> float:
    """Weighted nearest-rank percentile of (value, weight) samples."""
    samples = sorted(samples)
    target = q / 100.0 * sum(w for _, w in samples)
    seen = 0.0
    for value, weight in samples:
        seen += weight
        if seen >= target:
            return value
    return samples[-1][0]


def end_to_end(jobs, setup_s, clock, scaled=True) -> dict:
    """The end-to-end metrics; times at the reference host speed unless
    ``scaled`` is false."""
    plain = [j for j in jobs if not j.traced]
    scales = [j.factor if scaled else 1.0 for j in plain]
    samples = [(ms * (clock.near(t0, t1, k) if scaled else 1.0), n)
               for j, k in zip(plain, scales) for ms, n, t0, t1 in j.rec.item_ms]
    return {
        "setup_s": (setup_s * (clock.factor() if scaled else 1.0), "s"),
        "job_s": (statistics.median(j.wall_s * k for j, k in zip(plain, scales)), "s"),
        "items_per_s": (statistics.median(j.items / ((j.rec.timed_s or j.wall_s) * k)
                                          for j, k in zip(plain, scales)), "1/s"),
        "item_ms_p50": (percentile(samples, 50), "ms"),
        "item_ms_p95": (percentile(samples, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(jobs, tracer, totals) -> dict:
    from spans import LAYERS

    traced = [j for j in jobs if j.traced]
    n = len(traced)
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = (self_s[name] / n, "s")
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = (calls[name] / n, "count")
    out["contrastive.train.prelude_s"] = (totals["contrastive.train.prelude_s"] / n, "s")
    out["contrastive.epoch.self_s"] = (totals["contrastive.epoch.self_s"] / n, "s")
    # Lex calls inside one op the harness timed (an analyze, a score, a CLI
    # run); desk-train's ops are epochs, timed by train() itself, so 0 there.
    lex_per_op = [c for j in traced for c in j.rec.lex_calls]
    out["lexer.lex.calls_per_op"] = (statistics.median(lex_per_op) if lex_per_op else 0, "count")
    out["lexer.bytes_ratio"] = (_ratio(counts["lexer.bytes"], counts["lexer.distinct_bytes"]), "ratio")
    out["lexer.tokens_per_s"] = (_ratio(counts["lexer.tokens"], self_s["lexer.lex"]), "1/s")
    out["metrics.lcs_length.cells"] = (counts["metrics.lcs_length.cells"] / n, "count")
    out["corpus.kept_ratio"] = (_ratio(counts["corpus.kept"], counts["corpus.input"]), "ratio")
    out["nn.adam_step.params_updated"] = (counts["nn.adam_step.params_updated"] / n, "count")
    out["nn.emb_rows_touched_ratio"] = (_ratio(counts["nn.emb_rows_touched"], counts["nn.emb_rows"]), "ratio")
    out["checkpoint.bytes"] = (counts["checkpoint.bytes"] / n, "B")
    untraced_s = statistics.median(j.wall_s for j in jobs if not j.traced)
    out["trace.overhead_ratio"] = (statistics.median(j.wall_s for j in traced) / untraced_s - 1, "ratio")
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def provenance(blas_threads: str, inputs: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(blas_threads),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        **inputs["provenance"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = fix_blas_threads()
    import_program()
    from spans import Tracer
    from hostclock import HostClock
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.quick)
    problems = golden_problems()
    clock = HostClock(getattr(workload, "arrays", False))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        import_s = import_seconds(SETUP_REPEATS)
        setup_times = []
        for i in range(SETUP_REPEATS):
            workdir = Path(tmp) / f"setup{i}"
            workdir.mkdir()
            t1 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t1)
        if hasattr(workload, "reference"):
            workload.reference(inputs)
        warm = []
        if workload.warm_up:
            warm = [workload.job(inputs, Recorder(clock))[1]]
        tracer = Tracer() if args.trace else None
        layer_totals = {"contrastive.train.prelude_s": 0.0, "contrastive.epoch.self_s": 0.0}
        jobs = run_jobs(workload, inputs, args.seconds, clock, tracer, layer_totals)
    setup_s = import_s + statistics.median(setup_times)

    try:
        scratch.rmdir()   # only when no other run is using it
    except OSError:
        pass
    prints = [json.dumps(p, sort_keys=True) for p in warm + [j.prints for j in jobs]]
    if len(set(prints)) != 1:
        problems.append("fingerprints differ between repeats or traced and untraced jobs")
    problems += workload.check(inputs, jobs[0].prints)
    metrics = per_layer(jobs, tracer, layer_totals) if args.trace else end_to_end(jobs, setup_s, clock)
    attempted = sum(j.rec.attempted for j in jobs)
    failed = sum(j.rec.failed for j in jobs)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(blas_threads, inputs),
        "fingerprints": jobs[0].prints,
        "jobs": len(jobs), "traced_jobs": sum(j.traced for j in jobs),
        "job_wall_s": [round(j.wall_s, 4) for j in jobs],
        "op_samples": sum(len(j.rec.item_ms) for j in jobs if not j.traced),
        "host_factor": [round(j.factor, 4) for j in jobs],
        "host_samples": len(clock.ticks),
        "unscaled": {k: v for k, (v, _) in end_to_end(jobs, setup_s, clock, scaled=False).items()},
        "fail_ratio": failed / max(attempted, 1),
        "problems": problems,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
