#!/usr/bin/env python3
"""Benchmark of the lesionwise package: eval and training-loss workloads.

    python3 lwbench/run.py --workload eval-lesions --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Inputs are generated from ``--seed`` into ``.lwbench_work/`` and removed at
exit. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the calls into each package layer in spans and reports
the per-layer metrics (spans are written to ``.lwbench_out/``). Human-readable
lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See lwbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("eval-lesions", "eval-speckle", "train-loss")
KINDS = ("dicece", "cc-dicece", "blob-dicece")
MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90
MAX_MEASURE_S = 100.0  # stop adding passes here even if MIN_SAMPLES is not reached
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
DICE_TOL = 1e-12
LOSS_RTOL = 1e-9
FD_EPS = 1e-4
FD_RTOL = 1e-5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(samples, q) -> float:
    return float(np.percentile(samples, q))


class Tally:
    """Operations attempted and failed (failed or wrong), with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def time_fresh_imports() -> float:
    """Median wall of a fresh interpreter importing lesionwise.

    One untimed import first writes the bytecode cache, a cost users pay
    once per install, not once per run.
    """
    cmd = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import lesionwise", str(SRC)]
    walls = []
    for i in range(IMPORT_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        if i:
            walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# eval workloads
# ---------------------------------------------------------------------------

def run_eval(manifest: Path, out: Path, distance: str, threads: int) -> tuple[int, float]:
    """One ``lesionwise eval`` through ``cli.main``; returns (exit code, wall s).

    An exception counts as exit code -1, so the output check fails the case
    instead of the run stopping.
    """
    import lesionwise.cli

    (out / "report.json").unlink(missing_ok=True)
    os.environ["LESIONWISE_THREADS"] = str(threads)
    argv = ["eval", "--manifest", str(manifest), "--out", str(out), "--distance", distance]
    t0 = time.perf_counter()
    try:
        code = lesionwise.cli.main(argv)
    except Exception:  # noqa: BLE001 - a crashing case is a failed operation
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - t0


def check_eval(tally: Tally, code: int, out: Path, cases) -> None:
    """Each case: status ok, counts as constructed, Dice as computed directly."""
    try:
        report = json.loads((out / "report.json").read_text())
        records = report["cases"]
    except (OSError, ValueError, KeyError) as exc:
        for c in cases:
            tally.check(False, f"{c.gt}: no report ({exc})")
        return
    if len(records) != len(cases):
        records = [{}] * len(cases)
    for rec, c in zip(records, cases):
        m = rec.get("metrics", {})
        ok = (
            code == 0
            and rec.get("gt") == c.gt
            and rec.get("status") == "ok"
            and all(m.get(k) == getattr(c, k) for k in ("n_gt", "tp", "fn", "n_pred"))
            and m.get("dice") is not None
            and abs(m["dice"] - c.dice) <= DICE_TOL
        )
        tally.check(ok, f"{c.gt}: got {m or rec}, expected n_gt={c.n_gt} tp={c.tp} "
                        f"fn={c.fn} n_pred={c.n_pred} dice={c.dice}")


def report_bytes(out: Path) -> bytes:
    return (out / "report.json").read_bytes() + b"\0" + (out / "cases.csv").read_bytes()


def report_digest(blob: bytes, manifest: Path, out: Path) -> str:
    """sha256 of report.json + cases.csv with the echoed run paths masked."""
    for path in (manifest, out):
        blob = blob.replace(json.dumps(str(path)).encode(), b'"<path>"')
    return hashlib.sha256(blob).hexdigest()


def corpus_eval(tally: Tally, work: Path, corpus, threads: int) -> tuple[float, bytes]:
    """Whole-manifest eval into ``out_corpus``; returns (wall s, report bytes)."""
    out = work / "out_corpus"
    code, wall = run_eval(work / "manifest.csv", out, corpus.distance, threads)
    check_eval(tally, code, out, corpus.cases)
    return wall, report_bytes(out)


def check_reports(tally: Tally, work: Path, corpus, digests: dict, seed: int,
                  pooled: bytes, serial: bytes) -> dict:
    """Byte identity of the nproc-worker and 1-worker reports, and the pinned digest."""
    tally.check(pooled == serial, "report.json/cases.csv differ between worker counts")
    digest = report_digest(serial, work / "manifest.csv", work / "out_corpus")
    pinned = digests.get(corpus.workload, {}).get(str(seed))
    if pinned is not None:
        tally.check(pinned == digest, f"report digest {digest} differs from pinned {pinned}")
    return {"report_digest": digest, "digest_pinned": pinned is not None}


def single_case(tally: Tally, work: Path, corpus, i: int, tracer=None, op: str = "") -> float:
    """One single-case eval with one worker, as root span ``cli.eval`` when traced.

    Returns its wall in seconds; the output check runs outside the span.
    """
    out = work / "out_single"
    manifest = work / f"case_{i:03d}.csv"
    if tracer is None:
        code, wall = run_eval(manifest, out, corpus.distance, 1)
    else:
        with tracer.active(), tracer.span("cli.eval", op=op):
            code, wall = run_eval(manifest, out, corpus.distance, 1)
    check_eval(tally, code, out, [corpus.cases[i]])
    return wall


def warm_up(tally: Tally, work: Path, corpus) -> None:
    """First calls pay lazy initialisation in numpy/scipy; keep it out of the samples."""
    largest = max(range(len(corpus.cases)), key=lambda i: corpus.cases[i].n_gt)
    single_case(tally, work, corpus, largest)


def eval_untraced(args, tally, work, corpus, digests) -> tuple[dict, dict]:
    n = len(corpus.cases)
    warm_up(tally, work, corpus)
    rates, case_ms = [], []
    t_start = time.perf_counter()
    while True:
        wall, pooled = corpus_eval(tally, work, corpus, nproc())
        rates.append(n / wall)
        for i in range(n):
            case_ms.append(single_case(tally, work, corpus, i) * 1e3)
        elapsed = time.perf_counter() - t_start
        if (elapsed >= args.seconds and len(case_ms) >= MIN_SAMPLES) or elapsed >= MAX_MEASURE_S:
            break
    _, serial = corpus_eval(tally, work, corpus, 1)
    info = check_reports(tally, work, corpus, digests, args.seed, pooled, serial)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms.p50": (percentile(case_ms, 50), "ms"),
        "op_ms.p90": (percentile(case_ms, 90), "ms"),
    }
    info.update(pooled_passes=len(rates), single_case_samples=len(case_ms))
    return metrics, info


def eval_traced(args, tally, work, corpus, digests):
    import lesionwise
    from tracer import Tracer

    warm_up(tally, work, corpus)
    wall_n, pooled = corpus_eval(tally, work, corpus, nproc())
    wall_1, serial = corpus_eval(tally, work, corpus, 1)
    info = check_reports(tally, work, corpus, digests, args.seed, pooled, serial)

    # Each case runs once untraced and once traced, in alternating order, so
    # drift during the run does not bias the overhead ratio.
    tracer = Tracer()
    untraced_s = 0.0
    passes = 0
    t_start = time.perf_counter()
    while True:
        for i, case in enumerate(corpus.cases):
            for traced in ((False, True) if (i + passes) % 2 else (True, False)):
                if traced:
                    single_case(tally, work, corpus, i, tracer, op=f"{passes}:{case.gt}")
                else:
                    untraced_s += single_case(tally, work, corpus, i)
        passes += 1
        if time.perf_counter() - t_start >= min(args.seconds, MAX_MEASURE_S):
            break

    # Peak traced bytes per lattice voxel of one partition, on the cases with
    # the most sites times voxels.
    heavy = sorted((c for c in corpus.cases if c.n_gt),
                   key=lambda c: -c.n_gt * c.shape[0] * c.shape[1] * c.shape[2])[:3]
    vor_peak = 0.0
    for c in heavy:
        lab = lesionwise.label_components(lesionwise.read_mask(work / c.gt))
        peak = traced_peak(lambda: lesionwise.voronoi_partition(lab, corpus.distance))
        vor_peak = max(vor_peak, peak / lab.labels.size)

    metrics, layer_info = layer_metrics(tracer, "cli.eval")
    metrics["voronoi.peak_b_per_vox"] = (vor_peak, "B/vox")
    metrics["losses.peak_b_per_vox"] = (0.0, "B/vox")
    metrics["cli.pool_efficiency"] = (wall_1 / (nproc() * wall_n), "ratio")
    metrics["trace.overhead_ratio"] = (layer_info["traced_s"] / untraced_s, "ratio")
    info.update(layer_info, traced_passes=passes, pool_walls_s={"1": wall_1, str(nproc()): wall_n})
    return metrics, info, tracer


# ---------------------------------------------------------------------------
# train-loss workload
# ---------------------------------------------------------------------------

def train_setup(subjects, tracer=None):
    """What a data loader with fixed GT does once: read, label, partition."""
    import lesionwise

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    prepared = []
    for s in subjects:
        with span("io.read"):
            gt = lesionwise.read_mask(s.gt_path)
        with span("components.label"):
            lab = lesionwise.label_components(gt)
        with span("voronoi.partition"):
            part = lesionwise.voronoi_partition(lab, "voxel")
        prepared.append((gt, lab, part))
    return prepared


def global_dicece_reference(logits32, gt_bool) -> float:
    """Soft Dice (no smoothing) plus mean stable BCE, straight from the formula."""
    l = logits32.astype(np.float64)
    g = gt_bool.astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-l))
    dice = 1.0 - 2.0 * np.sum(p * g) / (np.sum(p) + np.sum(g))
    ce = np.mean(np.maximum(l, 0.0) + np.log1p(np.exp(-np.abs(l))) - g * l)
    return float(dice + ce)


def train_steps(subjects):
    """One pass: every bank entry of every subject once per loss kind."""
    entries = [(s, b) for s in range(len(subjects)) for b in range(len(subjects[s].bank))]
    return [(s, b, kind) for s, b in entries for kind in KINDS]


def loss_step(subjects, prepared, s, b, kind, tracer=None):
    """One training step; None if it raised, which the output check then fails."""
    import lesionwise

    gt, lab, part = prepared[s]
    try:
        if tracer is None:
            logits = lesionwise.LogitVolume(subjects[s].bank[b], gt.spacing)
            return lesionwise.combined_loss(kind, logits, gt, lab=lab, part=part)
        with tracer.span("volumes.logit_wrap"):
            logits = lesionwise.LogitVolume(subjects[s].bank[b], gt.spacing)
        with tracer.span("losses.combine"):
            return lesionwise.combined_loss(kind, logits, gt, lab=lab, part=part)
    except Exception:  # noqa: BLE001 - a crashing step is a failed operation
        traceback.print_exc()
        return None


def check_step(tally, value, expected: dict, key, what) -> None:
    if value is None:
        tally.check(False, f"{what}: raised")
        return
    finite = bool(np.isfinite(value.scalar) and np.isfinite(value.grad).all())
    ref = expected.setdefault(key, value.scalar)  # cc/blob: first value; dicece: the formula
    close = abs(value.scalar - ref) <= LOSS_RTOL * max(1.0, abs(ref))
    tally.check(finite and close, f"{what}: scalar {value.scalar}, expected {ref}, finite={finite}")


def finite_difference_checks(tally, subjects, prepared, directional: dict) -> None:
    """Central difference along v, per kind per subject, vs <grad, v> at bank entry 0.

    ``directional[(s, kind)]`` holds <grad, v> from a timed step.
    """
    import lesionwise

    for s, subj in enumerate(subjects):
        gt, lab, part = prepared[s]
        l0 = subj.bank[0].astype(np.float64)
        v = subj.direction
        for kind in KINDS:
            def f(x):
                return lesionwise.combined_loss(kind, lesionwise.LogitVolume(x, gt.spacing), gt,
                                                lab=lab, part=part).scalar

            an = directional.get((s, kind))
            try:
                fd = (f(l0 + FD_EPS * v) - f(l0 - FD_EPS * v)) / (2 * FD_EPS)
            except Exception:  # noqa: BLE001 - a crashing check is a failed operation
                traceback.print_exc()
                fd = None
            tally.check(an is not None and fd is not None and abs(fd - an) <= FD_RTOL * max(abs(an), 1e-6),
                        f"subject {s} {kind}: finite difference {fd} vs <grad, v> {an}")


def train_untraced(args, tally, subjects, prepared) -> tuple[dict, dict]:
    expected = {(s, b, "dicece"): global_dicece_reference(subj.bank[b], prepared[s][0].voxels)
                for s, subj in enumerate(subjects) for b in range(len(subj.bank))}
    steps = train_steps(subjects)
    for s, b, kind in steps[:len(KINDS)]:  # warm-up, as in the eval workloads
        check_step(tally, loss_step(subjects, prepared, s, b, kind), expected, (s, b, kind), "warm-up")
    step_ms = []
    directional = {}
    t_start = time.perf_counter()
    while True:
        for s, b, kind in steps:
            t0 = time.perf_counter()
            value = loss_step(subjects, prepared, s, b, kind)
            step_ms.append((time.perf_counter() - t0) * 1e3)
            check_step(tally, value, expected, (s, b, kind), f"subject {s} bank {b} {kind}")
            if value is not None and b == 0 and (s, kind) not in directional:
                directional[(s, kind)] = float(np.vdot(value.grad, subjects[s].direction))
        elapsed = time.perf_counter() - t_start
        if (elapsed >= args.seconds and len(step_ms) >= MIN_SAMPLES) or elapsed >= MAX_MEASURE_S:
            break
    finite_difference_checks(tally, subjects, prepared, directional)
    by_kind = {k: step_ms[i::len(KINDS)] for i, k in enumerate(KINDS)}
    metrics = {
        "ops_per_s": (1e3 * len(step_ms) / sum(step_ms), "1/s"),
        "op_ms.p50": (percentile(step_ms, 50), "ms"),
        "op_ms.p90": (percentile(step_ms, 90), "ms"),
    }
    info = {"steps": len(step_ms),
            "step_ms_p50_by_kind": {k: percentile(v, 50) for k, v in by_kind.items()}}
    return metrics, info


def train_traced(args, tally, subjects):
    import lesionwise
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("setup", op="setup"):
        prepared = train_setup(subjects, tracer)
    steps = train_steps(subjects)
    expected: dict = {}
    for s, b, kind in steps[:len(KINDS)]:
        check_step(tally, loss_step(subjects, prepared, s, b, kind), expected, (s, b, kind), "warm-up")
    # Each step runs once untraced and once traced, in alternating order.
    untraced_s = 0.0
    passes = 0
    t_start = time.perf_counter()
    while True:
        for k, (s, b, kind) in enumerate(steps):
            for traced in ((False, True) if (k + passes) % 2 else (True, False)):
                if traced:
                    with tracer.active(), tracer.span("step", op=f"{passes}:{s}:{b}:{kind}"):
                        value = loss_step(subjects, prepared, s, b, kind, tracer)
                else:
                    t0 = time.perf_counter()
                    value = loss_step(subjects, prepared, s, b, kind)
                    untraced_s += time.perf_counter() - t0
                check_step(tally, value, expected, (s, b, kind), f"subject {s} bank {b} {kind}")
        passes += 1
        if time.perf_counter() - t_start >= min(args.seconds, MAX_MEASURE_S):
            break

    s_max = max(range(len(subjects)), key=lambda s: subjects[s].n_gt)
    gt, lab, part = prepared[s_max]
    vor_peak = traced_peak(lambda: lesionwise.voronoi_partition(lab, "voxel")) / gt.voxels.size
    loss_peak = max(
        traced_peak(lambda: loss_step(subjects, prepared, s_max, 0, kind)) for kind in KINDS
    ) / gt.voxels.size

    metrics, info = layer_metrics(tracer, "step")
    metrics["voronoi.peak_b_per_vox"] = (vor_peak, "B/vox")
    metrics["losses.peak_b_per_vox"] = (loss_peak, "B/vox")
    metrics["cli.pool_efficiency"] = (0.0, "ratio")
    metrics["trace.overhead_ratio"] = (info["traced_s"] / untraced_s, "ratio")
    setup_selfs, _, _, _ = tracer.self_times({"setup"})
    info.update(traced_passes=passes,
                setup_traced_s={k: v for k, v in setup_selfs.items() if k != "setup"})
    return metrics, info, tracer


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_SHARES = [
    ("io.read_pct", "io.read"),
    ("volumes.binarize_pct", "volumes.binarize"),
    ("volumes.logit_wrap_pct", "volumes.logit_wrap"),
    ("components.label_pct", "components.label"),
    ("voronoi.partition_pct", "voronoi.partition"),
    ("metrics.match_pct", "metrics.match"),
    ("metrics.cc_dice_pct", "metrics.cc_dice"),
    ("metrics.hard_dice_pct", "metrics.hard_dice"),
    ("metrics.case_pct", "metrics.case"),
    ("metrics.corpus_pct", "metrics.corpus"),
    ("losses.global_pct", "losses.global"),
    ("losses.cc_instance_pct", "losses.cc_instance"),
    ("losses.blob_instance_pct", "losses.blob_instance"),
    ("losses.combine_pct", "losses.combine"),
    ("cli.self_pct", "cli.eval"),
]
LAYER_COUNTS = [
    ("io.read_mb", "io.read", 1e-6, "MB"),
    ("components.labeled", "components.label", 1, "count"),
    ("voronoi.sites", "voronoi.partition", 1, "count"),
    ("metrics.match_pairs", "metrics.match", 1, "count"),
]


def layer_metrics(tracer, root: str) -> tuple[dict, dict]:
    """Self-time share of each layer in the traced ops, and counts per op."""
    selfs, counts, total, n_ops = tracer.self_times({root})
    metrics = {name: (100.0 * selfs.get(span, 0.0) / total, "%") for name, span in LAYER_SHARES}
    for name, span, scale, unit in LAYER_COUNTS:
        metrics[name] = (counts.get(span, 0) * scale / n_ops, unit)
    info = {"traced_ops": n_ops, "traced_s": total,
            "self_ms_per_op": {k: 1e3 * v / n_ops for k, v in sorted(selfs.items())}}
    return metrics, info


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy buffers included) during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "LESIONWISE_THREADS": {"pooled": nproc(), "single_case": 1}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lesionwise" / "__init__.py").is_file():
        print(f"lwbench: no lesionwise package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs

    digests = json.loads((HERE / "digests.json").read_text())
    work = ROOT / ".lwbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    tracer = None
    try:
        if args.workload == "train-loss":
            subjects = inputs.build_train_pool(args.seed, work)
            facts = inputs.train_facts(subjects)
        else:
            corpus = inputs.build_eval_corpus(args.workload, args.seed, work)
            facts = corpus.facts()

        setup = {}
        if not args.trace:
            setup["import_s"] = time_fresh_imports()

        if args.workload == "train-loss":
            if args.trace:
                metrics, info, tracer = train_traced(args, tally, subjects)
            else:
                walls = []
                for _ in range(SETUP_REPEATS):
                    t0 = time.perf_counter()
                    prepared = train_setup(subjects)
                    walls.append(time.perf_counter() - t0)
                setup["label_partition_s"] = statistics.median(walls)
                metrics, info = train_untraced(args, tally, subjects, prepared)
        elif args.trace:
            metrics, info, tracer = eval_traced(args, tally, work, corpus, digests)
        else:
            metrics, info = eval_untraced(args, tally, work, corpus, digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        metrics["setup_s"] = (setup["import_s"] + setup.get("label_partition_s", 0.0), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "inputs": facts, "setup": setup, "run": info,
              "errors": tally.errors}
    out_dir = ROOT / ".lwbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"spans-{stem}.json")

    for key in ("machine", "inputs", "setup", "run"):
        print(f"# {key}: {json.dumps(record[key], default=str)}")
    for err in tally.errors:
        print(f"# FAILED: {err}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
