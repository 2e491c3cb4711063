#!/usr/bin/env python3
"""Benchmark of the kph command line on planted key point hierarchies.

Run from anywhere; the checkout is the directory above this one:

    python3 bench/run.py --workload score_stress --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another
    python3 bench/run.py --write-reference       # refresh reference_digests.json

A run sets up the workload's corpus several times (setup_s is the median),
then measures for --seconds seconds. With --trace 0 it runs the command
sequence as subprocesses of the real CLI, as many passes as fit, and
reports the end-to-end metrics. With --trace 1 it runs one subprocess pass,
times cold imports, and replays the sequence in-process through
kph.cli.main, alternately with and without span recording, for the
per-layer metrics and the tracing overhead. Every op's outputs are checked
(see harness.py); on the default seed their digests must also match
reference_digests.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Work files go to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference_digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 7
IMPORT_PROBES = 5

from generator import write_corpus  # noqa: E402  (bench/ is sys.path[0])
from harness import (OpResult, PassResult, check_outputs, collect_outputs,  # noqa: E402
                     compare_digests, fresh_pass_dir, op_argv, report_value, run_pass)
from workloads import WORKLOADS, Workload  # noqa: E402
import tracing  # noqa: E402


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def kph_cli():
    """The checkout's kph.cli module, imported into this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kph.cli
    return kph.cli


def quiet_main(main, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup(w: Workload, seed: int) -> tuple[Path, list[str], list[float], list[str]]:
    """Write the corpus SETUP_REPS times; return it, its summary ids and the times."""
    cli = kph_cli() if w.prescore else None
    times, digests, errors = [], set(), []
    for i in range(SETUP_REPS):
        corpus = WORK / f"corpus{i}"
        shutil.rmtree(corpus, ignore_errors=True)
        t0 = time.perf_counter()
        planted = write_corpus(corpus, w.spec, seed)
        for argv in w.prescore:
            rc = quiet_main(cli.main, [argv[0], "--in-dir", str(corpus), "--out-dir", str(corpus),
                                       *argv[1:]])
            if rc != 0:
                errors.append(f"set-up: kph {' '.join(argv)} exited {rc}")
        times.append(time.perf_counter() - t0)
        digests.add(tree_digest(corpus))
    if len(digests) != 1:
        errors.append("set-up: the same seed wrote different corpora")
    return WORK / "corpus0", [p.summary_id for p in planted], times, errors


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def check_first_pass(p: PassResult, w: Workload, seed: int, pass_dir: Path, sids: list[str],
                     reference: dict | None) -> None:
    check_outputs(p, pass_dir, sids)
    if seed == DEFAULT_SEED and reference is not None:
        compare_digests(p, reference.get(w.name, {}), "the reference digests")


def quality(p: PassResult, w: Workload, pass_dir: Path) -> dict[str, float]:
    """macro_f1 (eval and tune reports, averaged) and macro_auc of a checked pass."""
    f1s = [report_value(pass_dir, op, name, "macro", "f1") for op in w.ops
           for cmd, name in (("eval", "report_eval.json"), ("tune", "report_loo.json"))
           if op.command == cmd]
    aucs = [report_value(pass_dir, op, "report_prcurve.json", "macro_auc")
            for op in w.ops if op.command == "prcurve"]
    out = {}
    if f1s and None not in f1s:
        out["macro_f1"] = statistics.fmean(f1s)
    if aucs and None not in aucs:
        out["macro_auc"] = statistics.fmean(aucs)
    return out


def measure_subprocess(w: Workload, seed: int, seconds: float, corpus: Path, sids: list[str],
                       reference: dict | None, max_passes: int | None = None):
    """Subprocess passes until the next one would overrun the run length (at least one)."""
    command, env = [sys.executable, "-m", "kph"], program_env()
    pass_dir = WORK / "pass"
    passes: list[PassResult] = []
    extra = {}
    t0 = time.perf_counter()
    while True:
        p = run_pass(w, corpus, pass_dir, command, env, sids)
        if passes:
            compare_digests(p, passes[0].digests, "the first pass")
        else:
            check_first_pass(p, w, seed, pass_dir, sids, reference)
            extra = quality(p, w, pass_dir)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if len(passes) == max_passes or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, extra


def end_to_end(passes: list[PassResult], setup_times: list[float]):
    """The end-to-end metrics, and the human-readable lines describing them."""
    stats = {"pipeline_s": [p.wall_s for p in passes], "cpu_s": [p.cpu_s for p in passes],
             "setup_s": setup_times}
    for stage in ("score", "build", "tune", "eval"):
        times = [p.stage_s(stage) for p in passes]
        if None not in times:
            stats[f"{stage}_s"] = times
    lines = []
    for name, xs in stats.items():
        q1, med, q3 = quartiles(xs)
        lines.append(f"  {name:<12} {med:10.4f} s    q1 {q1:.4f}  q3 {q3:.4f}  n={len(xs)}")
    peak = max(p.maxrss_kb for p in passes) / 1024.0
    lines.append(f"  {'peak_rss_mb':<12} {peak:10.2f} MB   largest max RSS of any subcommand")
    metrics = {"pipeline_s": (statistics.median(stats["pipeline_s"]), "s"),
               "cpu_s": (statistics.median(stats["cpu_s"]), "s"),
               "setup_s": (statistics.median(setup_times), "s"),
               "peak_rss_mb": (peak, "MB")}
    return metrics, lines


def replay(w: Workload, corpus: Path, sids: list[str], main, digests: dict[str, str],
           pass_dir: Path) -> tuple[float, list[OpResult]]:
    """The sequence in-process; returns ms spent in main and the checked op results."""
    fresh_pass_dir(corpus, pass_dir)
    total, results = 0.0, []
    for op in w.ops:
        (pass_dir / op.out).mkdir(parents=True, exist_ok=True)
        r = OpResult(op)
        t0 = time.perf_counter()
        rc = quiet_main(main, op_argv(op, pass_dir))
        total += time.perf_counter() - t0
        if rc != 0:
            r.errors.append(f"{op.label}: in-process exit code {rc}")
        else:
            collect_outputs(r, pass_dir, sids)
        results.append(r)
    compare_digests(PassResult(results), digests, "the subprocess pass")
    return total * 1000.0, results


def measure_traced(w: Workload, seed: int, seconds: float, corpus: Path, sids: list[str],
                   reference: dict | None):
    t0 = time.perf_counter()
    passes, extra = measure_subprocess(w, seed, seconds, corpus, sids, reference, max_passes=1)
    results = list(passes[0].ops)
    import_ms = []
    for _ in range(IMPORT_PROBES):
        t1 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kph"], env=program_env(), check=True)
        import_ms.append((time.perf_counter() - t1) * 1000.0)
    cli = kph_cli()
    tracers, traced_ms, plain_ms = [], [], []

    def traced_replay():
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            ms, ops = replay(w, corpus, sids, tracer.wrap(cli.main, "cli.main"),
                             passes[0].digests, WORK / "replay")
        tracers.append(tracer)
        traced_ms.append(ms)
        results.extend(ops)

    def plain_replay():
        ms, ops = replay(w, corpus, sids, cli.main, passes[0].digests, WORK / "replay")
        plain_ms.append(ms)
        results.extend(ops)

    # Pairs alternate which side runs first; at least two pairs, so the
    # overhead is not one difference between two noisy numbers.
    while True:
        t1 = time.perf_counter()
        for step in ((traced_replay, plain_replay) if len(tracers) % 2 == 0
                     else (plain_replay, traced_replay)):
            step()
        elapsed, pair = time.perf_counter() - t0, time.perf_counter() - t1
        if len(tracers) >= 2 and elapsed + pair > seconds:
            break
    metrics, levels = tracing.layer_metrics(tracers, import_ms)
    metrics["trace.overhead_ms"] = (statistics.median(traced_ms) - statistics.median(plain_ms),
                                    "ms")
    tracing.write_spans(WORK / "spans.jsonl", tracers)
    lines = [f"  {name:<40} {value:14.4f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  replays: {len(tracers)} traced, {len(plain_ms)} plain; "
                 f"tail levels: " + ", ".join(f"{k} {v}" for k, v in sorted(levels.items())))
    absent = sorted(tracing.absent_targets())
    if absent:
        lines.append(f"  absent (their metrics are omitted): {', '.join(absent)}")
    return metrics, lines, results, extra


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, reference: dict | None):
    corpus, sids, setup_times, errors = setup(w, seed)
    # Compile the package once, so no timed command pays for writing bytecode.
    subprocess.run([sys.executable, "-c", "import kph"], env=program_env(), check=True)
    if trace:
        metrics, lines, results, extra = measure_traced(w, seed, seconds, corpus, sids, reference)
    else:
        passes, extra = measure_subprocess(w, seed, seconds, corpus, sids, reference)
        metrics, lines = end_to_end(passes, setup_times)
        results = [r for p in passes for r in p.ops]
    lines += [f"  {name:<12} {value:10.6f} ratio" for name, value in sorted(extra.items())]
    errors += [e for r in results for e in r.errors]
    failed = sum(1 for r in results if r.errors)
    lines.append(f"  ops_failed   {failed} of {len(results)} ops_attempted")
    return metrics, lines, len(results), failed, errors


def write_reference() -> None:
    reference = {}
    for w in WORKLOADS.values():
        corpus, sids, _, errors = setup(w, DEFAULT_SEED)
        passes, _ = measure_subprocess(w, DEFAULT_SEED, 0, corpus, sids, None, max_passes=1)
        errors += [e for r in passes[0].ops for e in r.errors]
        if errors:
            sys.exit("cannot write reference digests:\n" + "\n".join(errors))
        reference[w.name] = dict(sorted(passes[0].digests.items()))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "kph" / "cli.py").is_file():
        print(f"bench: no kph sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    if args.write_reference:
        write_reference()
        return 0
    # Without the file every output on the default seed counts as a breach.
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, errors = {}, 0, 0, []
    for name in names:
        m, lines, n, f, errs = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                            bool(args.trace), reference)
        print(f"{name} (seed {args.seed}, trace {args.trace})")
        print("\n".join(lines), flush=True)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
        attempted, failed, errors = attempted + n, failed + f, errors + errs
    for e in errors[:20]:
        print(f"bench: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
