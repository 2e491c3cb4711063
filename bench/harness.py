"""Passes over a workload's command sequence and the checks on their outputs.

A pass copies the corpus into a fresh directory and runs the sequence's
subcommands one after another. Each op (one subcommand invocation) fails
when it exits non-zero, when an expected output is missing, when its
manifest's sha256 does not match the file on disk, or when a check below
finds its outputs wrong. The checks recompute what they can without the
program: the bininc, weedsprec and clarkede scores from the match matrix,
combined scores from their inputs, and relation F1 of every eval and tune
report from the hierarchy files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from generator import forest_relations
from workloads import DATA, Op, Workload

TOL = 1e-6  # six-decimal serialization plus float summation order
OP_TIMEOUT_S = 100.0


@dataclass
class OpResult:
    op: Op
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    digests: dict[str, str] = field(default_factory=dict)  # "<label>/<path>" -> sha256
    errors: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    ops: list[OpResult]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for r in self.ops)

    @property
    def maxrss_kb(self) -> int:
        return max(r.maxrss_kb for r in self.ops)

    def stage_s(self, stage: str) -> float | None:
        times = [r.wall_s for r in self.ops if r.op.stage == stage]
        return sum(times) if times else None

    @property
    def digests(self) -> dict[str, str]:
        return {k: v for r in self.ops for k, v in r.digests.items()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def op_argv(op: Op, pass_dir: Path) -> list[str]:
    return [op.command, "--in-dir", str(pass_dir / DATA), "--out-dir", str(pass_dir / op.out),
            *op.argv[1:]]


def fresh_pass_dir(corpus: Path, pass_dir: Path) -> None:
    shutil.rmtree(pass_dir, ignore_errors=True)
    shutil.copytree(corpus, pass_dir / DATA)


def collect_outputs(r: OpResult, pass_dir: Path, summary_ids: list[str]) -> None:
    """Check the op's manifest against the disk and record its output digests."""
    op = r.op
    out_dir = pass_dir / op.out
    manifest_path = out_dir / f"manifest_{op.command}.json"
    try:
        outputs = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
    except (OSError, ValueError, KeyError) as e:
        r.errors.append(f"{op.label}: no readable manifest ({e})")
        return
    expected = [e.format(sid=sid) for e in op.expect
                for sid in (summary_ids if "{sid}" in e else [None])]
    for rel in expected:
        if rel not in outputs or not (out_dir / rel).is_file():
            r.errors.append(f"{op.label}: expected output {rel} is missing")
    for rel, digest in sorted(outputs.items()):
        path = out_dir / rel
        if not path.is_file():
            r.errors.append(f"{op.label}: manifest lists {rel}, which is not on disk")
            continue
        actual = sha256(path)
        if actual != digest:
            r.errors.append(f"{op.label}: {rel} does not match its manifest digest")
        r.digests[f"{op.label}/{rel}"] = actual


def run_subprocess_op(op: Op, pass_dir: Path, command: list[str], env: dict) -> OpResult:
    """Run one subcommand as its own process; time it and read its rusage."""
    r = OpResult(op)
    log = pass_dir / f"{op.label}.log"
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*command, *op_argv(op, pass_dir)], stdout=fh,
                                stderr=subprocess.STDOUT, env=env)
        # A hung command is killed, so a run still ends in bounded time.
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        r.wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    r.cpu_s = ru.ru_utime + ru.ru_stime
    r.maxrss_kb = ru.ru_maxrss
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
        r.errors.append(f"{op.label}: exit code {proc.returncode}: {tail}")
    return r


def run_pass(w: Workload, corpus: Path, pass_dir: Path, command: list[str], env: dict,
             summary_ids: list[str]) -> PassResult:
    fresh_pass_dir(corpus, pass_dir)
    results = []
    for op in w.ops:
        (pass_dir / op.out).mkdir(parents=True, exist_ok=True)
        r = run_subprocess_op(op, pass_dir, command, env)
        if not r.errors:
            collect_outputs(r, pass_dir, summary_ids)
        results.append(r)
    return PassResult(results)


# -- checks that recompute outputs without the program --------------------

def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]


def _score_rows(path: Path) -> tuple[list[str], dict[tuple[str, str], float]]:
    rows = _read_jsonl(path)
    return rows[0]["kp_ids"], {(r["src"], r["dst"]): r["score"] for r in rows[1:]}


def _match_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    kp_ids = lines[1].split(",")[1:]
    values = np.array([[float(c) for c in ln.split(",")[1:]] for ln in lines[2:] if ln],
                      dtype=float).reshape(-1, len(kp_ids))
    return kp_ids, values


def reference_scores(values: np.ndarray, scorer: str, theta: float = 0.5) -> np.ndarray:
    """s[i, j] for the inclusion scorers, straight from their definitions."""
    member = values >= theta
    mass = np.where(member, values, 0.0)
    size = member.sum(axis=0).astype(float)
    if scorer == "bininc":
        num, den = member.T.astype(float) @ member, size[:, None]
    elif scorer == "weedsprec":
        num, den = mass.T @ member, mass.sum(axis=0)[:, None]
    elif scorer == "clarkede":
        num = np.stack([(np.minimum(values[:, [i]], values) * (member[:, [i]] & member)).sum(axis=0)
                        for i in range(values.shape[1])])
        den = mass.sum(axis=0)[:, None]
    else:
        raise ValueError(scorer)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


RECOMPUTED_SCORERS = ("bininc", "weedsprec", "clarkede")


def _check_score_op(op: Op, pass_dir: Path, sids: list[str]) -> list[str]:
    scorer = op.argv[op.argv.index("--scorer") + 1]
    if scorer not in RECOMPUTED_SCORERS:
        return []
    errors = []
    for sid in sids:
        kp_ids, values = _match_matrix(pass_dir / DATA / sid / "match_matrix.csv")
        ref = reference_scores(values, scorer)
        _, got = _score_rows(pass_dir / op.out / sid / f"scores_{scorer}.jsonl")
        bad = [(a, b) for i, a in enumerate(kp_ids) for j, b in enumerate(kp_ids)
               if i != j and abs(got.get((a, b), -1.0) - ref[i, j]) > TOL]
        if bad:
            errors.append(f"{op.label}: {sid} has {len(bad)} wrong {scorer} scores, "
                          f"first {bad[0]}")
    return errors


def _check_combine_op(op: Op, pass_dir: Path, sids: list[str]) -> list[str]:
    name_a, name_b, name = (op.argv[op.argv.index(flag) + 1] for flag in ("--a", "--b", "--name"))
    errors = []
    for sid in sids:
        d = pass_dir / DATA / sid
        _, a = _score_rows(d / name_a)
        _, b = _score_rows(d / name_b)
        _, got = _score_rows(pass_dir / op.out / sid / f"scores_{name}.jsonl")
        if set(got) != set(a) or any(abs(got[p] - (a[p] + b[p]) / 2) > TOL for p in a):
            errors.append(f"{op.label}: {sid} combined scores are not the pairwise mean")
    return errors


def macro_f1(preds: dict[str, dict], golds: dict[str, dict]) -> tuple[float, dict[str, float]]:
    """Relation F1 pooled per domain, and its mean over domains."""
    per_domain: dict[str, list[set, set]] = {}
    for sid, gold in sorted(golds.items()):
        pool = per_domain.setdefault(gold["domain"], [set(), set()])
        for pool_set, doc in zip(pool, (preds[sid], gold)):
            pool_set.update((sid, x, y) for x, y in forest_relations(doc["clusters"], doc["edges"]))
    f1s = {}
    for dom, (pred, gold) in sorted(per_domain.items()):
        if not pred and not gold:
            f1s[dom] = 1.0
            continue
        inter = len(pred & gold)
        p = inter / len(pred) if pred else 0.0
        r = inter / len(gold) if gold else 1.0
        f1s[dom] = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return sum(f1s.values()) / len(f1s), f1s


def _check_f1_op(op: Op, pass_dir: Path, sids: list[str]) -> list[str]:
    if op.command == "eval":
        pred_name, report_name = op.argv[op.argv.index("--pred") + 1], "report_eval.json"
        pred_dir = pass_dir / DATA
    else:
        algorithm = op.argv[op.argv.index("--algorithm") + 1]
        pred_name, report_name = f"hierarchy_{algorithm}.jsonl", "report_loo.json"
        pred_dir = pass_dir / op.out
    golds = {sid: _read_jsonl(pass_dir / DATA / sid / "gold.jsonl")[0] for sid in sids}
    preds = {sid: _read_jsonl(pred_dir / sid / pred_name)[0] for sid in sids}
    macro, per_domain = macro_f1(preds, golds)
    report = json.loads((pass_dir / op.out / report_name).read_text(encoding="utf-8"))
    if abs(report["macro"]["f1"] - macro) > TOL or any(
            abs(report["per_domain"][d]["f1"] - f) > TOL for d, f in per_domain.items()):
        return [f"{op.label}: {report_name} F1 {report['macro']['f1']} differs from "
                f"the recomputed {macro:.6f}"]
    return []


CHECKS = {"score": _check_score_op, "combine": _check_combine_op,
          "eval": _check_f1_op, "tune": _check_f1_op}


def check_outputs(result: PassResult, pass_dir: Path, sids: list[str]) -> None:
    """Recompute the checkable outputs of a pass; record breaches on their ops."""
    for r in result.ops:
        check = CHECKS.get(r.op.command)
        if check and not r.errors:
            try:
                r.errors.extend(check(r.op, pass_dir, sids))
            except (OSError, ValueError, KeyError, IndexError) as e:
                r.errors.append(f"{r.op.label}: output unreadable for checking ({e!r})")


def compare_digests(result: PassResult, reference: dict[str, str], what: str) -> None:
    """Record on each op every output whose digest differs from the reference."""
    for r in result.ops:
        if r.errors:
            continue
        ref = {k: v for k, v in reference.items() if k.startswith(f"{r.op.label}/")}
        for key in sorted(set(ref) | set(r.digests)):
            if ref.get(key) != r.digests.get(key):
                r.errors.append(f"{key}: digest differs from {what}")


def report_value(pass_dir: Path, op: Op, report_name: str, *keys: str) -> float | None:
    path = pass_dir / op.out / report_name
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    for k in keys:
        doc = doc[k]
    return float(doc)
