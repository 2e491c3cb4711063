"""Command line pipeline: ingestion -> scoring -> construction -> evaluation.

Inputs are addressed by a summary-set directory: one subdirectory per
summary holding its key point, match matrix, score, gold, and output
files. Every command writes a run manifest (inputs, config, outputs, all
digested) next to its outputs; identical inputs and flags always reproduce
every output byte for byte.

Exit codes: 0 success, 1 usage error, 2 invalid input data, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import io as kio
from .construction import ALGORITHMS, DEFAULT_MAX_PASSES, ConstructionConfig, build_hierarchy
from .core import Hierarchy
from .errors import DataError, KphError
from .evaluation import (DEFAULT_MIN_RECALL, DEFAULT_TAU_GRID, EvalReport, auc_at_min_recall,
                         evaluate_hierarchies, loo_threshold_tuning, pr_curve,
                         spearman_correlation)
from .scoring import SCORERS, compute_score_matrix, combine_average, export_weak_labels


class _Manifest:
    """Digests of the files one command read and wrote, saved as its run manifest.

    Inputs are keyed ``<summary dir>/<file>``, outputs by their path inside
    the output directory. ``save`` comes last, once every output is written.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.inputs: dict[str, str] = {}
        self.outputs: dict[str, str] = {}

    def read(self, path: Path) -> None:
        self.inputs[f"{path.parent.name}/{path.name}"] = kio.file_digest(path)

    def write(self, rel: str, writer: Callable, obj) -> None:
        writer(self.out_dir / rel, obj)
        self.outputs[rel] = kio.file_digest(self.out_dir / rel)

    def save(self, subcommand: str, config: dict) -> None:
        kio.write_manifest(self.out_dir / f"manifest_{subcommand}.json", subcommand,
                           __version__, config, self.inputs, self.outputs)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kph", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kph {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON file of default option values; flags override it")
    common.add_argument("--in-dir", help="summary-set directory to read")
    common.add_argument("--out-dir", help="directory to write outputs and the run manifest")

    p = sub.add_parser("score", parents=[common],
                       help="compute distributional scores from match matrices")
    p.add_argument("--scorer", choices=sorted(SCORERS))
    p.add_argument("--theta-match", type=float, default=None,
                   help="match threshold for support sets (default 0.5)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("combine", parents=[common],
                       help="average two score files pair by pair")
    p.add_argument("--a", help="first score file name inside each summary directory")
    p.add_argument("--b", help="second score file name")
    p.add_argument("--name", default=None, help="output score name (default: combined)")
    p.set_defaults(func=cmd_combine)

    for cmd_name, help_text in (("build", "build hierarchies from score files"),
                                ("tune", "build hierarchies with leave-one-out tau tuning")):
        p = sub.add_parser(cmd_name, parents=[common], help=help_text)
        p.add_argument("--scores", help="score file name inside each summary directory")
        p.add_argument("--algorithm", choices=ALGORITHMS)
        p.add_argument("--max-passes", type=int, default=None)
        if cmd_name == "build":
            p.add_argument("--tau", type=float, default=None)
        else:
            p.add_argument("--gold", default=None,
                           help="gold hierarchy file name (default: gold.jsonl)")
            p.add_argument("--grid", default=None,
                           help="tau grid as start:stop:step or a comma list")
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", parents=[common],
                       help="relation F1 of predicted vs gold hierarchies")
    p.add_argument("--pred", help="predicted hierarchy file name")
    p.add_argument("--gold", default=None, help="gold hierarchy file name")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prcurve", parents=[common],
                       help="precision/recall curves and AUC of raw scores vs gold")
    p.add_argument("--scores", help="score file name inside each summary directory")
    p.add_argument("--gold", default=None, help="gold hierarchy file name")
    p.add_argument("--min-recall", type=float, default=None)
    p.set_defaults(func=cmd_prcurve)

    p = sub.add_parser("weaklabel", parents=[common],
                       help="export entail/neutral training pairs from scores")
    p.add_argument("--scores", help="score file name inside each summary directory")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--ratio", type=float, default=None,
                   help="negatives kept per positive (default 5)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampling the negatives (default 0)")
    p.set_defaults(func=cmd_weaklabel)

    p = sub.add_parser("correlate", parents=[common],
                       help="Spearman correlation between two score files")
    p.add_argument("--a", help="first score file name")
    p.add_argument("--b", help="second score file name")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("validate", parents=[common],
                       help="check formats and gold hierarchies, report dataset totals")
    p.set_defaults(func=cmd_validate)
    parser.commands = sub.choices
    return parser


def _apply_config(args: argparse.Namespace, parser: _Parser) -> None:
    if not getattr(args, "config", None):
        return
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: bad JSON, bad UTF-8, too many digits
        parser.error(f"cannot read config file {args.config}: {e}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {args.config} must hold a JSON object")
    options = {name: {a.dest: a for a in sub._actions if a.option_strings}
               for name, sub in parser.commands.items()}
    known = {dest for opts in options.values() for dest in opts} - {"help", "config"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    for key, value in cfg.items():
        action = options[args.command].get(key)
        if action is None:
            continue  # option not used by this subcommand
        kind = {None: str, int: int, float: (int, float)}[action.type]
        ok = isinstance(value, kind) and not isinstance(value, bool)
        if ok and action.type is float:
            try:
                float(value)
            except OverflowError:  # an integer too large for a float
                ok = False
        if not ok or (action.choices is not None and value not in action.choices):
            parser.error(f"config key {key!r}: invalid value {value!r}")
        if getattr(args, key) == action.default:  # the flag was not given
            setattr(args, key, value)


def _require(args, parser: _Parser, name: str, value):
    if value is None:
        parser.error(f"--{name.replace('_', '-')} is required")
    return value


def _in_out_dirs(args, parser: _Parser) -> tuple[Path, Path]:
    in_dir = Path(_require(args, parser, "in_dir", args.in_dir))
    out_dir = Path(_require(args, parser, "out_dir", args.out_dir))
    return in_dir, out_dir


def _dirs_with(root: Path, filename: str) -> list[Path]:
    """The summary directories under root that hold filename; at least one."""
    dirs = kio.discover_summaries(root, filename)
    if not dirs:
        raise DataError(f"no summaries found: no */{filename} under {root}")
    return dirs


def _parse_grid(text: str | None, parser: _Parser) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_TAU_GRID
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step < 1e-6:  # the resolution every tau is written at
                raise ValueError("step must be at least 1e-06")
            values = []
            k = 0
            while True:
                v = round(start + k * step, 10)
                if v > stop + 1e-9:
                    break
                values.append(v)
                if not 0.0 <= v <= 1.0:
                    break  # rejected below; a far stop must not grow the list
                k += 1
        else:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        parser.error(f"bad --grid {text!r}: {e}")
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        parser.error(f"--grid values must lie in [0, 1], got {text!r}")
    return tuple(values)


def _load_summary_scores(d: Path, scores_name: str):
    """Score matrix restricted to the summary's unfiltered key points, and its domain.

    The key point file is optional for score-only pipelines; without it the
    score universe is used as-is and the domain defaults to "other".
    """
    s = kio.load_external_scores(d / scores_name)
    kp_path = d / kio.KEY_POINTS_FILE
    domain = "other"
    if kp_path.exists():
        kps = kio.load_key_points(kp_path)
        if kps.summary_id != s.summary_id:
            raise DataError(
                f"{d}: key points are for {kps.summary_id!r} but scores are "
                f"for {s.summary_id!r}")
        unfiltered = set(kps.unfiltered_ids)
        keep = [x for x in s.kp_ids if x in unfiltered]
        s = s.restrict(keep)
        domain = kps.domain
    return s, domain


def cmd_score(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    scorer = _require(args, parser, "scorer", args.scorer)
    theta = args.theta_match if args.theta_match is not None else 0.5
    if not 0.0 <= theta <= 1.0:
        parser.error(f"--theta-match must lie in [0, 1], got {theta}")
    dirs = _dirs_with(in_dir, kio.MATCH_MATRIX_FILE)
    results = [compute_score_matrix(kio.load_match_matrix(d / kio.MATCH_MATRIX_FILE),
                                    scorer, theta) for d in dirs]
    run = _Manifest(out_dir)
    for d, sm in zip(dirs, results):
        run.write(f"{d.name}/scores_{scorer}.jsonl", kio.write_scores, sm)
        run.read(d / kio.MATCH_MATRIX_FILE)
    run.save("score", {"scorer": scorer, "theta_match": theta})
    return 0


def cmd_combine(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    name_a = _require(args, parser, "a", args.a)
    name_b = _require(args, parser, "b", args.b)
    out_name = args.name or "combined"
    dirs = _dirs_with(in_dir, name_a)
    results = [combine_average(kio.load_external_scores(d / name_a),
                               kio.load_external_scores(d / name_b)) for d in dirs]
    run = _Manifest(out_dir)
    for d, sm in zip(dirs, results):
        run.write(f"{d.name}/scores_{out_name}.jsonl", kio.write_scores, sm)
        run.read(d / name_a)
        run.read(d / name_b)
    run.save("combine", {"a": name_a, "b": name_b, "name": out_name})
    return 0


def cmd_build(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    scores_name = _require(args, parser, "scores", args.scores)
    algorithm = _require(args, parser, "algorithm", args.algorithm)
    max_passes = args.max_passes if args.max_passes is not None else DEFAULT_MAX_PASSES
    if max_passes < 1:
        parser.error(f"--max-passes must be >= 1, got {max_passes}")
    tuning = args.command == "tune"
    if not tuning:
        tau = _require(args, parser, "tau", args.tau)
        if not 0.0 <= tau <= 1.0:
            parser.error(f"--tau must lie in [0, 1], got {tau}")

    run = _Manifest(out_dir)
    scores_by_sid, dir_by_sid, domain_by_sid = {}, {}, {}
    for d in _dirs_with(in_dir, scores_name):
        s, domain = _load_summary_scores(d, scores_name)
        if s.summary_id in scores_by_sid:
            raise DataError(f"summary {s.summary_id!r} appears in two directories")
        scores_by_sid[s.summary_id] = s
        dir_by_sid[s.summary_id] = d
        domain_by_sid[s.summary_id] = domain
        run.read(d / scores_name)

    unconverged: dict[str, set[float]] = {}  # summary -> taus whose tncf hit max_passes
    # reduced_forest sees tau only through the threshold graph s.values > tau,
    # so one build serves every tau with the same graph.
    forests: dict[tuple[str, bytes], Hierarchy] = {}

    def builder(s, tau: float) -> Hierarchy:
        config = ConstructionConfig(tau=tau, algorithm=algorithm, max_passes=max_passes)
        if algorithm == "reduced_forest":
            key = (s.summary_id, np.packbits(s.values > tau).tobytes())
            if key not in forests:
                forests[key] = build_hierarchy(s, config)
            return forests[key]
        stats: dict = {}
        h = build_hierarchy(s, config, stats=stats)
        if stats.get("converged") is False:
            unconverged.setdefault(s.summary_id, set()).add(tau)
        return h

    config: dict[str, object] = {"scores": scores_name, "algorithm": algorithm,
                                 "max_passes": max_passes}
    report = None
    if tuning:
        grid = _parse_grid(args.grid, parser)
        gold_name = args.gold or kio.GOLD_FILE
        golds = {}
        for sid, d in sorted(dir_by_sid.items()):
            gold_path = d / gold_name
            if not gold_path.exists():
                raise DataError(f"{d}: tune needs {gold_name}, which is missing")
            g = kio.load_hierarchy(gold_path)
            if g.summary_id != sid:
                raise DataError(f"{d}: gold is for {g.summary_id!r}, scores for {sid!r}")
            golds[sid] = g
            domain_by_sid[sid] = g.domain
            run.read(gold_path)
        taus, report, built = loo_threshold_tuning(scores_by_sid, golds, builder, grid)
        config["grid"] = [kio.quant6(v) for v in grid]
        config["chosen_tau"] = {sid: kio.quant6(t) for sid, t in sorted(taus.items())}
    else:
        built = {sid: builder(scores_by_sid[sid], tau) for sid in sorted(scores_by_sid)}
        config["tau"] = tau

    for sid, stopped in sorted(unconverged.items()):
        print(f"kph: warning: summary {sid!r}: tncf stopped at max_passes={max_passes} "
              f"before converging (tau {', '.join(f'{t:g}' for t in sorted(stopped))})",
              file=sys.stderr)
    for sid, h in sorted(built.items()):
        run.write(f"{dir_by_sid[sid].name}/hierarchy_{algorithm}.jsonl", kio.write_hierarchy,
                  dataclasses.replace(h, domain=domain_by_sid[sid]))
    if report is not None:
        run.write("report_loo.json", kio.write_report, report)
    run.save(args.command, config)
    return 0


def cmd_eval(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    pred_name = _require(args, parser, "pred", args.pred)
    gold_name = args.gold or kio.GOLD_FILE
    run = _Manifest(out_dir)
    preds, golds = [], []
    for d in _dirs_with(in_dir, pred_name):
        gold_path = d / gold_name
        if not gold_path.exists():
            raise DataError(f"{d}: missing gold file {gold_name}")
        preds.append(kio.load_hierarchy(d / pred_name))
        golds.append(kio.load_hierarchy(gold_path))
        run.read(d / pred_name)
        run.read(gold_path)
    report = evaluate_hierarchies(preds, golds)
    run.write("report_eval.json", kio.write_report, report)
    run.write("metrics.csv", kio.write_metrics_csv, report)
    run.save("eval", {"pred": pred_name, "gold": gold_name})
    return 0


def cmd_prcurve(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    scores_name = _require(args, parser, "scores", args.scores)
    gold_name = args.gold or kio.GOLD_FILE
    min_recall = args.min_recall if args.min_recall is not None else DEFAULT_MIN_RECALL
    if not 0.0 <= min_recall < 1.0:
        parser.error(f"--min-recall must lie in [0, 1), got {min_recall}")
    run = _Manifest(out_dir)
    by_domain: dict[str, tuple[list, list]] = {}
    for d in _dirs_with(in_dir, scores_name):
        s, _ = _load_summary_scores(d, scores_name)
        gold_path = d / gold_name
        if not gold_path.exists():
            raise DataError(f"{d}: missing gold file {gold_name}")
        g = kio.load_hierarchy(gold_path)
        if g.summary_id != s.summary_id:
            raise DataError(f"{d}: gold is for {g.summary_id!r}, scores for {s.summary_id!r}")
        by_domain.setdefault(g.domain, ([], []))
        by_domain[g.domain][0].append(s)
        by_domain[g.domain][1].append(g)
        run.read(d / scores_name)
        run.read(gold_path)
    curves = {dom: pr_curve(ss, gs) for dom, (ss, gs) in sorted(by_domain.items())}
    aucs = {dom: auc_at_min_recall(c, min_recall) for dom, c in curves.items()}
    report = EvalReport(per_domain={}, per_domain_auc=aucs, curves=curves,
                        provenance={"scores": scores_name, "min_recall": min_recall})
    run.write("report_prcurve.json", kio.write_report, report)
    run.write("pr_curves.csv", kio.write_pr_curves, curves)
    run.save("prcurve", {"scores": scores_name, "gold": gold_name, "min_recall": min_recall})
    return 0


def cmd_weaklabel(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    scores_name = _require(args, parser, "scores", args.scores)
    threshold = args.threshold if args.threshold is not None else 0.5
    ratio = args.ratio if args.ratio is not None else 5.0
    seed = args.seed if args.seed is not None else 0
    if not 0.0 < threshold < 1.0:
        parser.error(f"--threshold must lie in (0, 1), got {threshold}")
    if not (math.isfinite(ratio) and ratio >= 1):
        parser.error(f"--ratio must be a finite number >= 1, got {ratio}")
    dirs = _dirs_with(in_dir, scores_name)
    results = []
    for d in dirs:
        s = kio.load_external_scores(d / scores_name)
        kp_path = d / kio.KEY_POINTS_FILE
        if not kp_path.exists():
            raise DataError(f"{d}: weak labeling needs {kio.KEY_POINTS_FILE} for the texts")
        kps = kio.load_key_points(kp_path)
        results.append(export_weak_labels(s, kps, threshold=threshold, neg_ratio=ratio,
                                          seed=seed))
    run = _Manifest(out_dir)
    for d, wls in zip(dirs, results):
        run.write(f"{d.name}/weak_labels.jsonl", kio.write_weak_labels, wls)
        run.read(d / scores_name)
        run.read(d / kio.KEY_POINTS_FILE)
    run.save("weaklabel", {"scores": scores_name, "threshold": threshold, "ratio": ratio,
                           "seed": seed})
    return 0


def cmd_correlate(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    name_a = _require(args, parser, "a", args.a)
    name_b = _require(args, parser, "b", args.b)
    run = _Manifest(out_dir)
    rows = {}
    for d in _dirs_with(in_dir, name_a):
        a = kio.load_external_scores(d / name_a)
        b = kio.load_external_scores(d / name_b)
        if a.summary_id != b.summary_id:
            raise DataError(f"{d}: score files are for different summaries")
        rows[a.summary_id] = spearman_correlation(a, b)
        run.read(d / name_a)
        run.read(d / name_b)
    run.write("correlations.csv", kio.write_correlations, rows)
    run.save("correlate", {"a": name_a, "b": name_b})
    return 0


def cmd_validate(args, parser: _Parser) -> int:
    in_dir, out_dir = _in_out_dirs(args, parser)
    dirs = _dirs_with(in_dir, kio.KEY_POINTS_FILE)
    kp_sets, golds = kio.load_dataset(in_dir)  # one key point set per dir, in dirs' order
    run = _Manifest(out_dir)
    for d, kps in zip(dirs, kp_sets.values()):
        run.read(d / kio.KEY_POINTS_FILE)
        mm_path = d / kio.MATCH_MATRIX_FILE
        if mm_path.exists():
            m = kio.load_match_matrix(mm_path)
            if m.summary_id != kps.summary_id:
                raise DataError(f"{mm_path}: match matrix is for {m.summary_id!r}, "
                                f"key points for {kps.summary_id!r}")
            if set(m.kp_ids) != set(kps.ids):
                raise DataError(f"{mm_path}: columns do not match the summary's key points")
            run.read(mm_path)
        for score_path in sorted(d.glob("scores_*.jsonl")):
            s = kio.load_external_scores(score_path)
            if s.summary_id != kps.summary_id:
                raise DataError(f"{score_path}: scores are for {s.summary_id!r}, "
                                f"key points for {kps.summary_id!r}")
            unknown = set(s.kp_ids) - set(kps.ids)
            if unknown:
                raise DataError(f"{score_path}: unknown key points {sorted(unknown)}")
            run.read(score_path)
        gold_path = d / kio.GOLD_FILE
        if gold_path.exists():
            run.read(gold_path)
    stats = kio.dataset_stats(kp_sets, golds)
    doc = json.dumps(stats, indent=2, sort_keys=True)
    print(doc)
    run.write("validation_report.json", kio.write_text, doc + "\n")
    run.save("validate", {})
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.error("a subcommand is required")
        _apply_config(args, parser)
        return args.func(args, parser)
    except SystemExit as e:
        return int(e.code or 0)
    except DataError as e:
        print(f"kph: invalid input: {e}", file=sys.stderr)
        return 2
    except KphError as e:
        print(f"kph: internal invariant breach: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("kph: internal invariant breach (unexpected exception)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
