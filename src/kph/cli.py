"""Command line pipeline: ingestion -> scoring -> construction -> evaluation.

Inputs are addressed by a summary-set directory: one subdirectory per
summary holding its key point, match matrix, score, gold, and output
files. Each command computes its outputs; ``main`` writes them, then a run
manifest (inputs, resolved options, outputs, all digested) next to them.
A failed run leaves the files in the output directory as they were, or no
manifest if it failed while committing, and removes the directories it
created. A run whose output would replace one of its inputs exits 1 before
writing anything. Every float option is used as its manifest records it,
at 6 decimals: a finer value exits 1. Identical inputs and options, as
flags or from a config file, reproduce every output byte for byte.

Exit codes: 0 success, 1 usage error, 2 invalid input data or an output
that cannot be written, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import traceback
from importlib import import_module
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from . import __version__
from . import io as kio
from .core import (ALGORITHMS, DEFAULT_MIN_RECALL, DEFAULT_NEG_RATIO, DEFAULT_THETA_MATCH,
                   DEFAULT_WEAK_LABEL_SEED, DEFAULT_WEAK_LABEL_THRESHOLD, SCORER_NAMES,
                   Hierarchy)
from .errors import DataError, KphError

T = TypeVar("T")
# A command's outputs: path inside --out-dir -> (writer, object), in write order.
_Outputs = dict[str, tuple[Callable, object]]

# The names the commands call from scoring, construction and evaluation, by
# home module. main imports the running command's modules and binds their
# names as module globals, so each command loads only the modules it runs,
# and numpy only where they need it (README, "Command line"). A name already
# set when main runs, such as a wrapper around the original, stays in place.
# Each name is bound once, on first use, as if it were imported at the top:
# one deleted after that stays deleted (the benchmark's tests delete one to
# see its metrics reported absent).
_DEFERRED = {
    "scoring": ("combine_average", "compute_score_matrix", "export_weak_labels"),
    "construction": ("ConstructionConfig", "build_hierarchy"),
    "evaluation": ("EvalReport", "auc_at_min_recall", "evaluate_hierarchies",
                   "loo_threshold_tuning", "pr_curve", "spearman_correlation"),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}
# The modules each command calls into.
_USES = {"score": ("scoring",), "combine": ("scoring",), "weaklabel": ("scoring",),
         "build": ("construction",), "tune": ("construction", "evaluation"),
         "eval": ("evaluation",), "prcurve": ("evaluation",), "correlate": ("evaluation",),
         "validate": ()}
_bound: set[str] = set()  # the names __getattr__ has bound
# The options that name a file inside each summary directory, or a score name.
_FILE_NAMES = ("scores", "a", "b", "pred", "gold", "name")


def __getattr__(name: str):
    if name not in _HOME or name in _bound:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __package__), name)
    _bound.add(name)
    globals()[name] = value
    return value


class _Manifest:
    """Digests of the files one command read and wrote, saved as its run manifest.

    Every input is parsed through ``load``, so the inputs are exactly the
    files the command read, keyed ``<summary dir>/<file>`` (``read`` holds
    their resolved paths). Outputs are keyed by their path inside the output
    directory. The config is every resolved
    option of the subcommand but ``--config``, ``--in-dir`` and ``--out-dir``.
    ``write`` stages an output at its sibling ``.<name>.tmp``; ``save`` commits
    the run (old manifest removed, staged files renamed over their outputs in
    write order, new manifest last); ``discard`` removes what is still staged
    and then, if the run did not commit, the directories ``write`` created.
    """

    def __init__(self, args: argparse.Namespace, parser: _Parser):
        self.command = args.command
        self.out_dir = Path(args.out_dir)
        self.config = {dest: getattr(args, dest) for dest in _options(parser.commands[self.command])
                       if dest not in ("config", "in_dir", "out_dir")}
        self.inputs: dict[str, str] = {}
        self.read: set[Path] = set()
        self.outputs: dict[str, str] = {}
        self.staged: dict[Path, Path] = {}  # staged file -> its output path
        self.made: list[Path] = []  # directories this run created, outermost first

    def load(self, path: Path, loader: Callable[[Path], T]) -> T:
        """loader(path), with path recorded as an input."""
        obj = loader(path)
        self.inputs[f"{path.parent.name}/{path.name}"] = kio.file_digest(path)
        self.read.add(path.resolve())
        return obj

    def write(self, rel: str, writer: Callable, obj) -> None:
        path = self.out_dir / rel
        stage = path.with_name(f".{path.name}.tmp")
        self.made += reversed(list(itertools.takewhile(lambda d: not d.exists(), path.parents)))
        _write(path, writer, stage, obj)
        self.staged[stage] = path
        self.outputs[rel] = kio.file_digest(stage)

    def save(self) -> None:
        manifest = self.out_dir / f"manifest_{self.command}.json"
        _write(manifest, manifest.unlink, missing_ok=True)
        for stage, path in self.staged.items():
            _write(path, os.replace, stage, path)
        self.staged.clear()
        self.made.clear()
        _write(manifest, kio.write_manifest, manifest, self.command, __version__, self.config,
               self.inputs, self.outputs)

    def discard(self) -> None:
        for stage in self.staged:
            with contextlib.suppress(OSError):  # committed already, or beyond repair
                stage.unlink()
        for d in reversed(self.made):
            with contextlib.suppress(OSError):  # not empty, or beyond repair
                d.rmdir()


class _WriteError(Exception):
    """An output file could not be written (exit code 2, like bad input)."""


def _write(path: Path, fn: Callable, *args, **kwargs) -> None:
    """fn(*args, **kwargs), an OSError reported as a failed write of path."""
    try:
        fn(*args, **kwargs)
    except OSError as e:
        raise _WriteError(f"cannot write {path}: {e.strerror or e}") from e


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
    gold = dict(default=kio.GOLD_FILE, help="gold hierarchy file name (default %(default)s)")

    p = sub.add_parser("score", parents=[common],
                       help="compute distributional scores from match matrices")
    p.add_argument("--scorer", choices=SCORER_NAMES)
    p.add_argument("--theta-match", type=float, default=DEFAULT_THETA_MATCH,
                   help="match threshold for support sets (default %(default)s)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("combine", parents=[common],
                       help="average two score files pair by pair")
    p.add_argument("--a", help="first score file name inside each summary directory")
    p.add_argument("--b", help="second score file name")
    p.add_argument("--name", default="combined", help="output score name (default %(default)s)")
    p.set_defaults(func=cmd_combine)

    for cmd_name, help_text in (("build", "build hierarchies from score files"),
                                ("tune", "build hierarchies with leave-one-out tau tuning")):
        p = sub.add_parser(cmd_name, parents=[common], help=help_text)
        p.add_argument("--scores", help="score file name inside each summary directory")
        p.add_argument("--algorithm", choices=ALGORITHMS)
        if cmd_name == "build":
            p.add_argument("--tau", type=float, help="score threshold for a relation")
        else:
            p.add_argument("--gold", **gold)
            p.add_argument("--grid", default="0:1:0.01",
                           help="tau grid as start:stop:step or a comma list "
                                "(default %(default)s)")
        p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", parents=[common],
                       help="relation F1 of predicted vs gold hierarchies")
    p.add_argument("--pred", help="predicted hierarchy file name")
    p.add_argument("--gold", **gold)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("prcurve", parents=[common],
                       help="precision/recall curves and AUC of raw scores vs gold")
    p.add_argument("--scores", help="score file name inside each summary directory")
    p.add_argument("--gold", **gold)
    p.add_argument("--min-recall", type=float, default=DEFAULT_MIN_RECALL,
                   help="recall the AUC starts at (default %(default)s)")
    p.set_defaults(func=cmd_prcurve)

    p = sub.add_parser("weaklabel", parents=[common],
                       help="export entail/neutral training pairs from scores")
    p.add_argument("--scores", help="score file name inside each summary directory")
    p.add_argument("--threshold", type=float, default=DEFAULT_WEAK_LABEL_THRESHOLD,
                   help="score above which a pair is entail (default %(default)s)")
    p.add_argument("--ratio", type=float, default=DEFAULT_NEG_RATIO,
                   help="negatives kept per positive (default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_WEAK_LABEL_SEED,
                   help="seed for sampling the negatives (default %(default)s)")
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


def _options(sub: _Parser) -> dict[str, argparse.Action]:
    """A subcommand's options by dest, --help aside."""
    return {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}


def _read_config(path: str, parser: _Parser, command: str) -> dict[str, object]:
    """The config file's values for command, each converted by its option's type."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # ValueError: bad JSON, bad UTF-8, too many digits
        parser.error(f"cannot read config file {path}: {e}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {path} must hold a JSON object")
    options = {name: _options(sub) for name, sub in parser.commands.items()}
    unknown = sorted(set(cfg) - ({dest for opts in options.values() for dest in opts} - {"config"}))
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, value in cfg.items():
        action = options[command].get(key)
        if action is None:
            continue  # option not used by this subcommand
        kind = {None: str, int: int, float: (int, float)}[action.type]
        ok = isinstance(value, kind) and not isinstance(value, bool)
        try:
            value = (action.type or str)(value) if ok else value
        except OverflowError:  # an integer too large for a float
            ok = False
        if not ok or (action.choices is not None and value not in action.choices):
            parser.error(f"config key {key!r}: invalid value {value!r}")
        values[key] = value
    return values


def _parse(parser: _Parser, argv: Sequence[str] | None) -> argparse.Namespace:
    """Each option from its flag, else the config, else its default.

    An unset or empty option, a NUL byte, a path where a file name belongs
    or a float finer than its 6-decimal record exits 1.
    """
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    sub = parser.commands[args.command]
    if args.config and "\0" not in args.config:  # a NUL is refused below, before any read
        sub.set_defaults(**_read_config(args.config, parser, args.command))
        args = parser.parse_args(argv)  # flags win over the config's defaults
    for dest, action in _options(sub).items():
        value = getattr(args, dest)
        if value == "":
            parser.error(f"{action.option_strings[0]} must not be empty")
        if isinstance(value, str) and "\0" in value:
            parser.error(f"{action.option_strings[0]} must not hold a NUL byte")
        if value is None and dest != "config":
            parser.error(f"{action.option_strings[0]} is required")
        if dest in _FILE_NAMES and any(sep in value for sep in ("/", os.sep, os.altsep) if sep):
            parser.error(f"{action.option_strings[0]} must be a file name, not a path: {value!r}")
        if isinstance(value, float) and kio.finer_than_fmt6(value):
            parser.error(f"{action.option_strings[0]} must have at most 6 decimals, the 1e-06 "
                         f"resolution it is recorded at, got {value!r}")
    return args


def _parse_grid(text: str, parser: _Parser) -> tuple[float, ...]:
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("start, stop and step must be finite")
            if step < 1e-6:  # the resolution every tau is written at
                raise ValueError("step must be at least 1e-06")
            values = []
            while not values or 0.0 <= values[-1] <= 1.0:  # a far stop must not grow the list
                v = round(start + len(values) * step, 10)
                if v > stop + 1e-9:
                    break
                values.append(v)
        else:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        parser.error(f"bad --grid {text!r}: {e}")
    if not values:
        parser.error(f"--grid holds no tau, got {text!r}")
    if any(not 0.0 <= v <= 1.0 for v in values):
        parser.error(f"--grid values must lie in [0, 1], got {text!r}")
    finer = next((v for v in values if kio.finer_than_fmt6(v)), None)
    if finer is not None:
        parser.error(f"--grid values must have at most 6 decimals, the 1e-06 resolution they "
                     f"are recorded at, got {finer!r} from {text!r}")
    return tuple(values)


def _unfiltered_scores(files: dict, scores_name: str):
    """The summary's scores restricted to its unfiltered key points, and its domain.

    The key point file is optional for score-only pipelines; without it the
    score universe is used as-is and the domain defaults to "other".
    """
    s = files[scores_name]
    kps = files.get(kio.KEY_POINTS_FILE)
    if kps is None:
        return s, "other"
    unfiltered = set(kps.unfiltered_ids)
    return s.restrict([x for x in s.kp_ids if x in unfiltered]), kps.domain


def cmd_score(args, parser: _Parser, run: _Manifest) -> _Outputs:
    if not 0.0 <= args.theta_match <= 1.0:
        parser.error(f"--theta-match must lie in [0, 1], got {args.theta_match}")
    # popped, so that no matrix is held while the next one is read
    return {f"{d.name}/scores_{args.scorer}.jsonl":
            (kio.write_scores, compute_score_matrix(files.pop(kio.MATCH_MATRIX_FILE),
                                                    args.scorer, args.theta_match))
            for _, d, files in kio.load_summaries(
                args.in_dir, (kio.MATCH_MATRIX_FILE, kio.load_match_matrix), load=run.load)}


def cmd_combine(args, parser: _Parser, run: _Manifest) -> _Outputs:
    return {f"{d.name}/scores_{args.name}.jsonl":
            (kio.write_scores, combine_average(files[args.a], files[args.b]))
            for _, d, files in kio.load_summaries(
                args.in_dir, (args.a, kio.load_external_scores),
                (args.b, kio.load_external_scores), load=run.load)}


def cmd_build(args, parser: _Parser, run: _Manifest) -> _Outputs:
    scores_name, algorithm = args.scores, args.algorithm
    tuning = args.command == "tune"
    if tuning:
        grid = _parse_grid(args.grid, parser)
    elif not 0.0 <= args.tau <= 1.0:
        parser.error(f"--tau must lie in [0, 1], got {args.tau}")

    needed = [(scores_name, kio.load_external_scores)]
    if tuning:
        needed.append((args.gold, kio.load_hierarchy))
    scores_by_sid, dir_by_sid, domain_by_sid, golds = {}, {}, {}, {}
    for sid, d, files in kio.load_summaries(args.in_dir, *needed,
                                            optional=[(kio.KEY_POINTS_FILE, kio.load_key_points)],
                                            load=run.load):
        dir_by_sid[sid] = d
        scores_by_sid[sid], domain_by_sid[sid] = _unfiltered_scores(files, scores_name)
        if tuning:
            golds[sid] = files[args.gold]
            domain_by_sid[sid] = golds[sid].domain

    # reduced_forest sees tau only through the threshold graph (each score > tau),
    # which changes only where tau passes one of the summary's scores: one build
    # serves every tau with as many of those scores at or below it.
    forests: dict[tuple[str, int], Hierarchy] = {}
    levels: dict[str, list[float]] = {}  # summary -> its distinct scores, ascending

    def builder(s, tau: float) -> Hierarchy:
        config = ConstructionConfig(tau=tau, algorithm=algorithm)
        if algorithm == "reduced_forest":
            if s.summary_id not in levels:
                levels[s.summary_id] = sorted(set(itertools.chain.from_iterable(s.values)))
            key = (s.summary_id, bisect.bisect_right(levels[s.summary_id], tau))
            if key not in forests:
                forests[key] = build_hierarchy(s, config)
            return forests[key]
        return build_hierarchy(s, config)

    if tuning:
        taus, report, built = loo_threshold_tuning(scores_by_sid, golds, builder, grid)
        run.config.update(grid=grid, chosen_tau=taus)
    else:
        built = {sid: builder(scores_by_sid[sid], args.tau) for sid in sorted(scores_by_sid)}

    outputs = {f"{dir_by_sid[sid].name}/hierarchy_{algorithm}.jsonl":
               (kio.write_hierarchy, dataclasses.replace(h, domain=domain_by_sid[sid]))
               for sid, h in sorted(built.items())}
    if tuning:
        outputs["report_loo.json"] = (kio.write_report, report)
    return outputs


def cmd_eval(args, parser: _Parser, run: _Manifest) -> _Outputs:
    summaries = [files for _, _, files in kio.load_summaries(
        args.in_dir, (args.pred, kio.load_hierarchy), (args.gold, kio.load_hierarchy),
        load=run.load)]
    report = evaluate_hierarchies([f[args.pred] for f in summaries],
                                  [f[args.gold] for f in summaries])
    return {"report_eval.json": (kio.write_report, report),
            "metrics.csv": (kio.write_metrics_csv, report)}


def cmd_prcurve(args, parser: _Parser, run: _Manifest) -> _Outputs:
    if not 0.0 <= args.min_recall < 1.0:
        parser.error(f"--min-recall must lie in [0, 1), got {args.min_recall}")
    by_domain: dict[str, tuple[list, list]] = {}
    for _, _, files in kio.load_summaries(
            args.in_dir, (args.scores, kio.load_external_scores), (args.gold, kio.load_hierarchy),
            optional=[(kio.KEY_POINTS_FILE, kio.load_key_points)], load=run.load):
        g = files[args.gold]
        ss, gs = by_domain.setdefault(g.domain, ([], []))
        ss.append(_unfiltered_scores(files, args.scores)[0])
        gs.append(g)
    curves = {dom: pr_curve(ss, gs) for dom, (ss, gs) in sorted(by_domain.items())}
    aucs = {dom: auc_at_min_recall(c, args.min_recall) for dom, c in curves.items()}
    report = EvalReport(per_domain={}, per_domain_auc=aucs,
                        provenance={"scores": args.scores, "min_recall": args.min_recall})
    return {"report_prcurve.json": (kio.write_report, report),
            "pr_curves.csv": (kio.write_pr_curves, curves)}


def cmd_weaklabel(args, parser: _Parser, run: _Manifest) -> _Outputs:
    if not 0.0 < args.threshold < 1.0:
        parser.error(f"--threshold must lie in (0, 1), got {args.threshold}")
    if not (math.isfinite(args.ratio) and args.ratio >= 1):
        parser.error(f"--ratio must be a finite number >= 1, got {args.ratio}")
    return {f"{d.name}/weak_labels.jsonl":
            (kio.write_weak_labels, export_weak_labels(
                files[args.scores], files[kio.KEY_POINTS_FILE], threshold=args.threshold,
                neg_ratio=args.ratio, seed=args.seed))
            for _, d, files in kio.load_summaries(
                args.in_dir, (args.scores, kio.load_external_scores),
                (kio.KEY_POINTS_FILE, kio.load_key_points), load=run.load)}


def cmd_correlate(args, parser: _Parser, run: _Manifest) -> _Outputs:
    rows = {sid: spearman_correlation(files[args.a], files[args.b])
            for sid, _, files in kio.load_summaries(
                args.in_dir, (args.a, kio.load_external_scores),
                (args.b, kio.load_external_scores), load=run.load)}
    return {"correlations.csv": (kio.write_correlations, rows)}


def cmd_validate(args, parser: _Parser, run: _Manifest) -> _Outputs:
    # every score file name any summary directory holds, read where present
    score_names = sorted({p.name for p in Path(args.in_dir).glob("*/scores_*.jsonl")})
    kp_sets, golds = {}, {}
    for sid, d, files in kio.load_summaries(
            args.in_dir, (kio.KEY_POINTS_FILE, kio.load_key_points),
            optional=[(kio.MATCH_MATRIX_FILE, kio.load_match_matrix),
                      *((name, kio.load_external_scores) for name in score_names),
                      (kio.GOLD_FILE, kio.load_hierarchy)], load=run.load):
        kps = kp_sets[sid] = files[kio.KEY_POINTS_FILE]
        m = files.get(kio.MATCH_MATRIX_FILE)
        if m is not None and set(m.kp_ids) != set(kps.ids):
            raise DataError(f"{d / kio.MATCH_MATRIX_FILE}: columns do not match the summary's "
                            f"key points")
        for name in score_names:
            unknown = set(files[name].kp_ids) - set(kps.ids) if name in files else set()
            if unknown:
                raise DataError(f"{d / name}: unknown key points {sorted(unknown)}")
        if kio.GOLD_FILE in files:
            golds[sid] = files[kio.GOLD_FILE]
    stats = kio.dataset_stats(kp_sets, golds)
    doc = json.dumps(stats, indent=2, sort_keys=True)
    print(doc)
    return {"validation_report.json": (kio.write_text, doc + "\n")}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    run = None
    try:
        args = _parse(parser, argv)
        for module in _USES[args.command]:
            for name in _DEFERRED[module]:
                if name not in globals():
                    __getattr__(name)
        run = _Manifest(args, parser)
        outputs = args.func(args, parser, run)
        for rel in outputs:  # refused before anything is written
            if (run.out_dir / rel).resolve() in run.read:
                parser.error(f"output {run.out_dir / rel} is also an input of this run, "
                             f"which must not replace a file it read")
        for rel, (writer, obj) in outputs.items():
            run.write(rel, writer, obj)
        run.save()
        return 0
    except SystemExit as e:
        return int(e.code or 0)
    except DataError as e:
        print(f"kph: invalid input: {e}", file=sys.stderr)
        return 2
    except _WriteError as e:
        print(f"kph: {e}", file=sys.stderr)
        return 2
    except KphError as e:
        print(f"kph: internal invariant breach: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("kph: internal invariant breach (unexpected exception)", file=sys.stderr)
        return 3
    finally:
        if run is not None:
            run.discard()


if __name__ == "__main__":  # through the package entry, which sets the BLAS thread default
    from .__main__ import main as entry
    sys.exit(entry())
