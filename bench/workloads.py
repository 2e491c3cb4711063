"""The three workloads: corpus shape, set-up steps and the timed command sequence.

Every workload is a closed loop with one client: the commands run one
after another, each waiting for the previous one, all with the default
(serial) ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass

from generator import CorpusSpec

DATA = "data"  # the pass's copy of the corpus; commands that add score files write here


@dataclass(frozen=True)
class Op:
    """One subcommand invocation of a sequence."""

    label: str  # unique within the sequence; names the op's outputs
    argv: tuple[str, ...]  # subcommand and its flags, without --in-dir/--out-dir
    out: str  # output directory inside the pass: DATA or a directory of its own
    expect: tuple[str, ...]  # outputs that must exist; "{sid}" expands per summary

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def stage(self) -> str:
        return STAGES[self.command]


STAGES = {"score": "score", "combine": "score", "weaklabel": "score",
          "build": "build", "tune": "tune",
          "eval": "eval", "prcurve": "eval", "correlate": "eval",
          "validate": "validate"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    ops: tuple[Op, ...]
    prescore: tuple[tuple[str, ...], ...] = ()  # run in-process on the corpus during set-up


def _score(scorer: str) -> Op:
    return Op(f"score_{scorer}", ("score", "--scorer", scorer), DATA,
              (f"{{sid}}/scores_{scorer}.jsonl",))


def _combine(a: str, b: str) -> Op:
    return Op("combine", ("combine", "--a", f"scores_{a}.jsonl", "--b", f"scores_{b}.jsonl",
                          "--name", "combined"), DATA, ("{sid}/scores_combined.jsonl",))


def _build(algorithm: str) -> Op:
    return Op(f"build_{algorithm}",
              ("build", "--scores", "scores_combined.jsonl", "--algorithm", algorithm,
               "--tau", "0.5"),
              DATA, (f"{{sid}}/hierarchy_{algorithm}.jsonl",))


def _eval(algorithm: str) -> Op:
    return Op(f"eval_{algorithm}", ("eval", "--pred", f"hierarchy_{algorithm}.jsonl"),
              f"eval_{algorithm}", ("report_eval.json", "metrics.csv"))


def _tune(algorithm: str, *grid: str) -> Op:
    return Op(f"tune_{algorithm}",
              ("tune", "--scores", "scores_combined.jsonl", "--algorithm", algorithm, *grid),
              f"tune_{algorithm}", (f"{{sid}}/hierarchy_{algorithm}.jsonl", "report_loo.json"))


SCORE_STRESS = Workload(
    name="score_stress",
    why="eight short commands on 2000-sentence matrices: scoring, CSV parsing and "
        "interpreter start-up do the work, construction none",
    spec=CorpusSpec(domains=2, summaries_per_domain=2, key_points=(40,), filtered=(3,),
                    sentences=2000, flip=0.05, entail_sd=0.15),
    ops=(
        _score("bininc"), _score("weedsprec"), _score("clarkede"), _score("apinc"),
        _combine("bininc", "apinc"),
        Op("correlate", ("correlate", "--a", "scores_combined.jsonl",
                         "--b", "scores_entail.jsonl"), "correlate", ("correlations.csv",)),
        Op("weaklabel", ("weaklabel", "--scores", "scores_combined.jsonl"), "weaklabel",
           ("{sid}/weak_labels.jsonl",)),
        Op("prcurve", ("prcurve", "--scores", "scores_combined.jsonl"), "prcurve",
           ("report_prcurve.json", "pr_curves.csv")),
    ),
)

# 12 summaries in 6 domains with 517 key points, 86 of them filtered: the
# shape of the paper's dataset.
BUILD_PAPER = Workload(
    name="build_paper",
    why="a few large builds on paper-shaped summaries with noisy external scores: "
        "TNCF local search dominates, scoring is light",
    spec=CorpusSpec(domains=6, summaries_per_domain=2,
                    key_points=(44,) + (43,) * 11, filtered=(8, 8) + (7,) * 10,
                    sentences=400, flip=0.05, entail_sd=0.15),
    ops=(
        Op("validate", ("validate",), "validate", ("validation_report.json",)),
        _score("bininc"),
        _combine("bininc", "entail"),
        _build("tncf"), _build("greedy_gs"),
        _eval("tncf"), _eval("greedy_gs"),
    ),
)

TUNE_LOO = Workload(
    name="tune_loo",
    why="leave-one-out tau tuning over many small summaries: thousands of small builds "
        "and relation-F1 evaluations, scoring and I/O idle",
    spec=CorpusSpec(domains=4, summaries_per_domain=4, key_points=(12,), filtered=(1, 2),
                    sentences=150, flip=0.05, entail_sd=0.15),
    ops=(
        _tune("reduced_forest"),
        _tune("tncf", "--grid", "0:1:0.05"),
    ),
    prescore=(
        ("score", "--scorer", "bininc"),
        ("combine", "--a", "scores_bininc.jsonl", "--b", "scores_entail.jsonl",
         "--name", "combined"),
    ),
)

WORKLOADS = {w.name: w for w in (SCORE_STRESS, BUILD_PAPER, TUNE_LOO)}
