"""File formats, loaders, and writers.

Every format is line-oriented text with "\n" endings and all floats fixed
at 6 decimal places, so identical inputs always produce byte-identical
files. FORMATS.md in the repository root documents each format field by
field; this module is the single implementation of that contract.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io as _io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .core import (Hierarchy, KeyPoint, KeyPointSet, derive_relations, left_to_right_mean,
                   validate_hierarchy)
from .errors import DataError, FormatError, HierarchyError

# scoring loads only in the readers of numeric files, so that reading and
# writing hierarchies and reports (kph eval) loads no more than it needs.
# numpy loads only in the match-matrix reader: score files are read into
# Python rows, so every command that reads scores but no match matrix
# (combine, build, tune, weaklabel) runs without it.
if TYPE_CHECKING:
    import numpy as np

    from .evaluation import EvalReport, PRCurve
    from .scoring import MatchMatrix, ScoreMatrix, WeakLabelSet

KEY_POINTS_FILE = "key_points.jsonl"
MATCH_MATRIX_FILE = "match_matrix.csv"
GOLD_FILE = "gold.jsonl"


def fmt6(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.6f}"


def finer_than_fmt6(v: float) -> bool:
    """True when finite v does not survive its 6-decimal record (fmt6)."""
    return math.isfinite(v) and float(fmt6(v)) != v


def dumps6(obj, indent: int | None = None, sort_keys: bool = False) -> str:
    """JSON text with every float rendered at exactly 6 decimal places.

    The stdlib encoder prints shortest-roundtrip floats, which makes file
    bytes depend on float repr subtleties; fixing the width keeps every
    emitted format diff-stable.
    """

    def _join(opener: str, parts: list[str], closer: str, depth: int) -> str:
        if not parts:
            return opener + closer
        if indent is None:
            return opener + ", ".join(parts) + closer
        inner = " " * (indent * (depth + 1))
        outer = " " * (indent * depth)
        return opener + "\n" + ",\n".join(inner + p for p in parts) + "\n" + outer + closer

    # numpy scalars count as numbers; none can exist unless numpy is loaded
    np = sys.modules.get("numpy")
    ints = (int, np.integer) if np else int
    floats = (float, np.floating) if np else float

    def emit(o, depth: int) -> str:
        if isinstance(o, bool):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, str):
            return json.dumps(o, ensure_ascii=False)
        if isinstance(o, ints):
            return str(int(o))
        if isinstance(o, floats):
            return fmt6(o)
        if isinstance(o, Mapping):
            keys = sorted(o, key=str) if sort_keys else list(o)
            parts = [f"{json.dumps(str(k), ensure_ascii=False)}: {emit(o[k], depth + 1)}"
                     for k in keys]
            return _join("{", parts, "}", depth)
        if isinstance(o, (list, tuple)):
            return _join("[", [emit(v, depth + 1) for v in o], "]", depth)
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return emit(obj, 0)


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_text(path: str | Path, text: str) -> None:
    """Replace path's contents with text, or leave the file as it was on failure.

    The text goes to a sibling temporary file that is then renamed over
    path, so no reader or crash ever sees a partly written file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The writers below call write_text through this second name. bench/tracing.py
# wraps the module's writers, write_text among them, and counts each span as
# one write; a writer reaching the wrapped write_text would count twice.
_write_text = write_text


def _read_lines(path: str | Path) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read file: {e}", path=path) from e
    return [ln for ln in text.split("\n") if ln.strip()]


def _load_json_line(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON: {e.msg}", path=path, line=lineno) from e
    except ValueError as e:  # an integer literal past Python's int max-str-digits limit
        raise FormatError(f"invalid JSON: {e}", path=path, line=lineno) from e
    if not isinstance(obj, dict):
        raise FormatError("expected a JSON object", path=path, line=lineno)
    return obj


# What each field type accepts, and the name the type-error message gives it.
_FIELD_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
}


def _field(obj: dict, name: str, kind, path, lineno: int):
    if name not in obj:
        raise FormatError("missing field", path=path, line=lineno, field=name)
    v = obj[name]
    accepted, noun = _FIELD_TYPES[kind]
    if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
        raise FormatError(f"expected {noun}, got {v!r}", path=path, line=lineno, field=name)
    if kind is float:
        try:
            return float(v)
        except OverflowError as e:  # an integer too large for a float
            raise FormatError("number is too large for a float",
                              path=path, line=lineno, field=name) from e
    return v


def _check_kind(obj: dict, expected: str, path, lineno: int) -> None:
    kind = _field(obj, "kind", str, path, lineno)
    if kind != expected:
        raise FormatError(f"expected kind {expected!r}, got {kind!r}",
                          path=path, line=lineno, field="kind")


# -- key points ---------------------------------------------------------

def write_key_points(path: str | Path, kps: KeyPointSet) -> None:
    lines = [dumps6({"kind": "key_point_set", "summary_id": kps.summary_id,
                    "domain": kps.domain})]
    for kp in kps.key_points:
        lines.append(dumps6(
            {"id": kp.id, "text": kp.text, "polarity": kp.polarity,
             "match_count": kp.match_count, "filtered": kp.filtered}))
    _write_text(path, "\n".join(lines) + "\n")


def load_key_points(path: str | Path) -> KeyPointSet:
    lines = _read_lines(path)
    if not lines:
        raise FormatError("empty key point file", path=path)
    meta = _load_json_line(path, 1, lines[0])
    _check_kind(meta, "key_point_set", path, 1)
    summary_id = _field(meta, "summary_id", str, path, 1)
    domain = _field(meta, "domain", str, path, 1)
    kps = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_json_line(path, lineno, line)
        try:
            kps.append(KeyPoint(
                id=_field(obj, "id", str, path, lineno),
                text=_field(obj, "text", str, path, lineno),
                polarity=_field(obj, "polarity", str, path, lineno),
                match_count=_field(obj, "match_count", int, path, lineno),
                filtered=_field(obj, "filtered", bool, path, lineno),
            ))
        except ValueError as e:
            raise FormatError(str(e), path=path, line=lineno) from e
    try:
        return KeyPointSet(summary_id=summary_id, domain=domain, key_points=tuple(kps))
    except ValueError as e:
        raise FormatError(str(e), path=path) from e


# -- match matrices -----------------------------------------------------

def write_match_matrix(path: str | Path, m: MatchMatrix) -> None:
    for name, value in (("summary_id", m.summary_id), ("domain", m.domain)):
        if any(ch.isspace() for ch in value):
            raise DataError(f"match matrix {name} {value!r} holds whitespace, which "
                            f"the '# summary_id=... domain=...' meta line cannot carry")
    for x in (*m.sentence_ids, *m.kp_ids):
        if "\r" in x or "\n" in x:
            raise DataError(f"match matrix id {x!r} holds a line break, which a CSV row "
                            f"of its own cannot carry")
    buf = _io.StringIO()
    buf.write(f"# summary_id={m.summary_id} domain={m.domain}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["sentence_id", *m.kp_ids])
    for i, sid in enumerate(m.sentence_ids):
        w.writerow([sid, *(fmt6(v) for v in m.values[i])])
    _write_text(path, buf.getvalue())


def _parse_meta_comment(path, line: str) -> dict[str, str]:
    if not line.startswith("#"):
        raise FormatError("expected a '# summary_id=... domain=...' meta line",
                          path=path, line=1)
    meta = {}
    for token in line[1:].split():
        if "=" not in token:
            raise FormatError(f"malformed meta token {token!r}", path=path, line=1)
        k, v = token.split("=", 1)
        if k in meta:
            raise FormatError("meta entry given twice", path=path, line=1, field=k)
        meta[k] = v
    for required in ("summary_id", "domain"):
        if required not in meta:
            raise FormatError("missing meta entry", path=path, line=1, field=required)
    return meta


def load_match_matrix(path: str | Path) -> MatchMatrix:
    from .scoring import MatchMatrix

    lines = _read_lines(path)
    if len(lines) < 2:
        raise FormatError("match matrix needs a meta line and a header row", path=path)
    meta = _parse_meta_comment(path, lines[0])
    parsed = _writer_form_rows(lines[1:])
    if parsed is None:
        parsed = _csv_rows(path, lines[1:])
    kp_ids, sentence_ids, values = parsed
    try:
        return MatchMatrix(
            summary_id=meta["summary_id"],
            sentence_ids=tuple(sentence_ids),
            kp_ids=kp_ids,
            values=values,
            domain=meta["domain"],
        )
    except DataError as e:
        raise FormatError(str(e), path=path) from e


def _csv_rows(path, lines: list[str]) -> tuple[tuple[str, ...], list[str], np.ndarray]:
    """The key point ids, sentence ids and values of a header and data rows, read row by row."""
    import numpy as np

    reader = csv.reader(lines)
    rows = []
    try:
        for row in reader:
            if reader.line_num != len(rows) + 1:  # csv.reader joined the next lines on
                raise FormatError("quoted field runs past the end of its line",
                                  path=path, line=len(rows) + 2)
            rows.append(row)
    except csv.Error as e:
        raise FormatError(f"malformed CSV: {e}", path=path, line=reader.line_num + 1) from e
    header = rows[0]
    if not header or header[0] != "sentence_id":
        raise FormatError("header row must start with 'sentence_id'",
                          path=path, line=2, field="sentence_id")
    kp_ids = tuple(header[1:])
    sentence_ids = []
    values = []  # every cell, row after row, for one np.array call
    for lineno, row in enumerate(rows[1:], start=3):
        if len(row) != len(header):
            raise FormatError(
                f"row has {len(row)} cells, header has {len(header)}",
                path=path, line=lineno)
        sentence_ids.append(row[0])
        try:
            values += [float(c) for c in row[1:]]
        except ValueError as e:
            raise FormatError(f"non-numeric likelihood: {e}", path=path, line=lineno) from e
    return kp_ids, sentence_ids, np.array(values, dtype=float).reshape(len(sentence_ids),
                                                                        len(kp_ids))


# A cell as write_match_matrix emits it: "," then fmt6 of a value below 10,
# which is 9 characters with the digits at these offsets.
_CELL_WIDTH = 9
_CELL_DIGITS = [1, 3, 4, 5, 6, 7, 8]
_DIGIT_WEIGHTS = (10**6, 10**5, 10**4, 10**3, 10**2, 10, 1)


def _writer_form_rows(lines: list[str]) -> tuple[tuple[str, ...], list[str], np.ndarray] | None:
    """What _csv_rows returns, if every data row is in the writer's form, else None.

    A row is in the writer's form when it ends in one ",d.dddddd" cell per
    key point and the sentence id before them holds no ',', '"', '\\r' or
    NUL and fits csv's field size limit, so csv.reader would split it at its
    commas and nowhere else. None sends the caller to _csv_rows, which reads
    any CSV and names the first bad record.
    """
    import numpy as np

    reader = csv.reader(lines)
    try:
        header = next(reader)
    except csv.Error:
        return None
    data = lines[1:]
    k = len(header) - 1
    # a header whose open quote runs into the next line is no header of its own
    if reader.line_num != 1 or header[:1] != ["sentence_id"] or k < 1 or not data:
        return None
    width = _CELL_WIDTH * k
    sentence_ids = [line[:-width] for line in data]
    cells = "".join([line[-width:] for line in data])
    joined_ids = "\n".join(sentence_ids)
    if (len(cells) != width * len(data)  # a row shorter than its cells
            or any(c in joined_ids for c in ',"\r\x00')
            or max(map(len, sentence_ids)) > csv.field_size_limit()):  # csv.reader raises
        return None
    try:
        a = np.frombuffer(cells.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL_WIDTH)
    except UnicodeEncodeError:
        return None
    digits = a[:, _CELL_DIGITS] - ord("0")  # uint8, so a byte below "0" wraps past 9
    if not ((a[:, 0] == ord(",")).all() and (a[:, 2] == ord(".")).all()
            and (digits <= 9).all()):
        return None
    # float(cell) is the float nearest n / 10**6, n being the cell's seven
    # digits read as one integer. n and 10**6 are exact in float64 and IEEE
    # division rounds to nearest, so n / 1e6 is that float. Integer weights
    # keep the product out of BLAS.
    n = np.einsum("ij,j->i", digits, np.array(_DIGIT_WEIGHTS, dtype=np.int32))
    return tuple(header[1:]), sentence_ids, (n / 1e6).reshape(len(data), k)


# -- score matrices -----------------------------------------------------

def write_scores(path: str | Path, s: ScoreMatrix) -> None:
    lines = [dumps6(
        {"kind": "scores", "summary_id": s.summary_id, "scorer": s.scorer,
         "params": s.params, "kp_ids": list(s.kp_ids)})]
    lines += _pair_lines(s.kp_ids, [fmt6(v) for _, _, v in s.pairs()])
    _write_text(path, "\n".join(lines) + "\n")


def _pair_lines(kp_ids: Iterable[str], score_texts: list[str]) -> list[str]:
    """dumps6({"src": src, "dst": dst, "score": v}) of each ordered pair of
    distinct ids, sorted by (src, dst), with score_texts as the scores' text."""
    q = [json.dumps(x, ensure_ascii=False) for x in sorted(kp_ids)]
    texts = iter(score_texts)
    return [f'{{"src": {a}, "dst": {b}, "score": {next(texts)}}}'
            for a in q for b in q if a != b]


def load_external_scores(path: str | Path) -> ScoreMatrix:
    """Load a score file; it must score every ordered pair of its key points once."""
    from .scoring import ScoreMatrix

    lines = _read_lines(path)
    if not lines:
        raise FormatError("empty score file", path=path)
    meta = _load_json_line(path, 1, lines[0])
    _check_kind(meta, "scores", path, 1)
    summary_id = _field(meta, "summary_id", str, path, 1)
    scorer = _field(meta, "scorer", str, path, 1)
    params = _field(meta, "params", dict, path, 1)
    kp_ids = _field(meta, "kp_ids", list, path, 1)
    if not all(isinstance(x, str) for x in kp_ids):
        raise FormatError("kp_ids must be strings", path=path, line=1, field="kp_ids")
    values = _canonical_score_values(kp_ids, lines[1:])
    if values is not None:
        return ScoreMatrix(summary_id, kp_ids, values, scorer, params)
    scores: dict[tuple[str, str], float] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_json_line(path, lineno, line)
        src = _field(obj, "src", str, path, lineno)
        dst = _field(obj, "dst", str, path, lineno)
        v = _field(obj, "score", float, path, lineno)
        if not 0.0 <= v <= 1.0:
            raise FormatError(f"score {v} for pair ({src!r}, {dst!r}) is outside [0, 1]",
                              path=path, line=lineno, field="score")
        if (src, dst) in scores:
            raise FormatError(f"pair ({src!r}, {dst!r}) listed twice",
                              path=path, line=lineno)
        scores[(src, dst)] = v
    try:
        return ScoreMatrix.from_pairs(summary_id, kp_ids, scores, scorer, params)
    except DataError as e:
        raise FormatError(str(e), path=path) from e


# The score that ends a pair line, in fmt6's form. '"score": ' only speeds
# the search up; equality with _pair_lines' text is the check. The form keeps
# out texts that float() reads but JSON rejects, such as "0_000001".
_SCORE_TEXT = re.compile(r'"score": ([0-9]\.[0-9]{6})\}$', re.M)


def _canonical_score_values(kp_ids: list[str], lines: list[str]) -> list[list[float]] | None:
    """The score rows of pair lines exactly as write_scores emits them, else None.

    Equality with the writer's text proves every ordered pair of distinct
    key points is scored once and decodes as json.loads would read it. None
    sends the caller to the line-by-line loop, which accepts any valid JSON
    object per line and names the first bad record.
    """
    n = len(kp_ids)
    texts = _SCORE_TEXT.findall("\n".join(lines))
    if (len(set(kp_ids)) != n or len(texts) != n * (n - 1)
            or max(texts, default="0") > "1.000000" or _pair_lines(kp_ids, texts) != lines):
        return None
    scores = map(float, texts)
    order = sorted(range(n), key=kp_ids.__getitem__)
    rows = [[0.0] * n for _ in range(n)]
    for i in order:  # the writer's pair order, sorted by (src, dst)
        row = rows[i]
        for j in order:
            if i != j:
                row[j] = next(scores)
    return rows


# -- hierarchies --------------------------------------------------------

def hierarchy_to_doc(h: Hierarchy) -> dict:
    return {
        "kind": "hierarchy",
        "summary_id": h.summary_id,
        "domain": h.domain,
        "clusters": [sorted(c) for c in h.clusters],
        "edges": sorted([c, p] for c, p in h.parent.items()),
    }


def write_hierarchies(path: str | Path, hs: Iterable[Hierarchy]) -> None:
    lines = [dumps6(hierarchy_to_doc(h)) for h in hs]
    _write_text(path, "\n".join(lines) + "\n")


def write_hierarchy(path: str | Path, h: Hierarchy) -> None:
    write_hierarchies(path, [h])


def load_hierarchies(path: str | Path) -> list[Hierarchy]:
    out = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        obj = _load_json_line(path, lineno, line)
        _check_kind(obj, "hierarchy", path, lineno)
        summary_id = _field(obj, "summary_id", str, path, lineno)
        domain = _field(obj, "domain", str, path, lineno)
        clusters = _field(obj, "clusters", list, path, lineno)
        edges = _field(obj, "edges", list, path, lineno)
        for c in clusters:
            if not isinstance(c, list) or not all(isinstance(x, str) for x in c):
                raise FormatError("each cluster must be a list of key point ids",
                                  path=path, line=lineno, field="clusters")
        parent: dict[int, int] = {}
        for e in edges:
            if (not isinstance(e, list) or len(e) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)):
                raise FormatError(f"edge {e!r} must be a [child, parent] index pair",
                                  path=path, line=lineno, field="edges")
            child, par = e
            if child in parent:
                raise FormatError(f"cluster {child} is given two parents",
                                  path=path, line=lineno, field="edges")
            parent[child] = par
        try:
            h = Hierarchy(summary_id=summary_id,
                          clusters=tuple(frozenset(c) for c in clusters),
                          parent=parent, domain=domain)
        except HierarchyError as e:
            raise FormatError(str(e), path=path, line=lineno) from e
        out.append(h)
    return out


def load_hierarchy(path: str | Path) -> Hierarchy:
    hs = load_hierarchies(path)
    if len(hs) != 1:
        raise FormatError(f"expected exactly one hierarchy, found {len(hs)}", path=path)
    return hs[0]


# -- weak labels --------------------------------------------------------

def write_weak_labels(path: str | Path, wls: WeakLabelSet) -> None:
    lines = [dumps6(
        {"kind": "weak_labels", "summary_id": wls.summary_id,
         "threshold": wls.threshold, "neg_ratio": wls.neg_ratio,
         "seed": wls.seed, "num_positive": wls.num_positive,
         "num_negative": wls.num_negative, "no_positives": wls.no_positives})]
    for r in wls.records:
        lines.append(dumps6(
            {"premise": r.premise, "hypothesis": r.hypothesis,
             "label": r.label, "score": r.score}))
    _write_text(path, "\n".join(lines) + "\n")


def load_weak_labels(path: str | Path) -> WeakLabelSet:
    from .scoring import WeakLabelRecord, WeakLabelSet

    lines = _read_lines(path)
    if not lines:
        raise FormatError("empty weak label file", path=path)
    meta = _load_json_line(path, 1, lines[0])
    _check_kind(meta, "weak_labels", path, 1)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        obj = _load_json_line(path, lineno, line)
        label = _field(obj, "label", str, path, lineno)
        if label not in ("entail", "neutral"):
            raise FormatError(f"label must be entail or neutral, got {label!r}",
                              path=path, line=lineno, field="label")
        records.append(WeakLabelRecord(
            premise=_field(obj, "premise", str, path, lineno),
            hypothesis=_field(obj, "hypothesis", str, path, lineno),
            label=label,
            score=_field(obj, "score", float, path, lineno),
        ))
    return WeakLabelSet(
        summary_id=_field(meta, "summary_id", str, path, 1),
        records=tuple(records),
        threshold=_field(meta, "threshold", float, path, 1),
        neg_ratio=_field(meta, "neg_ratio", float, path, 1),
        seed=_field(meta, "seed", int, path, 1),
        no_positives=_field(meta, "no_positives", bool, path, 1),
    )


# -- reports and curves -------------------------------------------------

def report_to_doc(report: EvalReport) -> dict:
    doc = {}
    if report.per_domain:
        doc["per_domain"] = {dom: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                             for dom, m in report.per_domain.items()}
        doc["macro"] = {"precision": report.macro_precision, "recall": report.macro_recall,
                        "f1": report.macro_f1}
    if report.per_domain_auc:
        doc["per_domain_auc"] = report.per_domain_auc
        doc["macro_auc"] = report.macro_auc
    if report.chosen_tau:
        doc["chosen_tau"] = report.chosen_tau
    if report.provenance:
        doc["provenance"] = report.provenance
    return doc


def write_report(path: str | Path, report: EvalReport) -> None:
    _write_text(path, dumps6(report_to_doc(report), indent=2, sort_keys=True) + "\n")


def write_metrics_csv(path: str | Path, report: EvalReport) -> None:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["domain", "precision", "recall", "f1"])
    for dom, m in report.per_domain.items():
        w.writerow([dom, fmt6(m.precision), fmt6(m.recall), fmt6(m.f1)])
    w.writerow(["MACRO", fmt6(report.macro_precision),
                fmt6(report.macro_recall), fmt6(report.macro_f1)])
    _write_text(path, buf.getvalue())


def write_pr_curves(path: str | Path, curves: Mapping[str, PRCurve]) -> None:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["domain", "threshold", "recall", "precision"])
    for dom in sorted(curves):
        for p in curves[dom].points:
            w.writerow([dom, fmt6(p.threshold), fmt6(p.recall), fmt6(p.precision)])
    _write_text(path, buf.getvalue())


def write_correlations(path: str | Path, rows: Mapping[str, float]) -> None:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["summary_id", "spearman"])
    for sid in sorted(rows):
        w.writerow([sid, fmt6(rows[sid])])
    if rows:
        w.writerow(["MEAN", fmt6(left_to_right_mean(rows.values()))])
    _write_text(path, buf.getvalue())


# -- datasets -----------------------------------------------------------

def discover_summaries(root: str | Path, filename: str = KEY_POINTS_FILE) -> list[Path]:
    """Summary directories under root, identified by holding filename."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"input directory {root} "
                        + ("is not a directory" if root.exists() else "does not exist"))
    return sorted(p.parent for p in root.glob(f"*/{glob.escape(filename)}"))


def load_summaries(root: str | Path, *files: tuple[str, Callable], optional=(),
                   load=lambda path, loader: loader(path)):
    """Yield (summary id, directory, {file name: loaded file}) for each summary under root.

    The summaries are the directories that hold the first of files, the
    (file name, loader) pairs each must hold; optional lists the pairs a
    directory may hold. Each file is read once, as load(path, loader), one
    directory at a time in name order. Raises DataError when a directory's
    files are for different summaries or a summary appears in two directories.
    """
    first = files[0][0]
    dirs = discover_summaries(root, first)
    if not dirs:
        raise DataError(f"no summaries found: no */{first} under {Path(root)}")
    seen = set()
    for d in dirs:
        loaded = {}
        for name, loader in (*files, *((n, f) for n, f in optional if (d / n).exists())):
            if name not in loaded:
                loaded[name] = load(d / name, loader)
        sid = loaded[first].summary_id
        other = next((name for name, obj in loaded.items() if obj.summary_id != sid), None)
        if other is not None:
            raise DataError(f"{d}: files are for different summaries: {first} is for "
                            f"{sid!r}, {other} is for {loaded[other].summary_id!r}")
        if sid in seen:
            raise DataError(f"summary {sid!r} appears in two directories")
        seen.add(sid)
        yield sid, d, loaded


def load_dataset(root: str | Path) -> tuple[dict[str, KeyPointSet], dict[str, Hierarchy]]:
    """Load every summary directory's key points and, when present, gold."""
    kp_sets: dict[str, KeyPointSet] = {}
    golds: dict[str, Hierarchy] = {}
    for sid, _, loaded in load_summaries(root, (KEY_POINTS_FILE, load_key_points),
                                         optional=[(GOLD_FILE, load_hierarchy)]):
        kp_sets[sid] = loaded[KEY_POINTS_FILE]
        if GOLD_FILE in loaded:
            golds[sid] = loaded[GOLD_FILE]
    return kp_sets, golds


def dataset_stats(kp_sets: Mapping[str, KeyPointSet],
                  golds: Mapping[str, Hierarchy]) -> dict[str, int]:
    """Dataset totals; raises if any gold hierarchy is invalid."""
    for sid in sorted(golds):
        if sid not in kp_sets:
            raise DataError(f"gold hierarchy {sid!r} has no key point set")
        violations = validate_hierarchy(golds[sid], kp_sets[sid])
        if violations:
            listed = "; ".join(str(v) for v in violations[:5])
            raise DataError(f"gold hierarchy {sid!r} is invalid: {listed}")
    return {
        "num_summaries": len(kp_sets),
        "num_kphs": len(golds),
        "num_key_points": sum(len(k) for k in kp_sets.values()),
        "num_filtered": sum(1 for k in kp_sets.values()
                            for kp in k.key_points if kp.filtered),
        "num_relations": sum(len(derive_relations(golds[sid])) for sid in sorted(golds)),
    }


# -- run manifests ------------------------------------------------------

def write_manifest(path: str | Path, subcommand: str, tool_version: str,
                   config: Mapping[str, object],
                   inputs: Mapping[str, str], outputs: Mapping[str, str]) -> None:
    doc = {
        "kind": "run_manifest",
        "subcommand": subcommand,
        "tool_version": tool_version,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
    }
    _write_text(path, dumps6(doc, indent=2, sort_keys=True) + "\n")
