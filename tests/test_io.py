"""File formats: round-trips, fixed-decimal serialization, error reporting."""

import csv
import json
import random
from pathlib import Path

import numpy as np
import pytest

from kph import (
    DataError,
    FormatError,
    Hierarchy,
    KeyPoint,
    KeyPointSet,
    MatchMatrix,
    ScoreMatrix,
    WeakLabelRecord,
    WeakLabelSet,
    compute_score_matrix,
)
from kph import io as kio
from helpers import random_hierarchy, random_score_matrix, same_structure
from oracles import load_match_matrix_reference, load_scores_reference, write_scores_reference


def kp_set(n=3, summary_id="s", domain="hotels", filtered=()):
    return KeyPointSet(
        summary_id=summary_id, domain=domain,
        key_points=tuple(
            KeyPoint(id=f"k{i:02d}", text=f"The room was type {i}.",
                     polarity="positive", match_count=10 - i,
                     filtered=(i in filtered))
            for i in range(n)))


class TestFixedDecimals:
    def test_fmt6(self):
        assert kio.fmt6(0.5) == "0.500000"
        assert kio.fmt6(1 / 3) == "0.333333"
        assert kio.fmt6(-0.0) == "0.000000"

    def test_dumps6_formats_every_float(self):
        out = kio.dumps6({"a": 0.5, "b": [0.1, 2], "c": "x", "d": True, "e": None})
        assert '"a": 0.500000' in out
        assert "0.100000" in out
        assert '"d": true' in out and '"e": null' in out

    def test_dumps6_writes_numpy_scalars_as_python_numbers(self):
        assert (kio.dumps6({"f": np.float64(0.5), "g": np.float32(0.25), "i": np.int64(3)})
                == kio.dumps6({"f": 0.5, "g": 0.25, "i": 3}))

    def test_dumps6_round_trips_through_json(self):
        obj = {"scores": [0.123456789, 1.0], "n": 7, "name": "kéy"}
        parsed = json.loads(kio.dumps6(obj))
        assert parsed["scores"] == [0.123457, 1.0]
        assert parsed["n"] == 7 and parsed["name"] == "kéy"


class TestKeyPointsRoundTrip:
    def test_round_trip(self, tmp_path):
        kps = kp_set(4, filtered={2})
        p = tmp_path / "key_points.jsonl"
        kio.write_key_points(p, kps)
        assert kio.load_key_points(p) == kps

    def test_write_is_byte_stable(self, tmp_path):
        kps = kp_set(4)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        kio.write_key_points(a, kps)
        kio.write_key_points(b, kps)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_field_names_record_and_field(self, tmp_path):
        p = tmp_path / "kp.jsonl"
        kio.write_key_points(p, kp_set(2))
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        del doc["polarity"]
        p.write_text("\n".join([lines[0], json.dumps(doc), lines[2]]) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_key_points(p)
        msg = str(exc.value)
        assert "record 2" in msg and "polarity" in msg

    def test_wrong_type_rejected(self, tmp_path):
        p = tmp_path / "kp.jsonl"
        kio.write_key_points(p, kp_set(1))
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["match_count"] = "many"
        p.write_text("\n".join([lines[0], json.dumps(doc)]) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_key_points(p)
        assert "match_count" in str(exc.value)

    def test_garbage_json_names_line(self, tmp_path):
        p = tmp_path / "kp.jsonl"
        p.write_text('{"kind": "key_point_set", "summary_id": "s", "domain": "d"}\n'
                     "not json\n")
        with pytest.raises(FormatError) as exc:
            kio.load_key_points(p)
        assert "record 2" in str(exc.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            kio.load_key_points(tmp_path / "absent.jsonl")


class TestMatchMatrixRoundTrip:
    def _m(self, summary_id="s", domain="hotels"):
        rng = random.Random(61)
        values = np.array([[round(rng.random(), 6) for _ in range(3)]
                           for _ in range(4)])
        return MatchMatrix(summary_id=summary_id, domain=domain,
                           sentence_ids=tuple(f"sent{i}" for i in range(4)),
                           kp_ids=("k00", "k01", "k02"), values=values)

    def test_round_trip(self, tmp_path):
        m = self._m()
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, m)
        got = kio.load_match_matrix(p)
        assert got.summary_id == m.summary_id
        assert got.sentence_ids == m.sentence_ids
        assert got.kp_ids == m.kp_ids
        assert np.allclose(got.values, m.values, atol=1e-9)

    def test_cells_have_six_decimals(self, tmp_path):
        m = self._m()
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, m)
        data_row = p.read_text().splitlines()[2].split(",")
        assert all(len(cell.split(".")[1]) == 6 for cell in data_row[1:])

    def test_meta_values_round_trip(self, tmp_path):
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, self._m(summary_id="a=b#1", domain="hôtels"))
        got = kio.load_match_matrix(p)
        assert (got.summary_id, got.domain) == ("a=b#1", "hôtels")

    @pytest.mark.parametrize("meta", [{"summary_id": "my summary"},
                                      {"domain": "tab\there"}])
    def test_whitespace_in_meta_value_rejected(self, tmp_path, meta):
        p = tmp_path / "mm.csv"
        with pytest.raises(DataError, match="whitespace"):
            kio.write_match_matrix(p, self._m(**meta))
        assert not p.exists()

    def test_repeated_meta_entry_rejected(self, tmp_path):
        p = tmp_path / "mm.csv"
        p.write_text("# summary_id=a summary_id=b domain=d\nsentence_id,k\ns,0.500000\n")
        with pytest.raises(FormatError) as exc:
            kio.load_match_matrix(p)
        assert str(exc.value) == f"{p}, record 1, field 'summary_id': meta entry given twice"

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, self._m())
        lines = p.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            kio.load_match_matrix(p)

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, self._m())
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = "high"
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            kio.load_match_matrix(p)

    def test_out_of_range_cell_rejected(self, tmp_path):
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, self._m())
        lines = p.read_text().splitlines()
        parts = lines[2].split(",")
        parts[1] = "1.700000"
        lines[2] = ",".join(parts)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            kio.load_match_matrix(p)

    def test_cells_parse_as_float(self, tmp_path):
        p = tmp_path / "mm.csv"
        p.write_text("# summary_id=s domain=hotels\nsentence_id,a,b\n"
                     "t0, 0.5 ,1e-1\nt1,.25,1\n")
        assert kio.load_match_matrix(p).values.tolist() == [[0.5, 0.1], [0.25, 1.0]]

    @pytest.mark.parametrize("rows,message", [
        (["t0,nan,0.5"], "values must lie in [0, 1]"),
        (["t0,0.5,0.5", "t1,1e309,0.5"], "values must lie in [0, 1]"),
        # the first bad row is named, even when a later row is short
        (["t0,x,0.5", "t1,0.5"], "record 3: non-numeric likelihood"),
        (["t0,0.5,0.5", "t1,0.5", "t2,x,0.5"], "record 4: row has 2 cells, header has 3"),
    ])
    def test_first_bad_row_is_named(self, tmp_path, rows, message):
        p = tmp_path / "mm.csv"
        p.write_text("# summary_id=s domain=hotels\nsentence_id,a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_match_matrix(p)
        assert message in str(exc.value)

    @pytest.mark.parametrize("rows,record", [
        (['sentence_id,a,"b', "t0,0.5,0.5"], 2),  # the open quote would swallow every row
        (['sentence_id,a,"b', '0"', "t0,0.5,0.5"], 2),  # a key point id "b\n0" would read as b0
        (["sentence_id,a,b", "t0,0.5,0.5", '"t\n1",0.5,0.5'], 4),
    ])
    def test_quoted_field_must_close_on_its_line(self, tmp_path, rows, record):
        p = tmp_path / "mm.csv"
        p.write_text("# summary_id=s domain=hotels\n" + "\n".join(rows) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_match_matrix(p)
        assert str(exc.value) == f"{p}, record {record}: quoted field runs past the end of its line"

    def test_field_past_the_csv_limit_is_named(self, tmp_path):
        p = tmp_path / "mm.csv"
        long_id = "x" * (csv.field_size_limit() + 1)
        p.write_text(f"# summary_id=s domain=hotels\nsentence_id,a\nt0,0.5\n{long_id},0.5\n")
        with pytest.raises(FormatError, match="record 4: malformed CSV: field larger than"):
            kio.load_match_matrix(p)

    @pytest.mark.parametrize("sentence_ids,kp_ids", [
        (("sent0", "sent\n1", "sent2", "sent3"), ("k00", "k01", "k02")),
        (("sent0", "sent1", "sent2", "sent3"), ("k00", "k\r01", "k02")),
    ])
    def test_line_break_in_an_id_rejected(self, tmp_path, sentence_ids, kp_ids):
        m = self._m()
        p = tmp_path / "mm.csv"
        with pytest.raises(DataError, match="holds a line break"):
            kio.write_match_matrix(p, MatchMatrix(m.summary_id, sentence_ids, kp_ids, m.values,
                                                  m.domain))
        assert not p.exists()


class TestScoresRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = random.Random(62)
        s = random_score_matrix(rng, 4, quantize=True)
        p = tmp_path / "scores.jsonl"
        kio.write_scores(p, s)
        got = kio.load_external_scores(p)
        assert got.summary_id == s.summary_id
        assert got.kp_ids == s.kp_ids
        assert got.scores == s.scores

    def test_scores_serialized_at_six_decimals(self, tmp_path):
        s = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.5, ("b", "a"): 1 / 3})
        p = tmp_path / "scores.jsonl"
        kio.write_scores(p, s)
        text = p.read_text()
        assert '"score": 0.500000' in text
        assert '"score": 0.333333' in text

    def test_incomplete_scores_rejected(self, tmp_path):
        p = tmp_path / "scores.jsonl"
        s = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.5, ("b", "a"): 0.5})
        kio.write_scores(p, s)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FormatError):
            kio.load_external_scores(p)

    def test_duplicate_pair_rejected(self, tmp_path):
        p = tmp_path / "scores.jsonl"
        s = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.5, ("b", "a"): 0.5})
        kio.write_scores(p, s)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_external_scores(p)
        assert "record" in str(exc.value)

    def test_out_of_range_score_rejected(self, tmp_path):
        p = tmp_path / "scores.jsonl"
        s = ScoreMatrix.from_pairs(summary_id="s", kp_ids=("a", "b"),
                                   scores={("a", "b"): 0.5, ("b", "a"): 0.5})
        kio.write_scores(p, s)
        text = p.read_text().replace("0.500000", "1.500000", 1)
        p.write_text(text)
        with pytest.raises(FormatError):
            kio.load_external_scores(p)


# A quote, a backslash and a tab are escaped in JSON text; non-ASCII is not.
ODD_IDS = ('say "hi"', "back\\slash", "tab\there", "café", "日本")
PLAIN_IDS = tuple(f"k{i:02d}" for i in range(10))


def odd_score_matrix(rng: random.Random, ids) -> ScoreMatrix:
    """Scores over ids that mix -0.0, 0.0 and 1.0 in with random values."""
    values = np.zeros((len(ids), len(ids)))
    for i in range(len(ids)):
        for j in range(len(ids)):
            if i != j:
                values[i, j] = rng.choice([-0.0, 0.0, 1.0, rng.random()])
    return ScoreMatrix("s", ids, values, "avg", {"theta": 0.5, "inputs": ["a", "b"], "k": 3})


def pair_line(src: str, dst: str, score: str) -> str:
    return (f'{{"src": {json.dumps(src, ensure_ascii=False)}, '
            f'"dst": {json.dumps(dst, ensure_ascii=False)}, "score": {score}}}')


def _edit_one(edit):
    """A variant that rewrites one random pair line with edit(obj, rng)."""
    def variant(header, pairs, rng):
        k = rng.randrange(len(pairs))
        return [header, *pairs[:k], edit(json.loads(pairs[k]), rng), *pairs[k + 1:]]
    return variant


def _shuffled(header, pairs, rng):
    pairs = list(pairs)
    rng.shuffle(pairs)
    return [header, *pairs]


def _blank_lines(header, pairs, rng):
    lines = [header, *pairs]
    for _ in range(3):
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(["", "   ", "\t"]))
    return lines


def _duplicate_in_place(header, pairs, rng):
    i, j = rng.sample(range(len(pairs)), 2)
    pairs = list(pairs)
    pairs[i] = pairs[j]  # the line count stays n(n-1)
    return [header, *pairs]


def _duplicate_header_id(header, pairs, rng):
    meta = json.loads(header)
    meta["kp_ids"][-1] = meta["kp_ids"][0]
    return [kio.dumps6(meta), *pairs]


# score-file rewrites: (header line, pair lines, rng) -> the file's lines
LOADER_VARIANTS = {
    "canonical": lambda header, pairs, rng: [header, *pairs],
    "escaped ids": lambda header, pairs, rng: [header, *(p.replace('"k', '"\\u006b')
                                                       for p in pairs)],
    "compact spacing": lambda header, pairs, rng: [
        header, *(json.dumps(json.loads(p), separators=(",", ":")) for p in pairs)],
    "crlf endings": lambda header, pairs, rng: [header, *(p + "\r" for p in pairs)],
    "shuffled": _shuffled,
    "blank lines": _blank_lines,
    "duplicated pair in place": _duplicate_in_place,
    "duplicated pair appended": lambda header, pairs, rng: [header, *pairs, rng.choice(pairs)],
    "missing pair": lambda header, pairs, rng: [header, *pairs[:-1]],
    "duplicate header id": _duplicate_header_id,
    "unknown id": _edit_one(lambda o, rng: pair_line("zz", o["dst"], "0.500000")),
    "self pair": _edit_one(lambda o, rng: pair_line(o["src"], o["src"], "0.500000")),
    "score above 1": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "1.000001")),
    "score far above 1": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "9.999999")),
    "negative score": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "-0.100000")),
    "integer score": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "1")),
    "short score": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "0.5")),
    "huge integer score": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], "9" * 400)),
    "string score": _edit_one(lambda o, rng: pair_line(o["src"], o["dst"], '"0.500000"')),
    "extra key": _edit_one(lambda o, rng: json.dumps({**o, "note": 1})),
    "trailing space": lambda header, pairs, rng: [header, *pairs[:-1], pairs[-1] + " "],
    "keys reordered": lambda header, pairs, rng: [header, *(
        json.dumps({"dst": o["dst"], "src": o["src"], "score": o["score"]}, ensure_ascii=False)
        for o in map(json.loads, pairs))],
}


def value_bits(rows):
    """Score rows as the hex of every float: their shape and bits, -0.0 told from 0.0."""
    return [[v.hex() for v in row] for row in rows]


def load_outcome(load, path):
    """What a loader makes of a file: the matrix's fields, or the error text."""
    try:
        s = load(path)
    except FormatError as e:
        return str(e)
    return s.summary_id, s.kp_ids, value_bits(s.values), s.scorer, s.params


class TestScoreFileFastPaths:
    """The fast score writer and loader against their per-line oracles."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
    def test_writer_bytes_match_reference(self, tmp_path, n):
        rng = random.Random(n)
        for _ in range(8):
            s = odd_score_matrix(rng, rng.sample(PLAIN_IDS + ODD_IDS, n))
            kio.write_scores(tmp_path / "fast.jsonl", s)
            write_scores_reference(tmp_path / "ref.jsonl", s)
            assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()

    @pytest.mark.parametrize("variant", sorted(LOADER_VARIANTS))
    def test_loader_matches_reference(self, tmp_path, variant):
        p = tmp_path / "scores.jsonl"
        for seed in range(6):
            rng = random.Random(f"{variant}/{seed}")
            pool = PLAIN_IDS + ODD_IDS if seed % 2 else PLAIN_IDS
            kio.write_scores(p, odd_score_matrix(rng, rng.sample(pool, rng.choice([2, 3, 5]))))
            header, *pairs = p.read_text(encoding="utf-8").splitlines()
            lines = LOADER_VARIANTS[variant](header, pairs, rng)
            p.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert (load_outcome(kio.load_external_scores, p)
                    == load_outcome(load_scores_reference, p)), f"{variant} (seed {seed})"

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_canonical_files_take_the_array_path(self, tmp_path, n):
        """Whatever its ids hold, a file as write_scores emits it takes the array path."""
        p = tmp_path / "scores.jsonl"
        for ids in (PLAIN_IDS[:n], ODD_IDS[:n], ODD_IDS[::-1][:n]):
            kio.write_scores(p, odd_score_matrix(random.Random(n), ids))
            lines = p.read_text(encoding="utf-8").splitlines()
            values = kio._canonical_score_values(list(ids), lines[1:])
            assert values is not None, ids
            assert value_bits(values) == value_bits(load_scores_reference(p).values)

    def test_lines_are_not_decoded_together(self, tmp_path):
        """Two objects on one line plus one object split over two keep the
        line count right and decode as one JSON array, but are no score file."""
        p = tmp_path / "scores.jsonl"
        kio.write_scores(p, odd_score_matrix(random.Random(3), PLAIN_IDS[:3]))
        header, *pairs = p.read_text().splitlines()
        head, tail = pairs[2].split(', "score"')
        lines = [pairs[0] + ", " + pairs[1], head, '"score"' + tail, *pairs[3:]]
        assert len(lines) == len(pairs)
        assert len(json.loads("[" + ",".join(lines) + "]")) == len(pairs)
        p.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_external_scores(p)
        assert str(exc.value) == load_outcome(load_scores_reference, p)
        assert "record 2: invalid JSON: Extra data" in str(exc.value)


# -- match matrix files -----------------------------------------------------

# Sentence ids the writer leaves bare: outside ASCII, with a space, "=", "#" or "'".
BARE_SENTENCE_IDS = ("café", "日本 語", "a=b#1", "it's", " lead", "tab\there")


def odd_match_matrix(rng: random.Random, rows: int, k: int) -> MatchMatrix:
    """A matrix whose cells mix -0.0, 0.0 and 1.0 in with random values."""
    values = np.array([[rng.choice([-0.0, 0.0, 1.0, rng.random()]) for _ in range(k)]
                       for _ in range(rows)])
    return MatchMatrix("s", tuple(f"s{i:04d}" for i in range(rows)),
                       tuple(f"k{j:02d}" for j in range(k)), values, "hotels")


def _edit_row(edit):
    """A variant that rewrites one random data row with edit(row, rng)."""
    def variant(meta, header, rows, rng):
        i = rng.randrange(len(rows))
        return [meta, header, *rows[:i], edit(rows[i], rng), *rows[i + 1:]]
    return variant


def _set_id(text):
    return _edit_row(lambda row, rng: text + row[row.index(","):])


def _set_cell(text):
    def edit(row, rng):
        cells = row.split(",")
        cells[rng.randrange(1, len(cells))] = text
        return ",".join(cells)
    return _edit_row(edit)


def _bare_odd_ids(meta, header, rows, rng):
    return [meta, header, *(f"{rng.choice(BARE_SENTENCE_IDS)}{i}{row[row.index(','):]}"
                            for i, row in enumerate(rows))]


def _duplicate_sentence_id(meta, header, rows, rng):
    rows = list(rows)
    rows.append(rows[0][:rows[0].index(",")] + rows[-1][rows[-1].index(","):])
    return [meta, header, *rows]


def _open_quote_in_header(meta, header, rows, rng):
    """The last key point id opens a quote that no later line closes."""
    head, last = header.rsplit(",", 1)
    return [meta, f'{head},"{last}', *rows]


# match-matrix rewrites: (meta line, header line, data rows, rng) -> the file's lines
MATRIX_VARIANTS = {
    "canonical": lambda meta, header, rows, rng: [meta, header, *rows],
    "bare odd ids": _bare_odd_ids,
    "quoted id": _edit_row(lambda row, rng: f'"{row[:row.index(",")]}"{row[row.index(","):]}'),
    "id with comma": _set_id('"a,b"'),
    "id with quotes": _set_id('"say ""hi"""'),
    "id with bare quote": _set_id('say"hi'),
    "id with quoted cr": _set_id('"cr\rhere"'),
    "id with bare cr": _set_id("cr\rhere"),
    "id with nul": _set_id("nul\x00here"),
    "empty id": _set_id(""),
    "id past the csv field limit": _set_id("x" * (csv.field_size_limit() + 1)),
    "duplicate id": _duplicate_sentence_id,
    "crlf endings": lambda meta, header, rows, rng: [f"{x}\r" for x in [meta, header, *rows]],
    "blank lines": lambda meta, header, rows, rng: _blank_lines(meta, [header, *rows], rng),
    "short row": _edit_row(lambda row, rng: row[:row.rindex(",")]),
    "long row": _edit_row(lambda row, rng: row + ",0.500000"),
    "digit for the last comma": _edit_row(
        lambda row, rng: row[:row.rindex(",")] + "9" + row[row.rindex(",") + 1:]),
    "short cell": _set_cell("0.5"),
    "negative zero": _set_cell("-0.000000"),
    "just above 1": _set_cell("1.000001"),
    "far above 1": _set_cell("9.999999"),
    "underscore integer": _set_cell("1_0"),
    "underscore in a digit's place": _set_cell("0.10_000"),
    "underscore in the point's place": _set_cell("0_500000"),
    "arabic-indic digits": _set_cell("٠.٥٠٠٠٠٠"),
    "fullwidth digits": _set_cell("０.５"),
    "space in cell": _set_cell(" 0.50000"),
    "trailing space": _edit_row(lambda row, rng: row + " "),
    "header only": lambda meta, header, rows, rng: [meta, header],
    "kp id with comma": lambda meta, header, rows, rng: [
        meta, header.replace("k00", '"k,00"'), *rows],
    "open quote in header": _open_quote_in_header,
    "duplicate kp id": lambda meta, header, rows, rng: [
        meta, header + ",k00", *(row + ",0.500000" for row in rows)],
}

# The variants whose rows are all in the writer's form once the file is read.
# Reading translates "\r\n" to "\n", so CRLF endings are among them.
ARRAY_PATH_VARIANTS = {"canonical", "bare odd ids", "empty id", "duplicate id", "crlf endings",
                       "blank lines", "just above 1", "far above 1", "kp id with comma",
                       "duplicate kp id"}


def matrix_outcome(load, path):
    """What a loader makes of a file: the matrix's fields, or the error's type and text."""
    try:
        m = load(path)
    except (FormatError, csv.Error) as e:
        return type(e).__name__, str(e)
    return (m.summary_id, m.domain, m.sentence_ids, m.kp_ids, m.values.shape,
            m.values.tobytes())


def array_path_matches_reference(path) -> bool:
    """Whether the file's rows take the array path and give the oracle's fields."""
    parsed = kio._writer_form_rows(kio._read_lines(path)[1:])
    if parsed is None:
        return False
    kp_ids, sentence_ids, values = parsed
    ref = load_match_matrix_reference(path)
    return (kp_ids, tuple(sentence_ids), values.tobytes()) == (
        ref.kp_ids, ref.sentence_ids, ref.values.tobytes())


class TestMatchMatrixFastPath:
    """The array-speed match-matrix loader against its per-row oracle."""

    @pytest.mark.parametrize("variant", sorted(MATRIX_VARIANTS))
    def test_loader_matches_reference(self, tmp_path, variant):
        p = tmp_path / "mm.csv"
        for seed in range(6):
            rng = random.Random(f"{variant}/{seed}")
            kio.write_match_matrix(p, odd_match_matrix(rng, rng.choice([1, 2, 5]),
                                                       rng.choice([1, 3, 4])))
            meta, header, *rows = p.read_bytes().decode("utf-8").splitlines()
            lines = MATRIX_VARIANTS[variant](meta, header, rows, rng)
            p.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
            assert (matrix_outcome(kio.load_match_matrix, p)
                    == matrix_outcome(load_match_matrix_reference, p)), f"{variant} (seed {seed})"
            took_array_path = kio._writer_form_rows(kio._read_lines(p)[1:]) is not None
            assert took_array_path == (variant in ARRAY_PATH_VARIANTS), f"{variant} (seed {seed})"

    def test_every_six_decimal_cell_converts_like_float(self):
        cells = [f"{i // 10**6}.{i % 10**6:06d}" for i in range(10**6 + 1)]
        k = 9901  # 101 rows of 9901 cells hold all 1,000,001
        lines = [",".join(["sentence_id", *(f"k{j}" for j in range(k))])]
        lines += [",".join([f"s{r}", *cells[r * k:(r + 1) * k]]) for r in range(101)]
        _, _, values = kio._writer_form_rows(lines)
        assert values.tobytes() == np.array([float(c) for c in cells]).reshape(101, k).tobytes()

    @pytest.mark.parametrize("rows, k", [(1, 1), (3, 2), (40, 7)])
    def test_written_files_take_the_array_path(self, tmp_path, rows, k):
        rng = random.Random(rows * 100 + k)
        m = odd_match_matrix(rng, rows, k)
        ids = [f"{rng.choice(BARE_SENTENCE_IDS)}{i}" for i in range(rows)]
        p = tmp_path / "mm.csv"
        kio.write_match_matrix(p, MatchMatrix(m.summary_id, ids, m.kp_ids, m.values, m.domain))
        assert array_path_matches_reference(p)

    def test_score_stress_corpus_takes_the_array_path(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        from generator import write_corpus
        from workloads import SCORE_STRESS

        write_corpus(tmp_path, SCORE_STRESS.spec, 0)
        paths = sorted(tmp_path.glob(f"*/{kio.MATCH_MATRIX_FILE}"))
        assert len(paths) == 4
        assert all(array_path_matches_reference(p) for p in paths)


class TestHierarchyRoundTrip:
    def test_round_trip_many(self, tmp_path):
        rng = random.Random(63)
        hs = [random_hierarchy(rng, rng.randrange(1, 9), summary_id=f"s{i}",
                               domain=rng.choice(["hotels", "restaurants"]))
              for i in range(10)]
        p = tmp_path / "h.jsonl"
        kio.write_hierarchies(p, hs)
        got = kio.load_hierarchies(p)
        assert len(got) == len(hs)
        for a, b in zip(got, hs):
            assert a.summary_id == b.summary_id
            assert a.domain == b.domain
            assert same_structure(a, b)

    def test_write_is_byte_stable(self, tmp_path):
        rng = random.Random(64)
        h = random_hierarchy(rng, 6)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        kio.write_hierarchy(a, h)
        kio.write_hierarchy(b, h)
        assert a.read_bytes() == b.read_bytes()

    def test_doc_layout(self, tmp_path):
        h = Hierarchy(summary_id="s", domain="hotels",
                      clusters=(frozenset({"a", "b"}), frozenset({"z"})),
                      parent={1: 0})
        doc = kio.hierarchy_to_doc(h)
        assert doc["summary_id"] == "s"
        assert doc["domain"] == "hotels"
        assert doc["clusters"] == [["a", "b"], ["z"]]
        assert doc["edges"] == [[1, 0]]

    def test_duplicate_parent_rejected(self, tmp_path):
        p = tmp_path / "h.jsonl"
        doc = {"kind": "hierarchy", "summary_id": "s", "domain": "d",
               "clusters": [["a"], ["b"], ["cc"]], "edges": [[0, 1], [0, 2]]}
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError):
            kio.load_hierarchies(p)

    def test_bad_edge_shape_rejected(self, tmp_path):
        p = tmp_path / "h.jsonl"
        doc = {"kind": "hierarchy", "summary_id": "s", "domain": "d",
               "clusters": [["a"], ["b"]], "edges": [[0]]}
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError):
            kio.load_hierarchies(p)

    @pytest.mark.parametrize("clusters, edges, kind", [
        ([["a"], ["b"], ["cc"]], [[0, 1], [1, 2], [2, 0]], "cycle"),
        ([["a", "b"], ["b"]], [[1, 0]], "duplicate-membership"),
    ])
    def test_invalid_structure_rejected(self, tmp_path, clusters, edges, kind):
        p = tmp_path / "h.jsonl"
        good = {"kind": "hierarchy", "summary_id": "s0", "domain": "d",
                "clusters": [["a"]], "edges": []}
        bad = {"kind": "hierarchy", "summary_id": "s1", "domain": "d",
               "clusters": clusters, "edges": edges}
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(FormatError) as exc:
            kio.load_hierarchies(p)
        assert str(exc.value).startswith(f"{p}, record 2: invalid hierarchy: {kind}: ")

    def test_load_hierarchy_wants_exactly_one(self, tmp_path):
        rng = random.Random(65)
        p = tmp_path / "h.jsonl"
        kio.write_hierarchies(p, [random_hierarchy(rng, 3, summary_id="s1"),
                                  random_hierarchy(rng, 3, summary_id="s2")])
        with pytest.raises(FormatError):
            kio.load_hierarchy(p)


class TestWeakLabelsRoundTrip:
    def test_round_trip(self, tmp_path):
        wls = WeakLabelSet(
            summary_id="s",
            records=(WeakLabelRecord("the pool was warm", "swimming was nice",
                                     "entail", 0.75),
                     WeakLabelRecord("the pool was warm", "breakfast was cold",
                                     "neutral", 0.125)),
            threshold=0.5, neg_ratio=2.0, seed=7)
        p = tmp_path / "wl.jsonl"
        kio.write_weak_labels(p, wls)
        got = kio.load_weak_labels(p)
        assert got == wls

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "wl.jsonl"
        wls = WeakLabelSet(summary_id="s",
                           records=(WeakLabelRecord("a", "b", "entail", 0.9),),
                           threshold=0.5, neg_ratio=1.0, seed=0)
        kio.write_weak_labels(p, wls)
        p.write_text(p.read_text().replace("entail", "maybe"))
        with pytest.raises(FormatError):
            kio.load_weak_labels(p)


class TestDigest:
    def test_stable_for_same_content(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        kio.write_text(a, "hello\n")
        kio.write_text(b, "hello\n")
        assert kio.file_digest(a) == kio.file_digest(b)
        kio.write_text(b, "other\n")
        assert kio.file_digest(a) != kio.file_digest(b)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / kio.KEY_POINTS_FILE
        kio.write_key_points(p, kp_set())
        before = p.read_bytes()
        # a lone surrogate passes the writer's checks but cannot be encoded,
        # so writing fails after the output file was opened
        bad = KeyPointSet(summary_id="s", domain="hotels",
                          key_points=(KeyPoint(id="k00", text="broken \ud800 text"),))
        with pytest.raises(UnicodeEncodeError):
            kio.write_key_points(p, bad)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == [p.name]


class TestDataset:
    def _make(self, root, sid, domain, n=3, gold=True):
        d = root / sid
        d.mkdir(parents=True)
        kps = kp_set(n, summary_id=sid, domain=domain)
        kio.write_key_points(d / kio.KEY_POINTS_FILE, kps)
        if gold:
            h = Hierarchy(summary_id=sid, domain=domain,
                          clusters=tuple(frozenset({f"k{i:02d}"}) for i in range(n)),
                          parent={1: 0} if n > 1 else {})
            kio.write_hierarchy(d / kio.GOLD_FILE, h)
        return kps

    def test_discover_and_load(self, tmp_path):
        self._make(tmp_path, "s1", "hotels")
        self._make(tmp_path, "s2", "restaurants", n=4)
        assert [p.name for p in kio.discover_summaries(tmp_path)] == ["s1", "s2"]
        kp_sets, golds = kio.load_dataset(tmp_path)
        assert set(kp_sets) == {"s1", "s2"}
        assert set(golds) == {"s1", "s2"}
        assert golds["s2"].domain == "restaurants"

    def test_gold_is_optional(self, tmp_path):
        self._make(tmp_path, "s1", "hotels", gold=False)
        kp_sets, golds = kio.load_dataset(tmp_path)
        assert set(kp_sets) == {"s1"} and golds == {}

    def test_stats(self, tmp_path):
        self._make(tmp_path, "s1", "hotels", n=3)
        self._make(tmp_path, "s2", "restaurants", n=4)
        kp_sets, golds = kio.load_dataset(tmp_path)
        stats = kio.dataset_stats(kp_sets, golds)
        assert stats["num_summaries"] == 2
        assert stats["num_kphs"] == 2
        assert stats["num_key_points"] == 7
        assert stats["num_filtered"] == 0
        # each gold contributes the single relation k01 -> k00
        assert stats["num_relations"] == 2

    def test_stats_reject_invalid_gold(self, tmp_path):
        self._make(tmp_path, "s1", "hotels", n=2)
        kp_sets, golds = kio.load_dataset(tmp_path)
        bad = Hierarchy(summary_id="s1", domain="hotels",
                        clusters=(frozenset({"k00"}), frozenset({"zz"})),
                        parent={})
        with pytest.raises(DataError):
            kio.dataset_stats(kp_sets, {"s1": bad})


class TestReportWriters:
    def test_metrics_csv(self, tmp_path):
        from kph import evaluate_hierarchies
        g1 = Hierarchy(summary_id="a", domain="hotels",
                       clusters=(frozenset({"x", "y"}),), parent={})
        g2 = Hierarchy(summary_id="b", domain="restaurants",
                       clusters=(frozenset({"x"}), frozenset({"y"})), parent={1: 0})
        rep = evaluate_hierarchies([g1, g2], [g1, g2])
        p = tmp_path / "metrics.csv"
        kio.write_metrics_csv(p, rep)
        lines = p.read_text().splitlines()
        assert lines[0] == "domain,precision,recall,f1"
        assert lines[1].startswith("hotels,1.000000")
        assert lines[-1].startswith("MACRO,1.000000")

    def test_report_json_uses_six_decimals(self, tmp_path):
        from kph import evaluate_hierarchies
        g = Hierarchy(summary_id="a", domain="hotels",
                      clusters=(frozenset({"x", "y"}),), parent={})
        pred = Hierarchy(summary_id="a", domain="hotels",
                         clusters=(frozenset({"x"}), frozenset({"y"})), parent={1: 0})
        # predicted co-cluster {x,y} has 2 relations, gold chain has 1
        rep = evaluate_hierarchies([g], [pred])
        p = tmp_path / "report.json"
        kio.write_report(p, rep)
        doc = json.loads(p.read_text())
        assert doc["per_domain"]["hotels"]["precision"] == 0.5
        assert "0.500000" in p.read_text()


class TestScorePipelineFiles:
    def test_scores_from_match_matrix_round_trip(self, tmp_path):
        values = np.array([[0.9, 0.6], [0.2, 0.8], [0.7, 0.1]])
        m = MatchMatrix(summary_id="s", domain="hotels",
                        sentence_ids=("t0", "t1", "t2"), kp_ids=("a", "b"),
                        values=values)
        s = compute_score_matrix(m, "weedsprec")
        p = tmp_path / "scores.jsonl"
        kio.write_scores(p, s)
        got = kio.load_external_scores(p)
        for (src, dst), v in s.scores.items():
            assert got.scores[(src, dst)] == pytest.approx(v, abs=5e-7)
