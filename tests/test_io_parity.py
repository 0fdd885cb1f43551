"""The block readers against the record-by-record ones, the dataset and
prediction writers against `json.dumps`, and the orjson decoder against the
stdlib's alone (`oracle_utils.reference_loads_object`).

`data_io.parse_dataset` and the embedded corpora of `data_io.parse_model`
check feature vectors a block of records at a time, and check them one by
one before raising a record's error or when the block's check fails. Files of one to three blocks, valid or with one or
two faults, must read to the same arrays or fail with the same message as
`oracle_utils.reference_parse_dataset` and `reference_model_examples`.
"""
import decimal
import json
import math
import os
import tempfile
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossmodal import data_io
from crossmodal.cli import main
from crossmodal.errors import DataError
from crossmodal.model import CooccurrencePair, CorpusExample, score_labels
from crossmodal.synth import SynthConfig, generate
from oracle_utils import (
    reference_loads_object,
    reference_model_examples,
    reference_parse_dataset,
)
import test_io_cli

# Valid feature values beyond standard normals: signed zeros, subnormals, the
# extremes, and JSON integers, one past 2**53 and one past int64.
SPECIAL = [0.0, -0.0, 5e-324, -2.5e-320, 1.7976931348623157e308, -1.7976931348623157e308,
           0.1, 1 / 3, 3, -7, 2**53 + 1, 10**30]
BIG = "@@1e999@@"  # written as the token 1e999, which json reads as inf


def _vector(rng, width: int) -> list:
    return [SPECIAL[rng.integers(len(SPECIAL))] if rng.random() < 0.3
            else float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)) for _ in range(width)]


def _example_record(rng, kind: str, idx: int, width: int, labels=("sign", "class", None)) -> dict:
    rec = {"kind": kind, "id": f"{kind[0]}{idx}-é", "features": _vector(rng, width)}
    label = labels[rng.integers(len(labels))]
    if label == "sign":
        rec["label"] = int(rng.choice([1, -1]))
    elif label == "class":
        rec["class"] = f"c{rng.integers(3)}"
    return rec


def _dataset_records(rng, n: int, p: int, q: int) -> list[dict]:
    """`n` records, a pair first, then texts, images and pairs interleaved."""
    recs = []
    for k in range(n):
        kind = "pair" if k == 0 else ("text", "image", "pair")[rng.integers(3)]
        if kind == "pair":
            rec = {"kind": "pair", "id": f"p{k}", "text_features": _vector(rng, p),
                   "image_features": _vector(rng, q)}
            if rng.random() < 0.5:
                rec["class"] = f"c{rng.integers(3)}"
        else:
            rec = _example_record(rng, kind, k, p if kind == "text" else q)
        recs.append(rec)
    return recs


def _array_key(rng, rec: dict) -> str:
    if "features" in rec or rec.get("kind") != "pair":
        return "features"
    return ("text_features", "image_features")[rng.integers(2)]


def _set_element(value):
    def fault(rng, rec, earlier):
        values = rec.get(_array_key(rng, rec))
        if isinstance(values, list) and values:
            values[rng.integers(len(values))] = value
    return fault


def _set_array(make):
    def fault(rng, rec, earlier):
        key = _array_key(rng, rec)
        if isinstance(rec.get(key), list):
            rec[key] = make(rec[key])
    return fault


def _drop_array(rng, rec, earlier):
    rec.pop(_array_key(rng, rec), None)


def _bad_label(rng, rec, earlier):
    if rec.get("kind") == "pair":
        rec["class"] = 3
    else:
        rec.pop("class", None)
        rec["label"] = [2, 1.0, True, "1"][rng.integers(4)]


def _bad_class(rng, rec, earlier):
    rec.pop("label", None)
    rec["class"] = 7


def _duplicate_id(rng, rec, earlier):
    same = [r["id"] for r in earlier if r.get("kind") == rec.get("kind") and "id" in r]
    if same:
        rec["id"] = same[rng.integers(len(same))]


def _bad_id(rng, rec, earlier):
    if rng.random() < 0.5:
        rec.pop("id", None)
    else:
        rec["id"] = 7


def _unknown_kind(rng, rec, earlier):
    rec["kind"] = ["video", None, ["text"]][rng.integers(3)]


# Each fault edits one record in place; `earlier` holds the records before it.
RECORD_FAULTS = {
    "bool": _set_element(True),
    "string": _set_element("1.5"),
    "nested list": _set_element([1.0]),
    "null": _set_element(None),
    "1e999": _set_element(BIG),
    "400-digit integer": _set_element(10**400),
    "wrong width": _set_array(lambda v: v + [1.0]),
    "empty array": _set_array(lambda v: []),
    "not an array": _set_array(lambda v: 1.5),
    "missing array": _drop_array,
    "bad label": _bad_label,
    "bad class": _bad_class,
    "bad id": _bad_id,
}
DATASET_FAULTS = dict(RECORD_FAULTS, **{
    "duplicate id": _duplicate_id,
    "unknown kind": _unknown_kind,
    "malformed JSON": None,  # the line loses its last character
    "not an object": None,   # the line is a JSON array
})
FAULT = st.tuples(st.sampled_from(sorted(DATASET_FAULTS)), st.floats(0, 1, exclude_max=True))


def _dumps(rec) -> str:
    return json.dumps(rec).replace(f'"{BIG}"', "1e999")


def _dataset_lines(rng, recs: list[dict], faults) -> list[str]:
    """The lines of `recs`, with each fault applied at its place, and some blank lines."""
    bad_lines = {}
    for name, where in faults:
        at = int(where * len(recs))
        if DATASET_FAULTS[name] is None:
            bad_lines[at] = name
        else:
            DATASET_FAULTS[name](rng, recs[at], recs[:at])
    lines = []
    for k, rec in enumerate(recs):
        line = _dumps(rec)
        if bad_lines.get(k) == "malformed JSON":
            line = line[:-1]
        elif bad_lines.get(k) == "not an object":
            line = "[1, 2]"
        if rng.random() < 0.05:
            lines.append("  ")
        lines.append(line)
    return lines


def _examples_summary(examples) -> list:
    # tobytes tells -0.0 from 0.0; type tells 1 from 1.0 and True
    return [(e.id, type(e.label), e.label, e.features.dtype, e.features.shape,
             e.features.tobytes()) for e in examples]


def _outcome(read, *args):
    """What `read(*args)` gives: its DataError message, or a summary of what it read."""
    try:
        got = read(*args)
    except DataError as exc:
        return "error", str(exc)
    if isinstance(got, data_io.Corpora):
        pairs = [(c.class_id, c.text_features.tobytes(), c.image_features.tobytes(),
                  c.text_features.shape, c.image_features.shape) for c in got.pairs]
        return "read", _examples_summary(got.texts), _examples_summary(got.images), pairs
    model, mode, unseen = got
    return ("read", mode, unseen, model.S.tobytes(), _examples_summary(model.source_texts),
            _examples_summary(model.train_images))


BLOCK = st.sampled_from([1, 2, 3, 8, data_io._BLOCK])


class TestDatasetBlocksMatchRecordByRecord:
    @settings(max_examples=150, deadline=None)
    @given(block=BLOCK, blocks=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           faults=st.lists(FAULT, max_size=2))
    @example(block=data_io._BLOCK, blocks=3, seed=0, faults=[("bool", 0.9)])
    @example(block=data_io._BLOCK, blocks=2, seed=1, faults=[("duplicate id", 0.7)])
    @example(block=1, blocks=1, seed=0, faults=[("empty array", 0.0)])  # sets no width
    @example(block=data_io._BLOCK, blocks=2, seed=2, faults=[("bad label", 0.2),
                                                            ("wrong width", 0.1)])
    def test_same_arrays_or_same_error(self, block, blocks, seed, faults):
        rng = np.random.default_rng(seed)
        n = int(rng.integers((blocks - 1) * block + 1, blocks * block + 1))
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lines = _dataset_lines(rng, _dataset_records(rng, n, p, q), faults)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            want = _outcome(reference_parse_dataset, path)
            with mock.patch.object(data_io, "_BLOCK", block):
                got = _outcome(data_io.parse_dataset, path)
        assert got == want
        if not faults:
            assert want[0] == "read"


def _model_text(rng, n_texts: int, n_images: int, binary: bool, faults) -> str:
    p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    labels = ("sign",) if binary else ("class",)
    texts = [_example_record(rng, "text", k, p, labels) for k in range(n_texts)]
    images = [_example_record(rng, "image", k, q, ("sign",)) for k in range(n_images)]
    if not binary:
        texts[0]["class"] = "c0"  # the unseen class labels a text
    for name, which, where in faults:
        recs = texts if which == "source_texts" or not images else images
        at = int(where * len(recs))
        if name == "not an object":
            recs[at] = ["not", "an", "object"]
        elif isinstance(recs[at], dict):
            MODEL_FAULTS[name](rng, recs[at], recs[:at])
    bandwidth = 1.0
    doc = {
        "format_version": data_io.MODEL_FORMAT_VERSION,
        "mode": "binary" if binary else "zeroshot",
        "p": p, "q": q,
        "S": rng.standard_normal(p * q).tolist(),
        "alpha": [0.5] * n_images,
        "kernel": {"kind": "gaussian", "bandwidth": bandwidth},
        "source_texts": texts,
        "train_images": images,
        "hyper": {"gamma": 1.0, "lambda": 1.0, "C": 1.0,
                  "kernel": {"kind": "gaussian", "bandwidth": bandwidth},
                  "max_iter": 10, "tol": 1e-6, "normalize": False},
        "final_objective": None,
        "unseen_classes": [] if binary else ["c0"],
    }
    return _dumps(doc)


def _class_label(rng, rec, earlier):
    rec.pop("label", None)
    rec["class"] = "c1"


# A class is a fault only in a binary model.
MODEL_FAULTS = dict(RECORD_FAULTS, **{"class label": _class_label, "not an object": None})
MODEL_FAULT = st.tuples(st.sampled_from(sorted(MODEL_FAULTS)),
                        st.sampled_from(["source_texts", "train_images"]),
                        st.floats(0, 1, exclude_max=True))


class TestModelBlocksMatchRecordByRecord:
    @settings(max_examples=100, deadline=None)
    @given(block=BLOCK, blocks=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           binary=st.booleans(), faults=st.lists(MODEL_FAULT, max_size=2))
    @example(block=data_io._BLOCK, blocks=3, seed=0, binary=True,
             faults=[("1e999", "source_texts", 0.95)])
    @example(block=data_io._BLOCK, blocks=2, seed=0, binary=True,
             faults=[("class label", "train_images", 0.9)])
    def test_same_arrays_or_same_error(self, block, blocks, seed, binary, faults):
        rng = np.random.default_rng(seed)
        n_texts = int(rng.integers((blocks - 1) * block + 1, blocks * block + 1))
        n_images = int(rng.integers(0, n_texts + 1)) if binary else 0
        text = _model_text(rng, n_texts, n_images, binary, faults)
        with mock.patch.object(data_io, "_model_examples", reference_model_examples):
            want = _outcome(data_io.parse_model, text)
        with mock.patch.object(data_io, "_BLOCK", block):
            got = _outcome(data_io.parse_model, text)
        assert got == want
        if not faults:
            assert want[0] == "read"


def reference_prediction_text(ids, scores, classes=None) -> str:
    """The prediction file as `json.dumps` writes each record."""
    if classes is None:
        records = ({"id": i, "score": s, "label": y} for i, s, y in
                   zip(ids, np.asarray(scores, dtype=float).tolist(), score_labels(scores).tolist()))
    else:
        records = ({"id": i, "scores": dict(zip(classes, row))}
                   for i, row in zip(ids, np.asarray(scores, dtype=float).tolist()))
    return "".join(json.dumps(r) + "\n" for r in records)


EDGES = test_io_cli.TestFloatsWrittenAsBefore.EDGES.tolist()
SCORE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
NAME = st.text(max_size=6)  # non-ASCII, quotes, backslashes and % included


class TestPredictionLinesAreJsonDumps:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    @example(data=None)  # every edge value, non-ASCII names
    def test_same_text(self, data):
        if data is None:
            ids = [f"{name}{k}" for k, name in enumerate(["é-", "%s", 'q"\\', "☃"] * 4)][:len(EDGES)]
            classes = ["ü%d", "c1"]
            binary = np.array(EDGES)
            table = np.array([EDGES, EDGES[::-1]]).T
        else:
            ids = data.draw(st.lists(NAME, max_size=6))
            classes = data.draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
            binary = np.array(data.draw(st.lists(SCORE, min_size=len(ids), max_size=len(ids))))
            table = np.array(data.draw(st.lists(
                SCORE, min_size=len(ids) * len(classes),
                max_size=len(ids) * len(classes)))).reshape(len(ids), len(classes))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pred.jsonl")
            for scores, names in ((binary, None), (table, classes)):
                data_io.write_predictions(path, ids, scores, names)
                with open(path, encoding="ascii") as fh:
                    assert fh.read() == reference_prediction_text(ids, scores, names)


def reference_dataset_text(corpora) -> str:
    """The dataset file as `json.dumps` writes each record, its floats taken entry by entry."""
    def example_record(kind, ex):
        rec = {"kind": kind, "id": ex.id, "features": [float(v) for v in ex.features]}
        if ex.label is not None:
            rec["class" if isinstance(ex.label, str) else "label"] = ex.label
        return rec

    records = [example_record("text", t) for t in corpora.texts]
    records += [example_record("image", i) for i in corpora.images]
    for k, pair in enumerate(corpora.pairs):
        records.append({"kind": "pair", "id": f"p{k}",
                        "text_features": [float(v) for v in pair.text_features],
                        "image_features": [float(v) for v in pair.image_features]})
        if pair.class_id is not None:
            records[-1]["class"] = pair.class_id
    return "".join(json.dumps(r) + "\n" for r in records)


class TestDatasetLinesAreJsonDumps:
    """`write_dataset` writes a record at a time the lines `serialize_dataset`
    joins, and each is `json.dumps` of its record."""

    @staticmethod
    def assert_written_as_dumps(corpora, tmp_path):
        path = tmp_path / "data.jsonl"
        data_io.write_dataset(corpora, str(path))
        want = reference_dataset_text(corpora)
        assert data_io.serialize_dataset(corpora) == want
        assert path.read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("classes", [2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_synth(self, tmp_path, seed, classes):
        # Binary synth pairs have no class, multi-class ones have one.
        ds = generate(SynthConfig(p=8, q=6, r_true=2, n_texts=60, m_images=30, l_pairs=120,
                                  n_test=40, classes=classes, seed=seed))
        self.assert_written_as_dumps(ds, tmp_path)
        self.assert_written_as_dumps(data_io.Corpora(images=ds.test_images), tmp_path)

    def test_edges_and_odd_ids(self, tmp_path):
        ids = ['q"\\', "é-", "☃", "%s", ""]
        edges = np.array(EDGES)
        corpora = data_io.Corpora(
            texts=[CorpusExample(i, np.roll(edges, k), (1, -1, "c0", None, "ü")[k])
                   for k, i in enumerate(ids)],
            images=[CorpusExample(i, edges[k:], ("é", None, -1, 1, "c1")[k])
                    for k, i in enumerate(ids)],
            pairs=[CooccurrencePair(np.roll(edges, k), edges[::-1], (None, 'c"', "☃")[k % 3])
                   for k in range(6)])
        self.assert_written_as_dumps(corpora, tmp_path)
        self.assert_written_as_dumps(data_io.Corpora(), tmp_path)


# The JSON decoder ---------------------------------------------------------------

def _same_document(got, want) -> bool:
    """Whether the decoded `got` is `want`: the same types, key order and float
    bits, but for an int outside [-2**63, 2**64), which may read as the double
    nearest it (`TestIntegersOutsideInt64`). Iterative, for any depth."""
    pending = [(got, want)]
    while pending:
        got, want = pending.pop()
        if type(want) is int and not -2**63 <= want < 2**64 and type(got) is float:
            want = float(want)
        if type(got) is not type(want):
            return False
        if type(want) is dict:
            if list(got) != list(want):
                return False
            pending += [(got[k], want[k]) for k in want]
        elif type(want) is list:
            if len(got) != len(want):
                return False
            pending += zip(got, want)
        elif (got.hex() != want.hex()) if type(want) is float else got != want:
            return False  # hex tells -0.0 from 0.0
    return True


def _decoding(loads, raw):
    try:
        return "read", loads(raw, "doc")
    except DataError as exc:
        return "error", str(exc)


def assert_decoded_as_stdlib(raw):
    want = _decoding(reference_loads_object, raw)
    got = _decoding(data_io.loads_object, raw)
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "read" and _same_document(got[1], want[1])


def _halfway(x: float, nudge: int) -> str:
    """The decimal halfway between the double `x` and the next one up (2**1024
    past the largest), or, with `nudge` ±1, that decimal moved by one unit in
    its 40th digit."""
    up = math.nextafter(x, math.inf)
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        mid = (Decimal(x) + (Decimal(2) ** 1024 if math.isinf(up) else Decimal(up))) / 2
        return str(mid + nudge * Decimal(1).scaleb(mid.adjusted() - 40))


INT_EDGES = [2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64 - 1, 2**64, 2**64 + 1, -2**64,
             10**30, 10**308, 2**1024 - 2**970, 2**1024 - 2**970 - 1, 10**400]
NUMBER = st.one_of(
    st.sampled_from(EDGES).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(INT_EDGES + [-v for v in INT_EDGES]).map(str),
    st.integers().map(str),
    # Mantissas of up to 55 digits, exponents up to 999 either way.
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.builds(_halfway, st.floats(min_value=-1e308, max_value=1e308), st.sampled_from([-1, 0, 1])),
    st.sampled_from(["1e999", "-1e999", "2.4703282292062327e-324", "1e-400"]),
)
# Escapes, non-ASCII text and lone surrogates, escaped or as raw characters.
STRING = st.one_of(
    st.text(max_size=6).flatmap(
        lambda s: st.sampled_from([json.dumps(s), json.dumps(s, ensure_ascii=False)])),
    st.sampled_from(['"\\ud800"', '"a\\udc80b"', '"\\ud83d\\ude00"', '"\\ud83d"', '"\ud800"',
                     '"\\u00e9\\n\\t\\"\\\\\\/"', '"\\u0000"', '"é☃"', '"\x01"', '"\\x"']),
)
SCALAR = st.one_of(NUMBER, STRING, st.sampled_from(
    ["true", "false", "null", "NaN", "Infinity", "-Infinity"]))
KEY = st.one_of(st.sampled_from(['"a"', '"b"', '"id"', '"é"']), STRING)  # repeated keys too
VALUE = st.recursive(SCALAR, lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(lambda vs: "[" + ", ".join(vs) + "]"),
    st.lists(st.tuples(KEY, inner), max_size=4).map(
        lambda kvs: "{" + ", ".join(f"{k}: {v}" for k, v in kvs) + "}")), max_leaves=12)
DOCUMENT = st.one_of(
    st.lists(st.tuples(KEY, VALUE), max_size=5).map(
        lambda kvs: "{" + ",".join(f"{k}:{v}" for k, v in kvs) + "}"),
    VALUE)


def _edit(text: str, edit) -> bytes:
    """`text` as UTF-8, lone surrogates as the bytes they would be, then `edit`ed."""
    raw = text.encode("utf-8", "surrogatepass")
    if edit is None:
        return raw
    kind, at, byte = edit
    at %= len(raw) + 1
    return {"insert": raw[:at] + byte + raw[at:], "delete": raw[:at] + raw[at + 1:],
            "truncate": raw[:at], "bom": b"\xef\xbb\xbf" + raw,
            "space": b" \t" + raw + b"\r\n"}[kind]


EDIT = st.one_of(st.none(), st.tuples(
    st.sampled_from(["insert", "delete", "truncate", "bom", "space"]),
    st.integers(0, 2**16), st.binary(min_size=1, max_size=1)))


class TestDecoderMatchesStdlib:
    """`data_io.loads_object` decodes with orjson where it can, and must read
    what the stdlib decoder alone reads (`reference_loads_object`), or refuse
    with its message."""

    @settings(max_examples=400, deadline=None)
    @given(text=DOCUMENT, edit=EDIT, as_str=st.booleans())
    def test_same_document_or_same_error(self, text, edit, as_str):
        assert_decoded_as_stdlib(text if as_str and edit is None else _edit(text, edit))

    @settings(max_examples=300, deadline=None)
    @given(numbers=st.lists(NUMBER, min_size=1, max_size=20))
    def test_same_doubles(self, numbers):
        assert_decoded_as_stdlib(('{"x": [' + ", ".join(numbers) + "]}").encode())

    @pytest.mark.parametrize("raw", [
        '{"edges": [' + ", ".join(map(repr, EDGES)) + "]}",
        '{"ints": [' + ", ".join(str(v) for v in INT_EDGES + [-v for v in INT_EDGES]) + "]}",
        '{"halfway": [' + ", ".join(_halfway(x, n) for x in EDGES + [2.0**53, 2.0**64, 1e23]
                                    for n in (-1, 0, 1)) + "]}",
        '{"a": 0.1234567890123456789012345, "b": 1.00000000000000011102230246251565404e0}',
        '{"id": "\\ud800", "x": [NaN]}', '{"x": 1e999}', '{"x": [-Infinity]}',
        '{"a": 1, "a": 2, "b": {"a": 3, "a": [4]}}',
        b'{"id": "\xe9"}', b'\xef\xbb\xbf{"a": 1}', '\ufeff{"a": 1}', "[1, 2]", "",
        '{"a": "\ud800"}',
    ])
    def test_cases(self, raw):
        assert_decoded_as_stdlib(raw)
        if isinstance(raw, str):
            assert_decoded_as_stdlib(raw.encode("utf-8", "surrogatepass"))

    @pytest.mark.parametrize("depth", [1, 63, 64, 65, 66, 900, 1000, 100000])
    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")])
    def test_nesting(self, depth, opening, closing):
        # orjson reads any depth; beyond data_io._MAX_DEPTH the stdlib decides.
        assert_decoded_as_stdlib(('{"x": ' + opening * (depth - 1) + "0" + closing * (depth - 1)
                                  + "}").encode())
        inner = "[1, " * (depth - 1) + "1" + "]" * (depth - 1)
        assert_decoded_as_stdlib(f'{{"x": {inner}, "s": "{"]" * 200}"}}')

    @pytest.mark.parametrize("escapes", ["\\\\", '\\"', '\\\\\\"', "\\\\\\\\", '\\"]]', "\\n"])
    @pytest.mark.parametrize("depth", [65, 100000])
    def test_nesting_after_escapes(self, escapes, depth):
        # Which quotes end a string decides which brackets nest.
        for s in (escapes, "]" * 100 + escapes, escapes + "[" * 100):
            assert_decoded_as_stdlib(f'{{"s": "{s}", "x": {"[" * depth}{"]" * depth}}}'.encode())

    def test_brackets_in_strings_keep_orjson(self):
        raw = ('{"s": "' + "[{" * 100 + '\\"[", "x": [[1]]}').encode()
        with mock.patch.object(data_io, "_DECODER", None):  # any use of it raises
            assert data_io.loads_object(raw, "doc") == {"s": "[{" * 100 + '"[', "x": [[1]]}


class TestIntegersOutsideInt64:
    """The one difference from the stdlib decoder: orjson reads an integer
    literal outside [-2**63, 2**64) as the double nearest it, not an int. A
    feature, a score or an objective reads the same; a field that must be an
    integer refuses it."""

    LITERAL = "18446744073709551617"  # 2**64 + 1

    def test_read_as_the_nearest_double(self):
        doc = data_io.loads_object(
            b'{"a": 18446744073709551617, "b": -9223372036854775809, "c": 18446744073709551615}',
            "doc")
        assert [(type(v), v) for v in doc.values()] == [
            (float, 2.0**64), (float, -2.0**63), (int, 2**64 - 1)]

    def test_feature_reads_as_before(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"kind": "text", "id": "t0", "label": 1, "features": [%s, 0.5]}\n'
                        '{"kind": "image", "id": "i0", "features": [-%s]}\n'
                        % (self.LITERAL, self.LITERAL))
        got = _outcome(data_io.parse_dataset, str(path))
        assert got == _outcome(reference_parse_dataset, str(path))
        assert got[1][0][-1] == np.array([2.0**64, 0.5]).tobytes()

    def test_score_reads_as_before(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "i0", "score": %s, "label": 1}\n' % self.LITERAL)
        with mock.patch.object(data_io, "loads_object", reference_loads_object):
            want = data_io.read_predictions(str(path)).scores
        assert data_io.read_predictions(str(path)).scores.tobytes() == want.tobytes()

    def test_label_and_model_p_still_refused(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"kind": "text", "id": "t0", "label": %s, "features": [0.5]}\n'
                        % self.LITERAL)
        for read in (data_io.parse_dataset, reference_parse_dataset):
            with pytest.raises(DataError, match=":1: label must be 1 or -1, got 1"):
                read(str(path))
        doc = json.loads(_model_text(np.random.default_rng(0), 2, 2, True, []))
        text = json.dumps(doc).replace(f'"p": {doc["p"]}', f'"p": {self.LITERAL}')
        with pytest.raises(DataError, match="p must be a non-negative integer, got 1.8446744"):
            data_io.parse_model(text)
        with mock.patch.object(data_io, "loads_object", reference_loads_object):
            with pytest.raises(DataError, match="S has"):
                data_io.parse_model(text)

    def test_integer_fields_refuse_it(self, tmp_path):
        # The stdlib's int passed these checks: a model's max_iter and a synth
        # config's seed of 2**64 or more are now refused.
        doc = json.loads(_model_text(np.random.default_rng(0), 2, 2, True, []))
        text = json.dumps(doc).replace('"max_iter": 10', f'"max_iter": {self.LITERAL}')
        with mock.patch.object(data_io, "loads_object", reference_loads_object):
            assert data_io.parse_model(text)[0].hyper.max_iter == 2**64 + 1
        with pytest.raises(DataError, match="max_iter must be an integer"):
            data_io.parse_model(text)
        config, out = tmp_path / "config.json", tmp_path / "data.jsonl"
        config.write_text('{"p": 4, "q": 3, "r_true": 1, "n_texts": 10, "m_images": 6, '
                          '"l_pairs": 10, "seed": %s}' % self.LITERAL)
        with mock.patch.object(data_io, "loads_object", reference_loads_object):
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        out.unlink()
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()


def _read_all(p: dict) -> tuple:
    """The files `p` of a CLI run read back: both corpora, the model and the predictions."""
    model, mode, unseen = data_io.read_model(p["model.json"])
    preds = data_io.read_predictions(p["pred.jsonl"])
    return (_outcome(data_io.parse_dataset, p["train.jsonl"]),
            _outcome(data_io.parse_dataset, p["test.jsonl"]),
            (mode, unseen, model.S.tobytes(), model.alpha.tobytes(),
             _examples_summary(model.source_texts), _examples_summary(model.train_images),
             model.kernel, model.hyper, repr(model.final_objective)),
            (preds.ids, preds.classes, preds.scores.dtype, preds.scores.tobytes(),
             None if preds.labels is None else preds.labels.tolist()))


class TestStdlibParityEndToEnd:
    """The CLI on synth files reads the same arrays, bit for bit, and writes
    the same bytes with the orjson decoder as with the stdlib's alone."""

    def run(self, workdir, classes, seed):
        workdir.mkdir(exist_ok=True)
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"p": 8, "q": 6, "r_true": 2, "classes": classes, "n_texts": 60,
                                   "m_images": 30, "l_pairs": 120, "n_test": 40, "seed": seed}))
        p = {n: str(workdir / n) for n in ("train.jsonl", "test.jsonl", "model.json", "pred.jsonl")}
        assert main(["synth", "--config", str(cfg), "--out", p["train.jsonl"],
                     "--test-out", p["test.jsonl"]]) == 0
        if classes == 2:
            fit = ["train", "--data", p["train.jsonl"], "--out", p["model.json"]]
        else:
            fit = ["zeroshot", "--data", p["train.jsonl"], "--unseen", "c3,c4",
                   "--out", p["model.json"]]
        assert main(fit + ["--max-iter", "10"]) == 0
        assert main(["predict", "--model", p["model.json"], "--images", p["test.jsonl"],
                     "--out", p["pred.jsonl"]]) == 0
        return p

    @pytest.mark.parametrize("classes", [2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_arrays_and_bytes(self, tmp_path, seed, classes):
        new = self.run(tmp_path / "new", classes, seed)
        with mock.patch.object(data_io, "loads_object", reference_loads_object):
            old = self.run(tmp_path / "old", classes, seed)
            want = _read_all(old)
        assert _read_all(new) == want
        for name in new:
            with open(new[name], "rb") as a, open(old[name], "rb") as b:
                assert a.read() == b.read(), name

    @pytest.mark.parametrize("classes", [2, 5])
    def test_written_files_need_no_stdlib_decoder(self, tmp_path, classes):
        p = self.run(tmp_path, classes, 0)
        with mock.patch.object(data_io, "_DECODER", None):  # any use of it raises
            _read_all(p)

    def test_lone_surrogate_id_predicted_and_written_back(self, tmp_path):
        # orjson refuses the escape \ud800, so the stdlib decoder reads that line.
        p = self.run(tmp_path, 2, 0)
        with open(p["test.jsonl"]) as fh:
            records = [json.loads(line) for line in fh]
        records[1]["id"] = "\ud800"
        with open(p["test.jsonl"], "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        assert main(["predict", "--model", p["model.json"], "--images", p["test.jsonl"],
                     "--out", p["pred.jsonl"]]) == 0
        with open(p["pred.jsonl"], "rb") as fh:
            assert fh.read().splitlines()[1].startswith(b'{"id": "\\ud800", "score": ')
        assert data_io.read_predictions(p["pred.jsonl"]).ids[1] == "\ud800"
