"""The block readers against the record-by-record ones, and the dataset and
prediction writers against `json.dumps`.

`data_io.parse_dataset` and the embedded corpora of `data_io.parse_model`
check feature vectors a block of records at a time, and check them one by
one before raising a record's error or when the block's check fails. Files of one to three blocks, valid or with one or
two faults, must read to the same arrays or fail with the same message as
`oracle_utils.reference_parse_dataset` and `reference_model_examples`.
"""
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossmodal import data_io
from crossmodal.errors import DataError
from crossmodal.model import CooccurrencePair, CorpusExample, score_labels
from crossmodal.synth import SynthConfig, generate
from oracle_utils import reference_model_examples, reference_parse_dataset
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
SCORE = st.one_of(st.sampled_from(EDGES), st.floats())  # nan and inf too: json writes them
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
