import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossmodal
from crossmodal import data_io
from crossmodal.cli import _hyper_from_args, build_parser, main
from crossmodal.errors import DataError
from crossmodal.model import (
    CooccurrencePair,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    scores,
    unseen_scores,
)
from crossmodal.solver import TrainData, train
from crossmodal.synth import SynthConfig, generate
from crossmodal.zeroshot import train_zeroshot


class TestDatasetIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpora = data_io.parse_dataset(str(path))
        assert corpora.texts == [] and corpora.images == [] and corpora.pairs == []

    def test_round_trip(self, tmp_path):
        corpora = data_io.Corpora(
            texts=[CorpusExample("t0", np.array([0.25, -1.5]), 1)],
            images=[CorpusExample("i0", np.array([0.1, 0.2, 0.3]), -1)],
            pairs=[CooccurrencePair(np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0]), "c1")],
        )
        path = tmp_path / "data.jsonl"
        data_io.write_dataset(corpora, str(path))
        back = data_io.parse_dataset(str(path))
        assert back.texts[0].id == "t0" and back.texts[0].label == 1
        np.testing.assert_array_equal(back.texts[0].features, corpora.texts[0].features)
        np.testing.assert_array_equal(back.images[0].features, corpora.images[0].features)
        assert back.pairs[0].class_id == "c1"
        assert data_io.serialize_dataset(back) == data_io.serialize_dataset(corpora)

    def test_dimension_drift_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "text", "id": "a", "features": [1, 2, 3, 4]})
            + "\n"
            + json.dumps({"kind": "text", "id": "b", "features": [1, 2, 3]})
            + "\n"
        )
        with pytest.raises(DataError, match=":2"):
            data_io.parse_dataset(str(path))

    @pytest.mark.parametrize("text_width, image_width", [(4, 2), (3, 3)])
    def test_pair_width_must_match_corpora(self, tmp_path, text_width, image_width):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"kind": "text", "id": "t0", "label": 1, "features": [1.0, 2.0, 3.0]})
            + "\n"
            + json.dumps({"kind": "text", "id": "t1", "label": -1, "features": [3.0, 2.0, 1.0]})
            + "\n"
            + json.dumps({"kind": "image", "id": "i0", "label": 1, "features": [1.0, 2.0]})
            + "\n"
            + json.dumps({"kind": "pair", "id": "p0", "text_features": [1.0] * text_width,
                          "image_features": [1.0] * image_width})
            + "\n"
        )
        with pytest.raises(DataError, match=r"data\.jsonl:4: .* feature dimension"):
            data_io.parse_dataset(str(path))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec = json.dumps({"kind": "image", "id": "x", "features": [1.0]})
        path.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(DataError, match="duplicate"):
            data_io.parse_dataset(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "malformed.jsonl"
        path.write_text('{"kind": "text"\n')
        with pytest.raises(DataError, match=":1"):
            data_io.parse_dataset(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_feature_names_line(self, tmp_path, token):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"kind": "image", "id": "a", "label": 1, "features": [1.0, 2.0]}\n'
            f'{{"kind": "image", "id": "b", "label": -1, "features": [1.0, {token}]}}\n'
        )
        with pytest.raises(DataError, match=r"nan\.jsonl:2: .*non-finite"):
            data_io.parse_dataset(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_under_any_key_rejected(self, tmp_path, token):
        path = tmp_path / "nan.jsonl"
        path.write_text(f'{{"kind": "image", "id": "a", "features": [1.0], "note": {token}}}\n')
        with pytest.raises(DataError, match=rf"nan\.jsonl:1: malformed record: non-finite "
                                            rf"number {token} is not allowed$"):
            data_io.parse_dataset(str(path))

    def test_non_numeric_feature_names_line(self, tmp_path):
        path = tmp_path / "text.jsonl"
        path.write_text('{"kind": "image", "id": "a", "label": 1, "features": ["x", 2.0]}\n')
        with pytest.raises(DataError, match=r"text\.jsonl:1: .*must hold numbers"):
            data_io.parse_dataset(str(path))

    @pytest.mark.parametrize("kind, key", [("image", "features"), ("pair", "text_features"),
                                           ("pair", "image_features")])
    @pytest.mark.parametrize("values, message", [
        (["1.5", 2.0], "must hold numbers only, not str"),
        ([True, 2.0], "must hold numbers only, not bool"),
        ([[1.0, 2.0]], "must hold numbers only, not list"),
        ([[1.0], [2.0, 3.0]], "must hold numbers only, not list"),
    ])
    def test_features_must_be_flat_json_numbers(self, tmp_path, kind, key, values, message):
        # numpy alone would coerce "1.5" and true, and read [[1.0, 2.0]] as
        # width 1, so the record would only fail later in training.
        rec = {"kind": kind, "id": "a", "text_features": [1.0], "image_features": [1.0],
               "features": [1.0], "label": 1}
        rec[key] = values
        path = tmp_path / "typed.jsonl"
        path.write_text('{"kind": "image", "id": "i0", "label": 1, "features": [0.5]}\n'
                        + json.dumps(rec) + "\n")
        with pytest.raises(DataError, match=rf"typed\.jsonl:2: '{key}' {message}$"):
            data_io.parse_dataset(str(path))

    @pytest.mark.parametrize("label", [0, 7, 1.0, True])
    def test_label_must_be_plus_or_minus_one(self, tmp_path, label):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps({"kind": "image", "id": "i0", "label": 1, "features": [1.0]}) + "\n"
            + json.dumps({"kind": "image", "id": "i1", "label": label, "features": [2.0]}) + "\n"
        )
        with pytest.raises(DataError, match=r"data\.jsonl:2: label must be 1 or -1"):
            data_io.parse_dataset(str(path))

    def test_record_must_be_object(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"kind": "text", "id": "t0", "features": [1.0]}\n[1, 2]\n')
        with pytest.raises(DataError, match=r"data\.jsonl:2: record must be a JSON object"):
            data_io.parse_dataset(str(path))

    def test_pair_class_must_be_string(self, tmp_path):
        path = tmp_path / "pair.jsonl"
        path.write_text(json.dumps({"kind": "pair", "id": "p0", "class": 7,
                                    "text_features": [1.0], "image_features": [2.0]}) + "\n")
        with pytest.raises(DataError, match=r":1: class must be a string"):
            data_io.parse_dataset(str(path))


class TestModelIO:
    def trained_model(self, normalize=False):
        rng = np.random.default_rng(0)
        kernel = KernelSpec(bandwidth=1.3)
        return TrainedModel(
            S=rng.standard_normal((3, 2)),
            alpha=np.array([0.3, 0.7]),
            source_texts=[CorpusExample("t0", rng.standard_normal(3), 1)],
            train_images=[
                CorpusExample("i0", rng.standard_normal(2), 1),
                CorpusExample("i1", rng.standard_normal(2), -1),
            ],
            kernel=kernel,
            hyper=Hyperparameters(kernel=kernel, normalize=normalize),
            final_objective=4.25,
        )

    def zeroshot_model(self):
        rng = np.random.default_rng(2)
        return TrainedModel(
            S=rng.standard_normal((3, 2)),
            alpha=np.zeros(0),
            source_texts=[CorpusExample(f"t{i}", rng.standard_normal(3), c)
                          for i, c in enumerate(["a", "b", "a", 1])],
            train_images=[],
            kernel=KernelSpec(),
            hyper=Hyperparameters(),
        )

    @pytest.mark.parametrize("mode", ["binary", "zeroshot"])
    def test_round_trip_bit_exact(self, mode):
        # The file holds S, not its factors; the model read back factors S
        # again and must score exactly as the one that wrote it.
        binary = mode == "binary"
        model = self.trained_model() if binary else self.zeroshot_model()
        unseen = [] if binary else ["a", "b"]

        def score(m, Z):
            return scores(m, Z) if binary else unseen_scores(m, Z, unseen)

        text = data_io.serialize_model(model, unseen)
        back, back_mode, back_unseen = data_io.parse_model(text)
        assert back_mode == mode and back_unseen == unseen
        Z = np.random.default_rng(1).standard_normal((10, 2))
        assert np.all(score(back, Z) == score(model, Z))
        assert data_io.serialize_model(back, unseen) == text

    def test_hyper_and_kernel_keys_are_pinned(self):
        # The writer derives both objects from the dataclasses, so a field
        # added to or moved within Hyperparameters or KernelSpec fails here
        # before it changes the file format.
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        assert list(doc["hyper"]) == [
            "gamma", "lambda", "C", "kernel", "max_iter", "tol", "normalize"]
        assert list(doc["hyper"]["kernel"]) == ["kind", "bandwidth"]
        assert list(doc["kernel"]) == ["kind", "bandwidth"]

    def test_file_without_step_keys_loads(self):
        doc = json.loads(data_io.serialize_model(self.trained_model(normalize=True)))
        assert "normalize" not in doc
        assert not {"L0", "eta", "eps_alpha0"} & doc["hyper"].keys()
        model, _, _ = data_io.parse_model(json.dumps(doc))
        assert model.normalize is True

    @pytest.mark.parametrize("normalize", [False, True])
    def test_earlier_layout_loads(self, normalize):
        # Earlier builds also wrote the backtracking step controls into "hyper"
        # and a top-level copy of hyper.normalize.
        model = self.trained_model(normalize)
        text = data_io.serialize_model(model)
        doc = json.loads(text)
        doc["normalize"] = normalize
        doc["hyper"].update({"L0": 1.0, "eta": 2.0, "eps_alpha0": 0.1})
        back, _, _ = data_io.parse_model(json.dumps(doc))
        Z = np.random.default_rng(1).standard_normal((10, 2))
        assert np.all(scores(back, Z) == scores(model, Z))
        assert data_io.serialize_model(back) == text

    def test_truncated_file(self):
        text = data_io.serialize_model(self.trained_model())
        with pytest.raises(DataError, match="malformed"):
            data_io.parse_model(text[: len(text) // 2])

    def test_unknown_version(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["format_version"] = 99
        with pytest.raises(DataError, match="format_version"):
            data_io.parse_model(json.dumps(doc))

    @pytest.mark.parametrize("field", ["S", "alpha", "bandwidth", "features"])
    def test_non_finite_number_rejected(self, field):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        if field == "bandwidth":
            doc["kernel"]["bandwidth"] = float("nan")
        elif field == "features":
            doc["train_images"][1]["features"][0] = float("inf")
        else:
            doc[field][0] = float("nan")
        text = json.dumps(doc)  # writes the NaN and Infinity tokens
        with pytest.raises(DataError, match="non-finite"):
            data_io.parse_model(text)

    @pytest.mark.parametrize("field", ["S", "alpha", "features"])
    @pytest.mark.parametrize("bad, name", [("1.5", "str"), (True, "bool"), ([1.0], "list")])
    def test_arrays_must_hold_json_numbers_only(self, field, bad, name):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        if field == "features":
            doc["train_images"][1]["features"][0] = bad
            prefix = "train_images 'i1': 'features'"
        else:
            doc[field][0] = bad
            prefix = field
        with pytest.raises(DataError, match=f"{prefix} must hold numbers only, not {name}$"):
            data_io.parse_model(json.dumps(doc))

    def test_example_dimension_checked(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["source_texts"][0]["features"].append(1.0)
        with pytest.raises(DataError, match="expected"):
            data_io.parse_model(json.dumps(doc))

    @pytest.mark.parametrize("part", ["document", "example"])
    def test_non_object_rejected(self, part):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        if part == "document":
            doc = [doc]
        else:
            doc["train_images"][0] = [1.0]
        with pytest.raises(DataError, match="model file"):
            data_io.parse_model(json.dumps(doc))

    def test_binary_model_class_label_rejected(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        del doc["source_texts"][0]["label"]
        doc["source_texts"][0]["class"] = "c0"
        with pytest.raises(DataError, match=r"source_texts 't0': label 'c0' in a binary model"):
            data_io.parse_model(json.dumps(doc))

    def test_binary_model_without_bandwidth_rejected(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["kernel"]["bandwidth"] = None
        with pytest.raises(DataError, match="invalid model file: binary model with training "
                                            "images has a null gaussian bandwidth"):
            data_io.parse_model(json.dumps(doc))

    def test_unresolved_kernel_allowed_without_kernel_scoring(self):
        # A binary model without training images, and a zero-shot model, never
        # evaluate the kernel.
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["kernel"]["bandwidth"] = None
        doc.update(train_images=[], alpha=[])
        assert data_io.parse_model(json.dumps(doc))[0].kernel == KernelSpec("gaussian", None)
        del doc["source_texts"][0]["label"]
        doc["source_texts"][0]["class"] = "c0"
        doc.update(mode="zeroshot", unseen_classes=["c0"])
        assert data_io.parse_model(json.dumps(doc))[1:] == ("zeroshot", ["c0"])

    @pytest.mark.parametrize("field, value, expected", [
        ("mode", "zeroshot2", "unknown mode 'zeroshot2'"),
        ("unseen_classes", "c0", "unseen_classes must be a list of distinct strings"),
        ("unseen_classes", [1, 2], "unseen_classes must be a list of distinct strings"),
        ("unseen_classes", ["c0", "c0"], "unseen_classes must be a list of distinct strings"),
        ("unseen_classes", ["c0", "c1"], r"unseen classes label no source text: \['c1'\]"),
        ("final_objective", "abc", "final_objective must be a finite number"),
        ("final_objective", True, "final_objective must be a finite number"),
    ])
    def test_zeroshot_model_fields_checked(self, field, value, expected):
        doc = json.loads(data_io.serialize_model(self.trained_model(), ["c0"]))
        del doc["source_texts"][0]["label"]
        doc["source_texts"][0]["class"] = "c0"
        assert data_io.parse_model(json.dumps(doc))[1:] == ("zeroshot", ["c0"])
        doc[field] = value
        with pytest.raises(DataError, match=f"^invalid model file: {expected}$"):
            data_io.parse_model(json.dumps(doc))

    def test_binary_model_with_unseen_classes_rejected(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["unseen_classes"] = ["c0"]
        with pytest.raises(DataError, match="invalid model file: binary model lists unseen"):
            data_io.parse_model(json.dumps(doc))

    def test_final_objective_beyond_float_range_rejected(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["final_objective"] = 1.0
        text = json.dumps(doc).replace('"final_objective": 1.0', '"final_objective": 1e999')
        with pytest.raises(DataError, match="final_objective must be a finite number"):
            data_io.parse_model(text)

    def test_zeroshot_model_without_unseen_classes_rejected(self):
        doc = json.loads(data_io.serialize_model(self.trained_model(), ["c0"]))
        doc["unseen_classes"] = []
        with pytest.raises(DataError, match="zero-shot model lists no unseen classes"):
            data_io.parse_model(json.dumps(doc))

    def test_example_id_must_be_string(self):
        doc = json.loads(data_io.serialize_model(self.trained_model()))
        doc["train_images"][1]["id"] = 7
        with pytest.raises(DataError, match="train_images record without a string id"):
            data_io.parse_model(json.dumps(doc))


def _float_by_float(values):
    """The writers' earlier per-entry conversion: `float` of each entry."""
    a = np.asarray(values)
    return [_float_by_float(row) for row in a] if a.ndim > 1 else list(map(float, a))


class TestFloatsWrittenAsBefore:
    """The writers convert float arrays with one ndarray.tolist() in
    `data_io._floats`; the files are byte for byte those of `float` taken
    entry by entry. The dataset and model writers pass those floats to
    `json.dumps`; `write_predictions` fills its line template with the tokens
    json writes for them, and `test_io_parity.TestPredictionLinesAreJsonDumps`
    checks its lines against `json.dumps` of each record."""

    EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072009e-308,
                      2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                      0.1, 1 / 3, -1e16, 123456789.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_same_bytes(self, monkeypatch, tmp_path, seed):
        rng = np.random.default_rng(seed)
        pool = np.concatenate([self.EDGES, rng.standard_normal(50) * 10.0 ** rng.integers(-320, 308, 50)])

        def values(*shape):
            return rng.choice(pool, shape)

        corpora = data_io.Corpora(
            texts=[CorpusExample(f"t{k}", values(5), k % 2 * 2 - 1) for k in range(6)],
            images=[CorpusExample(f"i{k}", values(7), "c0") for k in range(6)],
            pairs=[CooccurrencePair(values(5), values(7), None) for _ in range(6)])
        kernel = KernelSpec(bandwidth=1.3)
        model = TrainedModel(
            S=rng.permutation(self.EDGES).reshape(2, 7), alpha=values(2),
            source_texts=[CorpusExample("t0", values(2), 1)],
            train_images=[CorpusExample("i0", values(7), 1), CorpusExample("i1", values(7), -1)],
            kernel=kernel, hyper=Hyperparameters(kernel=kernel))
        ids = [f"q{k}" for k in range(8)]
        path = tmp_path / "pred.jsonl"

        def write_all():
            out = [data_io.serialize_dataset(corpora), data_io.serialize_model(model)]
            for scores, classes in ((values(8), None), (values(8, 3), ["a", "b", "c"])):
                data_io.write_predictions(str(path), ids, scores, classes)
                out.append(path.read_bytes())
            return out

        state = rng.bit_generator.state
        now = write_all()
        assert all(repr(v) in now[1] for v in self.EDGES.tolist())
        rng.bit_generator.state = state
        monkeypatch.setattr(data_io, "_floats", _float_by_float)
        assert write_all() == now


class TestOneDecoder:
    """Every JSON input goes through `data_io.loads_object`: UTF-8 bytes, one
    JSON object, no NaN or Infinity token, no integer `int()` refuses and no
    nesting deeper than the interpreter's recursion limit."""

    FAULTS = {
        "non-UTF-8": (b'"\xe9"', "'utf-8' codec can't decode byte 0xe9"),
        "5000-digit integer": (b"1" + b"0" * 4999, "integer string conversion"),
        "deep nesting": (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("kind", ["dataset", "prediction", "model", "synth config"])
    def test_undecodable_input_exit_2(self, tmp_path, capsys, kind, fault):
        value, message = self.FAULTS[fault]
        images, out = tmp_path / "images.jsonl", tmp_path / "out.jsonl"
        images.write_bytes(b'{"kind": "image", "id": "i0", "label": 1, "features": [0.5]}\n')
        bad = tmp_path / "bad.json"
        if kind == "dataset":
            bad.write_bytes(images.read_bytes()
                            + b'{"kind": "image", "id": "i1", "features": [%s]}\n' % value)
            argv = ["train", "--data", str(bad), "--out", str(out)]
            prefix = f"{bad}:2: malformed record: "
        elif kind == "prediction":
            bad.write_bytes(b'{"id": "i1", "score": 0.5, "label": 1}\n'
                            b'{"id": "i0", "score": %s, "label": 1}\n' % value)
            argv = ["evaluate", "--pred", str(bad), "--truth", str(images)]
            prefix = f"{bad}:2: malformed prediction: "
        elif kind == "model":
            bad.write_bytes(b'{"format_version": 1, "p": %s}' % value)
            argv = ["predict", "--model", str(bad), "--images", str(images), "--out", str(out)]
            prefix = f"{bad}: malformed model file: "
        else:
            bad.write_bytes(b'{"p": %s}' % value)
            argv = ["synth", "--config", str(bad), "--out", str(out)]
            prefix = f"bad synth config: malformed {bad}: "
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {prefix}") and message in err
        assert err.count("\n") == 1 and not out.exists()

    def test_utf8_ids_read_back_whatever_the_locale(self, tmp_path):
        # Written unescaped, and read where the locale's encoding is ASCII.
        data, pred, model = tmp_path / "d.jsonl", tmp_path / "p.jsonl", tmp_path / "m.json"
        data.write_text('{"kind": "text", "id": "t-é", "label": 1, "features": [1.0]}\n',
                        encoding="utf-8")
        pred.write_text('{"id": "i-é", "score": 0.5, "label": 1}\n', encoding="utf-8")
        doc = json.loads(data_io.serialize_model(TestModelIO().trained_model()))
        doc["source_texts"][0]["id"] = "t-é"
        model.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        script = (
            "from crossmodal import data_io\n"
            f"print(ascii([data_io.parse_dataset({str(data)!r}).texts[0].id,\n"
            f"             data_io.read_predictions({str(pred)!r}).ids[0],\n"
            f"             data_io.read_model({str(model)!r})[0].source_texts[0].id]))\n"
        )
        src = os.path.dirname(os.path.dirname(crossmodal.__file__))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "['t-\\xe9', 'i-\\xe9', 't-\\xe9']\n"


@pytest.fixture
def synth_config(tmp_path):
    cfg = {
        "p": 6,
        "q": 5,
        "r_true": 2,
        "n_texts": 30,
        "m_images": 12,
        "l_pairs": 40,
        "n_test": 20,
        "seed": 11,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCli:
    def run_pipeline(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--gamma", "0.5", "--lambda", "1.0", "--max-iter", "40"]) == 0
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 0
        assert main(["evaluate", "--pred", str(pred), "--truth", str(test)]) == 0
        return capsys.readouterr().out

    def test_full_pipeline_deterministic(self, tmp_path, synth_config, capsys):
        first = self.run_pipeline(tmp_path, synth_config, capsys)
        second = self.run_pipeline(tmp_path, synth_config, capsys)
        assert first == second
        assert "error_rate" in first and "auc" in first

    def test_synth_deterministic_bytes(self, tmp_path, synth_config):
        out1, out2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(synth_config), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_train_zero_weights(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        model_path = tmp_path / "model.json"
        main(["synth", "--config", str(synth_config), "--out", str(data)])
        code = main(["train", "--data", str(data), "--out", str(model_path),
                     "--gamma", "0", "--lambda", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged True\nstop_reason tol\n" in out
        assert out.endswith("\nfloat64_from 1\n")  # no pair gradient without lam
        model, _, _ = data_io.read_model(str(model_path))
        assert np.all(model.S == 0) and np.all(model.alpha == 0)

    def test_evaluate_perfect_predictions(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        records = [
            {"kind": "image", "id": f"i{k}", "label": 1 if k % 2 else -1,
             "features": [float(k)]}
            for k in range(6)
        ]
        truth.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(
            "\n".join(
                json.dumps({"id": f"i{k}", "score": 1.0 if k % 2 else -1.0,
                            "label": 1 if k % 2 else -1})
                for k in range(6)
            )
            + "\n"
        )
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert "error_rate 0.0" in out

    def test_evaluate_loads_no_scipy(self, tmp_path):
        truth = tmp_path / "truth.jsonl"
        pred = tmp_path / "pred.jsonl"
        truth.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "label": 1 - 2 * (k % 2),
                        "features": [float(k)]}) + "\n"
            for k in range(4)
        ))
        pred.write_text("".join(
            json.dumps({"id": f"i{k}", "score": 0.5 - k, "label": 1 - 2 * (k % 2)}) + "\n"
            for k in range(4)
        ))
        script = (
            "import sys\n"
            "import crossmodal\n"
            "from crossmodal.cli import main\n"
            f"assert main(['evaluate', '--pred', {str(pred)!r}, '--truth', {str(truth)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = os.path.dirname(os.path.dirname(crossmodal.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert "auc 0.75" in done.stdout
        assert done.stdout.splitlines()[-1] == "[]"

    def test_closed_standard_output_exits_141(self, tmp_path, synth_config):
        """A reader that closes the pipe, as `| head -1` does, ends the CLI with
        the code a shell reports for SIGPIPE, and with no data error."""
        data = tmp_path / "train.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data)]) == 0
        src = os.path.dirname(os.path.dirname(crossmodal.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "crossmodal.cli", "train", "--data", str(data),
             "--out", str(tmp_path / "model.json"), "--max-iter", "5", "--verbose"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # before the interpreter has started, so before any write
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (141, b"")

    @pytest.mark.parametrize("bad_line, expected", [
        ('{"id": "i1", "label": 1}', "'score' must be a finite number"),
        ('{"id": "i1", "score": NaN, "label": 1}',
         "malformed prediction: non-finite number NaN is not allowed"),
        ('{"id": "i1", "score": 1e999, "label": 1}', "'score' must be a finite number"),
        ('{"id": "i1", "score": 0.5, "label": 0}', "'label' must be 1 or -1"),
        ('{"score": 0.5, "label": 1}', "missing string id"),
        ('{"id": "i1", "scores": {"c0": 0.1}}', "'score' must be a finite number"),
        ('{"id": "i0", "score": 0.5, "label": 1}', "duplicate id 'i0'"),
    ])
    def test_evaluate_bad_binary_prediction_exit_2(self, tmp_path, capsys, bad_line, expected):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "label": 1 if k % 2 else -1,
                        "features": [float(k)]}) + "\n"
            for k in range(3)
        ))
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "i0", "score": -1.0, "label": -1}\n' + bad_line + "\n")
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}:2: {expected}" in err

    @pytest.mark.parametrize("bad_line, expected", [
        ('{"id": "i1", "scores": {"c0": 0.3}}', "classes ['c0'] differ"),
        ('{"id": "i1", "scores": {"c0": 0.3, "c1": Infinity}}',
         "malformed prediction: non-finite number Infinity is not allowed"),
        ('{"id": "i1", "scores": {"c0": 0.3, "c1": "x"}}', "score of class 'c1'"),
        ('{"id": "i1", "score": 0.3, "label": 1}', "'scores' must be a non-empty object"),
    ])
    def test_evaluate_bad_zeroshot_prediction_exit_2(self, tmp_path, capsys, bad_line, expected):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "class": f"c{k % 2}",
                        "features": [float(k)]}) + "\n"
            for k in range(3)
        ))
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "i0", "scores": {"c0": 0.9, "c1": -0.9}}\n' + bad_line + "\n")
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}:2: {expected}" in err

    @pytest.mark.parametrize("lines, expected", [
        ("", "no predictions to evaluate"),
        ('{"id": "zz", "score": 0.5, "label": 1}\n', "no truth for predicted ids ['zz']"),
    ])
    def test_evaluate_unmatched_predictions_exit_2(self, tmp_path, capsys, lines, expected):
        truth, pred = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        truth.write_text(json.dumps({"kind": "image", "id": "i0", "label": 1,
                                     "features": [0.0]}) + "\n")
        pred.write_text(lines)
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        assert capsys.readouterr().err == f"data error: {expected}\n"

    def test_evaluate_binary_against_class_truth_exit_2(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text(json.dumps(
            {"kind": "image", "id": "i0", "class": "c0", "features": [0.0]}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "i0", "score": 0.5, "label": 1}\n')
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {truth}: image 'i0' has label 'c0'")

    @pytest.mark.parametrize("flag, value, expected", [
        ("--cap-c", "0", "C must be > 0"),
        ("--gamma", "-1", "gamma and lam must be >= 0"),
        ("--tol", "0", "tol must be > 0"),
        ("--max-iter", "0", "max_iter must be >= 1"),
        ("--tol", "nan", "hyperparameters must be finite"),
        ("--lambda", "inf", "hyperparameters must be finite"),
        ("--bandwidth", "nan", "bandwidth must be positive and finite"),
    ])
    def test_out_of_range_option_exit_2(self, tmp_path, capsys, flag, value, expected):
        data = tmp_path / "train.jsonl"
        data.write_text(json.dumps(
            {"kind": "image", "id": "i0", "label": 1, "features": [1.0]}) + "\n")
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad option value: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("config, flags, expected", [
        ({"seed": "x"}, [], "seed must be an integer, got 'x'"),
        ({"n_test": 1.5}, [], "n_test must be an integer, got 1.5"),
        ({"p": True}, [], "p must be an integer, got True"),
        ({"noise_sigma": "0.3"}, [], "noise_sigma must be a real number, got '0.3'"),
        # Raw text: json.dumps would write 1e999 as the token Infinity.
        ('{"noise_sigma": 1e999}', [], "noise_sigma must be finite and >= 0"),
        ('{"noise_sigma": Infinity}', [],
         "malformed {cfg}: non-finite number Infinity is not allowed"),
        ({}, ["--seed", "-1"], "counts and seed must be >= 0"),
        ([1], ["--seed", "3"], "{cfg} must be a JSON object"),
        ('{"p": 8,', [], "malformed {cfg}: Expecting property name enclosed in double quotes"),
        ({"p": 0}, [], "dimensions and class count must be positive"),
        ({"p": 3, "q": 2, "r_true": 3}, [], "r_true must not exceed min(p, q)"),
        ({"r_true": 1, "classes": 3}, [], "could not draw a balanced labeling"),
    ])
    def test_bad_synth_config_exit_2(self, tmp_path, capsys, config, flags, expected):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.jsonl"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: bad synth config: ") and expected.format(cfg=cfg) in err
        assert not out.exists()

    def test_crossval_negative_seed_exit_2(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data)]) == 0
        assert main(["crossval", "--data", str(data), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: bad option value: --seed must be >= 0\n"

    # Flags a command does not take. crossval's grid picks gamma, lambda and
    # C; a zero-shot fit has no alpha, so no C and no kernel.
    _UNUSED_FLAGS = {
        "crossval": [["--grid", "default"], ["--verbose"],
                     ["--gamma", "7"], ["--lambda", "9"], ["--cap-c", "3"]],
        "zeroshot": [["--cap-c", "3"], ["--kernel", "linear"], ["--bandwidth", "1"]],
    }

    @pytest.mark.parametrize("flags", _UNUSED_FLAGS["crossval"])
    def test_crossval_rejects_unused_flags(self, tmp_path, capsys, flags):
        assert main(["crossval", "--data", str(tmp_path / "d.jsonl"), *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", _UNUSED_FLAGS["zeroshot"])
    def test_zeroshot_rejects_unused_flags(self, tmp_path, capsys, flags):
        assert main(["zeroshot", "--data", str(tmp_path / "d.jsonl"), "--unseen", "c0",
                     "--out", str(tmp_path / "m.json"), *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_train_verbose_prints_iterations_then_report(self, tmp_path, synth_config, capsys):
        data, out = tmp_path / "train.jsonl", tmp_path / "model.json"
        main(["synth", "--config", str(synth_config), "--out", str(data)])
        args = ["train", "--data", str(data), "--out", str(out), "--max-iter", "3", "--tol", "1e-16"]
        assert main(args) == 0
        report = capsys.readouterr().out
        assert report.startswith("converged False\n")
        assert main(args + ["--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert [line.split(",")[0] for line in lines[:3]] == ["1", "2", "3"]
        assert all(len(line.split(",")) == 5 for line in lines[:3])
        assert "".join(lines[3:]) == report

    def test_train_report_names_the_first_float64_iteration(self, tmp_path, synth_config, capsys):
        data, out = tmp_path / "train.jsonl", tmp_path / "model.json"
        main(["synth", "--config", str(synth_config), "--out", str(data)])
        assert main(["train", "--data", str(data), "--out", str(out)]) == 0
        report = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
        assert list(report)[-2:] == ["final_rank", "float64_from"]
        assert report["stop_reason"] == "tol"
        assert 1 < int(report["float64_from"]) <= int(report["iterations"])
        assert main(["train", "--data", str(data), "--out", str(out), "--max-iter", "3"]) == 0
        assert capsys.readouterr().out.endswith("\nfloat64_from none\n")

    def test_train_class_labels_exit_2(self, tmp_path, capsys):
        data = tmp_path / "train.jsonl"
        data.write_text(
            json.dumps({"kind": "text", "id": "t0", "class": "a", "features": [1.0]}) + "\n"
            + json.dumps({"kind": "image", "id": "i0", "label": 1, "features": [1.0]}) + "\n"
        )
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
        assert "source text 't0' has label 'a'" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path, capsys):
        assert main(["train", "--data"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()
        # Checked before the data file is read.
        assert main(["zeroshot", "--data", str(tmp_path / "missing.jsonl"), "--unseen", ",",
                     "--out", str(tmp_path / "zs.json")]) == 1
        assert capsys.readouterr().err == "error: --unseen must name at least one class\n"

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "d.jsonl", "--out", "m.json"],
        ["crossval", "--data", "d.jsonl"],
        ["zeroshot", "--data", "d.jsonl", "--unseen", "c0", "--out", "m.json"],
    ])
    def test_hyper_flag_defaults_are_the_dataclass_defaults(self, argv):
        assert _hyper_from_args(build_parser().parse_args(argv)) == Hyperparameters()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("flags, expected", [
        ([], "median image distance is non-finite; pass an explicit bandwidth"),
        (["--kernel", "linear"], "smooth objective is non-finite"),
    ])
    def test_overflowing_features_exit_3(self, tmp_path, synth_config, capsys, flags, expected):
        data, big = tmp_path / "train.jsonl", tmp_path / "big.jsonl"
        out = tmp_path / "model.json"
        assert main(["synth", "--config", str(synth_config), "--out", str(data)]) == 0
        records = [json.loads(line) for line in data.read_text().splitlines()]
        for rec in records:
            for key in ("features", "text_features", "image_features"):
                if key in rec:
                    rec[key] = [1e200 * v for v in rec[key]]
        big.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        assert main(["train", "--data", str(big), "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err == f"numerical failure: {expected}\n"
        assert not out.exists()

    @pytest.mark.parametrize("record, expected", [
        ({"kind": "image", "id": "i0", "label": 1}, "missing 'features'"),
        ({"kind": "image", "id": "i0", "label": 1, "features": []},
         "'features' must be a non-empty array of numbers"),
        ({"kind": "video", "id": "i0", "label": 1, "features": [1.0]}, "unknown kind 'video'"),
        ({"kind": "image", "id": 0, "label": 1, "features": [1.0]}, "missing string id"),
        ({"kind": "image", "label": 1, "features": [1.0]}, "missing string id"),
    ])
    def test_bad_dataset_record_exit_2(self, tmp_path, capsys, record, expected):
        data, out = tmp_path / "train.jsonl", tmp_path / "model.json"
        data.write_text(json.dumps(record) + "\n")
        assert main(["train", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {data}:1: {expected}\n"
        assert not out.exists()

    def test_identical_training_images_exit_2(self, tmp_path, capsys):
        # The median heuristic has no bandwidth to give identical images.
        data, out = tmp_path / "train.jsonl", tmp_path / "model.json"
        data.write_text("".join(json.dumps(r) + "\n" for r in [
            {"kind": "text", "id": "t0", "label": 1, "features": [1.0, 0.0]},
            {"kind": "image", "id": "i0", "label": 1, "features": [0.5, 0.5]},
            {"kind": "image", "id": "i1", "label": -1, "features": [0.5, 0.5]},
        ]))
        assert main(["train", "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "data error: all image features are identical; pass an explicit bandwidth\n")
        assert not out.exists()
        assert main(["train", "--data", str(data), "--out", str(out), "--bandwidth", "1"]) == 0

    def test_predict_names_a_model_without_bandwidth(self, tmp_path, synth_config, capsys):
        data, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        model, pred = tmp_path / "model.json", tmp_path / "pred.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "5"]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        doc["kernel"]["bandwidth"] = None
        model.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {model}: invalid model file: binary model with training images")
        assert not pred.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_predict_non_finite_score_exit_3(self, tmp_path, capsys):
        # A linear kernel on huge features overflows; no prediction file may hold the inf.
        kernel = KernelSpec("linear")
        model, images, out = tmp_path / "model.json", tmp_path / "images.jsonl", tmp_path / "p"
        data_io.write_model(TrainedModel(
            S=np.eye(2), alpha=np.ones(1), source_texts=[CorpusExample("t0", np.ones(2), 1)],
            train_images=[CorpusExample("i0", np.full(2, 1e200), 1)], kernel=kernel,
            hyper=Hyperparameters(kernel=kernel)), str(model))
        images.write_text('{"kind": "image", "id": "q0", "features": [0.5, 0.5]}\n'
                          '{"kind": "image", "id": "q1", "features": [1e200, 1e200]}\n')
        assert main(["predict", "--model", str(model), "--images", str(images),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {images}: image 'q1': Out of range float")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("kind", ["prediction", "truth"])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys, kind):
        huge = "1" + "0" * 400
        truth, pred = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        feature = huge if kind == "truth" else "0.0"
        truth.write_text('{"kind": "image", "id": "i0", "label": 1, "features": [%s]}\n'
                         % feature)
        score = huge if kind == "prediction" else "0.5"
        pred.write_text('{"id": "i0", "score": %s, "label": 1}\n' % score)
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        if kind == "prediction":
            assert f"{pred}:1: 'score' must be a finite number" in err
        else:
            assert f"{truth}:1: 'features' must hold numbers" in err

    def test_evaluate_zeroshot_tie_goes_to_first_sorted_class(self, tmp_path, capsys):
        # Class keys in reverse order, and every image's scores tie: the hard
        # prediction is c0, whatever order the file lists the classes in.
        truth, pred = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        truth.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "class": c, "features": [0.0]}) + "\n"
            for k, c in enumerate(["c0", "c1", "c1"])))
        pred.write_text("".join(
            json.dumps({"id": f"i{k}", "scores": {"c1": s, "c0": s}}) + "\n"
            for k, s in enumerate([0.3, 0.1, -0.2])))
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
        printed = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
        assert float(printed["error_rate"]) == 2 / 3

    def test_data_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        out = tmp_path / "model.json"
        assert main(["train", "--data", str(missing), "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_inputs_exit_2(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "5"]) == 0
        capsys.readouterr()

        def poison(path, line_index):
            lines = path.read_text().splitlines()
            rec = json.loads(lines[line_index])
            key = "features" if "features" in rec else "text_features"
            rec[key][0] = float("nan")
            lines[line_index] = json.dumps(rec)
            bad = tmp_path / f"bad-{path.name}"
            bad.write_text("\n".join(lines) + "\n")
            return bad

        bad_train = poison(data, 3)
        assert main(["train", "--data", str(bad_train), "--out", str(model)]) == 2
        assert f"{bad_train}:4:" in capsys.readouterr().err
        bad_test = poison(test, 0)
        assert main(["predict", "--model", str(model), "--images", str(bad_test),
                     "--out", str(pred)]) == 2
        assert f"{bad_test}:1:" in capsys.readouterr().err
        assert not pred.exists()

    def test_predict_wrong_dimension_exit_2(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        model = tmp_path / "model.json"
        images = tmp_path / "images.jsonl"
        pred = tmp_path / "pred.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "5"]) == 0
        capsys.readouterr()
        images.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "features": [1.0, 2.0, 3.0]}) + "\n"
            for k in range(4)
        ))
        assert main(["predict", "--model", str(model), "--images", str(images),
                     "--out", str(pred)]) == 2
        err = capsys.readouterr().err
        assert str(images) in err and "dimension 3" in err
        assert not pred.exists()

    def test_crossval_prints_selection(self, tmp_path, synth_config, capsys):
        data = tmp_path / "train.jsonl"
        main(["synth", "--config", str(synth_config), "--out", str(data)])
        # tiny grid via max-iter keeps runtime low; default grid is exercised
        # in the acceptance suite
        code = main(["crossval", "--data", str(data), "--max-iter", "5", "--tol", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("lambda ") and "gamma" in out and "C " in out

    def test_walkthrough_crossval_resumes_a_fit(self, tmp_path, monkeypatch, capsys):
        # The CI walkthrough's binary config and crossval command. At
        # --max-iter 5 no fit proposes an alpha above its C; at 20 some fit
        # at a larger C resumes one at a smaller C.
        from crossmodal import evaluation

        config, data = tmp_path / "bin.json", tmp_path / "train.jsonl"
        config.write_text(json.dumps({"p": 8, "q": 6, "r_true": 2, "n_texts": 40,
                                      "m_images": 16, "l_pairs": 80, "n_test": 30}))
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        resumed = []
        original = evaluation.train

        def counted(data, hyper, **kwargs):
            resumed.append(kwargs.get("resume") is not None)
            return original(data, hyper, **kwargs)

        monkeypatch.setattr(evaluation, "train", counted)
        assert main(["crossval", "--data", str(data), "--max-iter", "20"]) == 0
        assert any(resumed)
        assert capsys.readouterr().out.splitlines()[-3:] == ["lambda 0.5", "gamma 2.0", "C 1.0"]

    def test_images_only_train_and_crossval(self, tmp_path, capsys):
        # The intramodal-only baseline: no texts and no pairs, so S has no rows.
        ds = generate(SynthConfig(p=6, q=5, r_true=2, n_texts=0, m_images=12, l_pairs=0,
                                  n_test=20, seed=11))
        data, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        model_path, pred = tmp_path / "model.json", tmp_path / "pred.jsonl"
        data_io.write_dataset(data_io.Corpora(images=ds.images), str(data))
        data_io.write_dataset(data_io.Corpora(images=ds.test_images), str(test))
        assert main(["train", "--data", str(data), "--out", str(model_path),
                     "--lambda", "0", "--max-iter", "40"]) == 0
        assert main(["predict", "--model", str(model_path), "--images", str(test),
                     "--out", str(pred)]) == 0
        model, _ = train(TrainData(train_images=ds.images),
                         Hyperparameters(lam=0.0, max_iter=40))
        assert model.S.shape == (0, 5)
        want = scores(model, np.stack([e.features for e in ds.test_images]))
        got = [json.loads(line)["score"] for line in pred.read_text().splitlines()]
        assert got == want.tolist()
        assert main(["crossval", "--data", str(data), "--max-iter", "5", "--tol", "1e-3"]) == 0
        assert capsys.readouterr().out.splitlines()[-3].startswith("lambda ")

    def test_zeroshot_drops_unseen_class_images(self, tmp_path, capsys):
        # A raw multi-class synth file labels images of every class; zeroshot
        # trains as if the unseen-class images were never in the file.
        ds = generate(SynthConfig(p=6, q=5, r_true=2, classes=3, n_texts=45, m_images=24,
                                  l_pairs=60, n_test=30, seed=3))
        raw, seen_only = tmp_path / "raw.jsonl", tmp_path / "seen.jsonl"
        data_io.write_dataset(
            data_io.Corpora(texts=ds.texts, images=ds.images, pairs=ds.pairs), str(raw))
        seen_imgs = [i for i in ds.images if i.label != "c2"]
        data_io.write_dataset(
            data_io.Corpora(texts=ds.texts, images=seen_imgs, pairs=ds.pairs), str(seen_only))
        runs = []
        for data in (raw, seen_only):
            out = tmp_path / f"zs-{data.stem}.json"
            assert main(["zeroshot", "--data", str(data), "--unseen", "c2",
                         "--out", str(out), "--max-iter", "10"]) == 0
            runs.append((capsys.readouterr(), out.read_bytes()))
        (raw_io, raw_model), (seen_io, seen_model) = runs
        dropped = len(ds.images) - len(seen_imgs)
        assert dropped > 0
        assert raw_io.err == f"dropped {dropped} training images of unseen classes\n"
        assert seen_io.err == ""
        assert raw_io.out == seen_io.out and raw_model == seen_model

    @pytest.mark.parametrize("case", ["unknown class", "image label", "untagged pair",
                                      "no seen class", "class without text"])
    def test_zeroshot_rejects_what_the_library_rejects(self, tmp_path, capsys, case):
        ds = generate(SynthConfig(p=6, q=5, r_true=2, classes=3, n_texts=45, m_images=24,
                                  l_pairs=60, n_test=30, seed=3))
        unseen = {"unknown class": "c1,zz", "no seen class": "c0,c1,c2",
                  "class without text": "c1,c2"}.get(case, "c2")
        if case == "class without text":
            ds.texts[:] = [t for t in ds.texts if t.label != "c2"]
        if case == "image label":
            ds.images[3] = CorpusExample(ds.images[3].id, ds.images[3].features, 1)
        if case == "untagged pair":
            ds.pairs[5] = CooccurrencePair(ds.pairs[5].text_features, ds.pairs[5].image_features)
        data = tmp_path / "mc.jsonl"
        data_io.write_dataset(
            data_io.Corpora(texts=ds.texts, images=ds.images, pairs=ds.pairs), str(data))
        with pytest.raises(DataError) as lib:
            train_zeroshot(TrainData(ds.texts, ds.images, ds.pairs), set(unseen.split(",")),
                           Hyperparameters(max_iter=5))
        out = tmp_path / "zs.json"
        assert main(["zeroshot", "--data", str(data), "--unseen", unseen,
                     "--out", str(out), "--max-iter", "5"]) == 2
        assert capsys.readouterr().err == f"data error: {lib.value}\n"
        assert not out.exists()

    def trained_model_doc(self, tmp_path, synth_config, capsys):
        """A binary model file trained by the CLI, its test images and its JSON."""
        data, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        model = tmp_path / "model.json"
        assert main(["synth", "--config", str(synth_config), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "5"]) == 0
        capsys.readouterr()
        return model, test, json.loads(model.read_text())

    def assert_predict_rejects(self, tmp_path, capsys, model, test, doc, expected):
        pred = tmp_path / "pred.jsonl"
        model.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {model}: invalid model file: {expected}\n"
        assert not pred.exists()

    @pytest.mark.parametrize("path, value, expected", [
        (("hyper", "normalize"), "false", "normalize must be a bool, got 'false'"),
        (("hyper", "normalize"), 1.5, "normalize must be a bool, got 1.5"),
        (("hyper", "max_iter"), 2.5, "max_iter must be an integer, got 2.5"),
        (("hyper", "max_iter"), True, "max_iter must be an integer, got True"),
        (("hyper", "gamma"), True, "gamma must be a real number, got True"),
        (("kernel", "bandwidth"), True, "bandwidth must be a real number, got True"),
    ])
    def test_predict_rejects_mistyped_hyperparameters(self, tmp_path, synth_config, capsys,
                                                      path, value, expected):
        model, test, doc = self.trained_model_doc(tmp_path, synth_config, capsys)
        doc[path[0]][path[1]] = value
        self.assert_predict_rejects(tmp_path, capsys, model, test, doc, expected)

    @pytest.mark.parametrize("field", ["S", "alpha"])
    def test_predict_rejects_a_short_array(self, tmp_path, synth_config, capsys, field):
        model, test, doc = self.trained_model_doc(tmp_path, synth_config, capsys)
        doc[field].pop()
        expected = {"S": f"S has {len(doc['S'])} entries, expected {doc['p'] * doc['q']}",
                    "alpha": "alpha length must match the number of training images"}[field]
        self.assert_predict_rejects(tmp_path, capsys, model, test, doc, expected)

    @pytest.mark.parametrize("field, value", [
        ("p", "1"), ("q", "2"), ("p", 3.0), ("q", True), ("p", -1), ("q", None),
    ])
    def test_predict_rejects_a_bad_dimension(self, tmp_path, synth_config, capsys,
                                             field, value):
        model, test, doc = self.trained_model_doc(tmp_path, synth_config, capsys)
        doc[field] = value
        self.assert_predict_rejects(tmp_path, capsys, model, test, doc,
                                    f"{field} must be a non-negative integer, got {value!r}")

    @pytest.mark.parametrize("fault", ["class label", "integer id"])
    def test_predict_names_a_bad_model_file(self, tmp_path, synth_config, capsys, fault):
        data, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        model, pred = tmp_path / "model.json", tmp_path / "pred.jsonl"
        assert main(["synth", "--config", str(synth_config), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["train", "--data", str(data), "--out", str(model),
                     "--max-iter", "5"]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        if fault == "class label":
            del doc["source_texts"][0]["label"]
            doc["source_texts"][0]["class"] = "c0"
        else:
            doc["source_texts"][0]["id"] = 7
        model.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}: invalid model file: source_texts")
        assert str(test) not in err
        assert not pred.exists()

    def test_zeroshot_pipeline(self, tmp_path, capsys):
        ds = generate(
            SynthConfig(p=6, q=5, r_true=2, classes=3, n_texts=45, m_images=24,
                        l_pairs=60, n_test=30, seed=3)
        )
        data = tmp_path / "mc.jsonl"
        test = tmp_path / "mc_test.jsonl"
        data_io.write_dataset(
            data_io.Corpora(texts=ds.texts, images=ds.images, pairs=ds.pairs), str(data)
        )
        data_io.write_dataset(data_io.Corpora(images=ds.test_images), str(test))
        model_path = tmp_path / "zs.json"
        # images of the unseen class must be dropped before zero-shot training
        seen_imgs = [i for i in ds.images if i.label != "c0"]
        data_io.write_dataset(
            data_io.Corpora(texts=ds.texts, images=seen_imgs, pairs=ds.pairs), str(data)
        )
        assert main(["zeroshot", "--data", str(data), "--unseen", "c0",
                     "--out", str(model_path), "--max-iter", "30"]) == 0
        pred = tmp_path / "zs_pred.jsonl"
        assert main(["predict", "--model", str(model_path), "--images", str(test),
                     "--out", str(pred)]) == 0
        lines = [json.loads(l) for l in pred.read_text().splitlines()]
        assert all("scores" in r and set(r["scores"]) == {"c0"} for r in lines)
        assert main(["evaluate", "--pred", str(pred), "--truth", str(test)]) == 0
        out = capsys.readouterr().out
        assert "auc_c0" in out

    @pytest.mark.parametrize("unseen", ["c2", "c1,c2"])
    def test_zeroshot_error_rate_counts_scored_classes_only(self, tmp_path, capsys, unseen):
        # The README walkthrough's 3-class file. A hard prediction is one of
        # the unseen classes, so images of the seen class c0 are left out of
        # error_rate: with one unseen class it is 0, with two it is the share
        # of c1 and c2 images whose higher score is not their own class.
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"p": 8, "q": 6, "r_true": 2, "classes": 3, "n_texts": 45,
                                   "m_images": 24, "l_pairs": 90, "n_test": 30}))
        data, test = tmp_path / "mc.jsonl", tmp_path / "mc_test.jsonl"
        model, pred = tmp_path / "zs.json", tmp_path / "zs_pred.jsonl"
        assert main(["synth", "--config", str(cfg), "--out", str(data),
                     "--test-out", str(test)]) == 0
        assert main(["zeroshot", "--data", str(data), "--unseen", unseen, "--out", str(model),
                     "--max-iter", "50"]) == 0
        assert main(["predict", "--model", str(model), "--images", str(test),
                     "--out", str(pred)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--pred", str(pred), "--truth", str(test)]) == 0
        printed = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
        truth = {e.id: e.label for e in data_io.parse_dataset(str(test)).images}
        records = [json.loads(line) for line in pred.read_text().splitlines()]
        scored = [r for r in records if truth[r["id"]] in unseen.split(",")]
        assert 0 < len(scored) < len(records)
        wrong = sum(max(r["scores"], key=r["scores"].get) != truth[r["id"]] for r in scored)
        assert float(printed["error_rate"]) == wrong / len(scored)
        if unseen == "c2":
            assert wrong == 0

    def test_zeroshot_evaluate_refuses_an_unlabelled_truth_image(self, tmp_path, capsys):
        # An image of seen class c0 is a negative of c1; one with no class is
        # refused, as binary mode refuses an image without a +1/-1 label.
        truth, pred = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        pred.write_text("".join(json.dumps({"id": f"i{k}", "scores": {"c1": s}}) + "\n"
                                for k, s in enumerate([0.5, -0.5, 0.1])))
        records = [{"kind": "image", "id": f"i{k}", "class": c, "features": [0.0]}
                   for k, c in enumerate(["c1", "c0", "c0"])]
        truth.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
        capsys.readouterr()
        del records[2]["class"]
        truth.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {truth}: image 'i2' has label None; zero-shot mode needs a class\n")

    def test_zeroshot_evaluate_without_scored_class_images_exit_2(self, tmp_path, capsys):
        truth = tmp_path / "truth.jsonl"
        truth.write_text("".join(
            json.dumps({"kind": "image", "id": f"i{k}", "class": "c0",
                        "features": [float(k)]}) + "\n"
            for k in range(2)
        ))
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "i0", "scores": {"c1": 0.2}}\n'
                        '{"id": "i1", "scores": {"c1": -0.4}}\n')
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {truth}: no predicted image is of a scored class")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CLASS_ID = st.text(max_size=4)
ANY_LABEL = st.one_of(st.sampled_from([1, -1]), CLASS_ID, st.none())
BINARY_LABEL = st.sampled_from([1, -1])


def vectors(width):
    return st.lists(FINITE, min_size=width, max_size=width).map(np.array)


@st.composite
def examples(draw, width, label):
    ids = draw(st.lists(st.text(max_size=4), unique=True, max_size=4))
    return [CorpusExample(i, draw(vectors(width)), draw(label)) for i in ids]


def assert_same_examples(got, want):
    assert [(e.id, type(e.label), e.label) for e in got] == [
        (e.id, type(e.label), e.label) for e in want]
    # tobytes tells -0.0 from 0.0
    assert [e.features.tobytes() for e in got] == [e.features.tobytes() for e in want]


@st.composite
def corpora(draw):
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = draw(st.lists(
        st.builds(CooccurrencePair, vectors(p), vectors(q), st.one_of(st.none(), CLASS_ID)),
        max_size=3))
    return data_io.Corpora(draw(examples(p, ANY_LABEL)), draw(examples(q, ANY_LABEL)), pairs)


@st.composite
def models(draw):
    """A binary model, possibly images-only (S of shape (0, q)), or a zero-shot
    model with unseen classes."""
    zeroshot = draw(st.booleans())
    # Each unseen class of a zero-shot model labels one of its texts.
    p, q = draw(st.integers(int(zeroshot), 3)), draw(st.integers(1, 3))
    texts = draw(examples(p, ANY_LABEL if zeroshot else BINARY_LABEL)) if p else []
    unseen = draw(st.lists(CLASS_ID, min_size=1, max_size=3, unique=True)) if zeroshot else []
    texts += [CorpusExample(f"u{k}", draw(vectors(p)), c) for k, c in enumerate(unseen)]
    images = [] if zeroshot else draw(examples(q, BINARY_LABEL))
    kind = draw(st.sampled_from(["gaussian", "linear"]))
    # A binary model scores its images by the kernel, so a gaussian one needs
    # its bandwidth (`test_binary_model_without_bandwidth_rejected`).
    bandwidth = st.floats(1e-3, 1e3)
    if not (kind == "gaussian" and images):
        bandwidth = st.one_of(st.none(), bandwidth)
    kernel = KernelSpec(kind, draw(bandwidth))
    model = TrainedModel(
        S=np.array(draw(st.lists(FINITE, min_size=p * q, max_size=p * q))).reshape(p, q),
        alpha=np.array(draw(st.lists(FINITE, min_size=len(images), max_size=len(images)))),
        source_texts=texts,
        train_images=images,
        kernel=kernel,
        hyper=Hyperparameters(
            gamma=draw(st.floats(0, 1e3)), lam=draw(st.floats(0, 1e3)),
            C=draw(st.floats(1e-3, 1e3)), kernel=kernel, max_iter=draw(st.integers(1, 999)),
            tol=draw(st.floats(1e-12, 1.0)), normalize=draw(st.booleans())),
        final_objective=draw(st.one_of(st.none(), FINITE)),
    )
    return model, unseen


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(corpora())
    def test_dataset(self, corpora):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            data_io.write_dataset(corpora, path)
            back = data_io.parse_dataset(path)
        assert_same_examples(back.texts, corpora.texts)
        assert_same_examples(back.images, corpora.images)
        assert [c.class_id for c in back.pairs] == [c.class_id for c in corpora.pairs]
        for got, want in zip(back.pairs, corpora.pairs, strict=True):
            assert got.text_features.tobytes() == want.text_features.tobytes()
            assert got.image_features.tobytes() == want.image_features.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(models())
    def test_model(self, drawn):
        model, unseen = drawn
        back, mode, back_unseen = data_io.parse_model(data_io.serialize_model(model, unseen))
        assert (mode, back_unseen) == ("zeroshot" if unseen else "binary", unseen)
        assert back.S.shape == model.S.shape and back.S.tobytes() == model.S.tobytes()
        assert back.alpha.tobytes() == model.alpha.tobytes()
        assert_same_examples(back.source_texts, model.source_texts)
        assert_same_examples(back.train_images, model.train_images)
        assert (back.kernel, back.hyper) == (model.kernel, model.hyper)
        assert back.final_objective == model.final_objective


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_predictions(self, data):
        ids = data.draw(st.lists(st.text(max_size=4), unique=True, max_size=5))
        classes = data.draw(st.one_of(
            st.none(), st.lists(CLASS_ID, min_size=1, max_size=3, unique=True)))
        shape = (len(ids),) if classes is None else (len(ids), len(classes))
        scores = np.array(data.draw(st.lists(FINITE, min_size=int(np.prod(shape)),
                                             max_size=int(np.prod(shape))))).reshape(shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "pred.jsonl")
            data_io.write_predictions(path, ids, scores, classes)
            back = data_io.read_predictions(path)
        assert back.ids == ids
        assert back.scores.tobytes() == scores.tobytes()  # tobytes tells -0.0 from 0.0
        if classes is None or not ids:  # a file without records reads as binary
            assert back.classes is None and back.scores.shape == (len(ids),)
            assert back.labels.tolist() == [1 if s > 0 else -1 for s in scores.ravel()]
        else:
            assert back.classes == classes and back.labels is None
            assert back.scores.shape == scores.shape


class TestAtomicWrites:
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"

        class Boom(Exception):
            pass

        def exploding_replace(src, dst):
            raise Boom()

        monkeypatch.setattr("crossmodal.data_io.os.replace", exploding_replace)
        with pytest.raises(Boom):
            data_io.atomic_write_text(str(target), "partial")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, b"the previous file\n"])
    @pytest.mark.parametrize("kind, rid, bad", [("text", "t299", np.nan), ("image", "i1", np.inf),
                                                ("pair", "p1", -np.inf)])
    def test_non_finite_feature_refused_mid_stream(self, tmp_path, kind, rid, bad, existing):
        # parse_dataset refuses NaN and Infinity tokens, so write_dataset writes none.
        # The bad record follows 299 texts, some 140 KB of lines that have
        # reached the temp file by then.
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((306, 20))
        vectors[{"text": 299, "image": 301, "pair": 304}[kind], 4] = bad
        corpora = data_io.Corpora(
            texts=[CorpusExample(f"t{k}", vectors[k], 1) for k in range(300)],
            images=[CorpusExample(f"i{k}", vectors[300 + k], -1) for k in range(3)],
            pairs=[CooccurrencePair(np.ones(20), vectors[303 + k], None) for k in range(3)])
        target = tmp_path / "data.jsonl"
        if existing is not None:
            target.write_bytes(existing)
        with pytest.raises(ValueError, match=f"^{kind} '{rid}': Out of range float"):
            data_io.write_dataset(corpora, str(target))
        with pytest.raises(ValueError, match=f"^{kind} '{rid}': "):
            data_io.serialize_dataset(corpora)
        assert [f.name for f in tmp_path.iterdir()] == ([] if existing is None else [target.name])
        if existing is not None:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize("existing", [None, b"the previous file\n"])
    @pytest.mark.parametrize("classes", [None, ["a", "b"]])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_refused(self, tmp_path, bad, classes, existing):
        # read_predictions refuses NaN and Infinity tokens, so write_predictions writes none.
        scores = np.arange(6.0) if classes is None else np.arange(6.0).reshape(3, 2)
        scores.flat[3] = bad
        ids = ["q0", "q1", "q2", "q3", "q4", "q5"][:len(scores)]
        target = tmp_path / "pred.jsonl"
        if existing is not None:
            target.write_bytes(existing)
        bad_id = "q3" if classes is None else "q1"  # the fourth score's image
        with pytest.raises(ValueError, match=f"^image '{bad_id}': Out of range float"):
            data_io.write_predictions(str(target), ids, scores, classes)
        assert [f.name for f in tmp_path.iterdir()] == ([] if existing is None else [target.name])
        if existing is not None:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize("field, name", [
        ("S", "S"), ("alpha", "alpha"), ("final_objective", "final_objective"),
        ("source_texts", "source_texts 't0'"), ("train_images", "train_images 'i1'")])
    def test_non_finite_model_number_refused(self, tmp_path, field, name):
        # read_model refuses NaN and Infinity tokens, so write_model writes none.
        model = TestModelIO().trained_model()
        if field in ("S", "alpha"):  # set after construction, which refuses a non-finite S
            getattr(model, field).flat[-1] = np.nan
        elif field == "final_objective":
            object.__setattr__(model, field, np.inf)
        else:
            getattr(model, field)[-1].features[0] = -np.inf
        target = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"^{name}: Out of range float"):
            data_io.write_model(model, str(target))
        assert list(tmp_path.iterdir()) == []

    def test_dataset_write_memory_does_not_grow_with_the_file(self, tmp_path):
        # write_dataset holds one record's line at a time, so the peak of what
        # it allocates stays put while the file grows four-fold.
        rng = np.random.default_rng(0)
        sizes, peaks = [], []
        for n_pairs in (2000, 8000):
            corpora = data_io.Corpora(pairs=[
                CooccurrencePair(rng.standard_normal(30), rng.standard_normal(20), "c0")
                for _ in range(n_pairs)])
            path = tmp_path / f"pairs{n_pairs}.jsonl"
            tracemalloc.start()
            try:
                data_io.write_dataset(corpora, str(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(path.stat().st_size)
        assert sizes[0] > 2**21 and sizes[1] > 3.9 * sizes[0]
        assert max(peaks) < 2**20, peaks

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_get_the_umask_mode(self, tmp_path, umask, mode):
        # The mode open(path, "w") gives a new file, 0o666 & ~umask.
        model = TestModelIO().trained_model()
        old = os.umask(umask)
        try:
            data_io.write_dataset(data_io.Corpora(images=model.train_images),
                                  str(tmp_path / "data.jsonl"))
            data_io.write_model(model, str(tmp_path / "model.json"))
            data_io.write_predictions(str(tmp_path / "pred.jsonl"), ["i0"], np.array([0.5]))
        finally:
            os.umask(old)
        for name in ("data.jsonl", "model.json", "pred.jsonl"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode
