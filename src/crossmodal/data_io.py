"""Line-delimited JSON dataset files and the JSON model file.

Dataset records are self-describing objects with a `kind` of text, image, or
pair. Every written file is `json.dumps` of its records, byte for byte; the
text of its floats comes from orjson where it equals json's (`_float_rows`).
Floats round-trip exactly because both print shortest-round-trip decimals,
and both decoders `_decode` uses round each decimal to the nearest double.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter

import numpy as np
import orjson

from .errors import DataError
from .model import (
    CooccurrencePair,
    Corpora,
    CorpusExample,
    Hyperparameters,
    KernelSpec,
    TrainedModel,
    check_unseen_texts,
    is_sign,
    score_labels,
)

MODEL_FORMAT_VERSION = 1
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float compares with any int
_BLOCK = 256  # dataset records whose feature vectors are checked as one array


def _write_atomic(path: str, chunks) -> None:
    """Write the strings `chunks` in turn to a temp file and rename it to
    `path`, so a failure, in a write or in drawing the next chunk, leaves no
    partial output and an existing `path` untouched. The file gets the mode
    `open(path, "w")` gives a new file, 0o666 & ~umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, content: str) -> None:
    """Write the string `content` to `path` atomically (`_write_atomic`)."""
    _write_atomic(path, (content,))


def _floats(values) -> list:
    """The array `values` as (nested) lists of the Python floats `float` makes
    of its entries, in one conversion instead of one call per entry."""
    return np.asarray(values, dtype=float).tolist()


# json.dumps's encoder, except that it refuses the NaN and Infinity tokens the readers refuse.
_RECORD_ENCODER = json.JSONEncoder(allow_nan=False)


def _float_rows(X: np.ndarray) -> list[str]:
    """The entries of each row of the finite (N, d) float array `X` as json
    writes them, joined by ", ".

    orjson writes the shortest decimal that rounds to each entry, as
    `float.__repr__` does, and writes it as json does inside [1e-4, 1e16) and
    at ±0.0. Outside it orjson writes `0.00001` and `1e16` where json writes
    `1e-05` and `1e+16`, and such an entry takes `float.__repr__`. Numbers
    hold no commas, so each comma of orjson's text gets the space json writes
    after it."""
    if not len(X):
        return []
    X = np.ascontiguousarray(X, dtype=float)
    text = orjson.dumps(X, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].replace(b",", b", ")
    rows = text.decode("ascii").split("], [")
    a = np.abs(X)
    ks, js = np.nonzero(((a < 1e-4) & (a != 0)) | (a >= 1e16))
    odd = zip(ks.tolist(), js.tolist(), X[ks, js].tolist())
    for k, entries in groupby(odd, key=itemgetter(0)):  # row by row, as nonzero lists them
        tokens = rows[k].split(", ")
        for _, j, x in entries:
            tokens[j] = repr(x)
        rows[k] = ", ".join(tokens)
    return rows


def _stacked(vectors: list) -> np.ndarray | None:
    """The vectors as the rows of one finite float array, or None when they are
    not 1-D vectors of one width or an entry is not finite."""
    try:
        X = np.array(vectors, dtype=float)
    except (OverflowError, TypeError, ValueError):
        return None
    return X if X.ndim == 2 and np.isfinite(X).all() else None


# The feature vectors of a record of each kind: its key, and the modality whose width it shares.
_VECTOR_KEYS = {"text": (("features", "text"),), "image": (("features", "image"),),
                "pair": (("text_features", "text"), ("image_features", "image"))}


def _records(corpora: Corpora):
    """The records of the dataset file of `corpora`, each as (kind, id, feature
    vectors in `_VECTOR_KEYS` order, label key, label or None)."""
    for kind, examples in (("text", corpora.texts), ("image", corpora.images)):
        for ex in examples:
            yield kind, ex.id, (ex.features,), "label" if is_sign(ex.label) else "class", ex.label
    for k, pair in enumerate(corpora.pairs):
        yield "pair", f"p{k}", (pair.text_features, pair.image_features), "class", pair.class_id


def _record_dict(record: tuple) -> dict:
    kind, rid, vectors, label_key, label = record
    rec = {"kind": kind, "id": rid}
    rec.update((key, _floats(v)) for (key, _), v in zip(_VECTOR_KEYS[kind], vectors))
    if label is not None:
        rec[label_key] = label
    return rec


def _json_record(record: tuple) -> str:
    """`json.dumps` of the record; a non-finite feature raises ValueError
    naming its kind and id."""
    rec = _record_dict(record)
    try:
        return _RECORD_ENCODER.encode(rec)
    except ValueError as exc:
        raise ValueError(f"{rec['kind']} {rec['id']!r}: {exc}") from exc


def _templated_records(records: list) -> list[str] | None:
    """`json.dumps` of each of `records`, their floats from one `_float_rows`
    call per modality; None where `_json_record` must write them: when a
    modality's vectors do not stack (`_stacked`), or an id or label does not
    encode."""
    vectors = {"text": [], "image": []}
    for kind, _, vs, _, _ in records:
        for (_, modality), v in zip(_VECTOR_KEYS[kind], vs):
            vectors[modality].append(v)
    arrays = {m: _stacked(vs) for m, vs in vectors.items() if vs}
    if any(X is None for X in arrays.values()):
        return None
    rows = {m: iter(_float_rows(X)) for m, X in arrays.items()}
    encode, texts = _RECORD_ENCODER.encode, []
    try:
        for kind, rid, _, label_key, label in records:
            text = f'{{"kind": "{kind}", "id": {encode(rid)}'
            for key, modality in _VECTOR_KEYS[kind]:
                text += f', "{key}": [{next(rows[modality])}]'
            if label is not None:
                text += f', "{label_key}": {encode(label)}'
            texts.append(text + "}")
    except ValueError:
        return None
    return texts


def _dataset_lines(corpora: Corpora):
    """The text of the dataset file of `corpora`, `_BLOCK` lines at a time:
    each line is `json.dumps` of its record and a newline. A non-finite
    feature raises ValueError naming the record's kind and id."""
    records = _records(corpora)
    while block := list(islice(records, _BLOCK)):
        # No name holds a block's lines while the next is formatted; "" ends the last line.
        yield "\n".join([*(_templated_records(block) or map(_json_record, block)), ""])


def serialize_dataset(corpora: Corpora) -> str:
    return "".join(_dataset_lines(corpora))


def write_dataset(corpora: Corpora, path: str) -> None:
    """Write the dataset file of `corpora` a block at a time, atomically."""
    _write_atomic(path, _dataset_lines(corpora))


def _parse_class(rec: dict) -> str | None:
    if "class" in rec and not isinstance(rec["class"], str):
        raise DataError("class must be a string")
    return rec.get("class")


def _parse_label(rec: dict):
    if "label" in rec:
        label = rec["label"]
        if not is_sign(label):
            raise DataError(f"label must be 1 or -1, got {label!r}")
        return label
    return _parse_class(rec)


def _finite(values, what: str) -> np.ndarray:
    """Float array of a list of JSON numbers; json reads 1e999 as inf, which the model refuses."""
    # numpy would read "1.5" and true as numbers and a nested array as a row.
    odd = set(map(type, values)) - {float, int}
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise DataError(f"{what} must hold numbers only, not {names}")
    try:
        arr = np.array(values, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"{what} must hold numbers: {exc}") from exc
    if not np.isfinite(arr).all():
        raise DataError(f"{what} holds a non-finite number")
    return arr


def _features(rec: dict, key: str, dims: dict[str, int], modality: str) -> np.ndarray:
    """The feature vector `key` of `rec`, as wide as `dims[modality]`; the
    first vector of a modality sets that width when `dims` has none."""
    if key not in rec:
        raise DataError(f"missing {key!r}")
    values = rec[key]
    if not isinstance(values, list) or not values:
        raise DataError(f"{key!r} must be a non-empty array of numbers")
    v = _finite(values, repr(key))
    dim = dims.setdefault(modality, v.shape[0])
    if v.shape[0] != dim:
        raise DataError(f"{modality} feature dimension {v.shape[0]} != expected {dim}")
    return v


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# The deepest nesting of arrays and objects that orjson decodes. `_DECODER`
# recurses and fails near the recursion limit; orjson reads past it, and deep
# enough nesting overflows its stack.
_MAX_DEPTH = 64
_NOT_MARK = bytes(sorted(set(range(256)) - set(b'"[]{}')))
_STEPS = np.zeros(256, dtype=np.int64)
_STEPS[list(b"[{")] = 1
_STEPS[list(b"]}")] = -1


def _nests_within(data: bytes, depth: int) -> bool:
    """Whether the brackets outside the strings of the JSON text `data` nest at
    most `depth` deep. On text that is not JSON, the count holds up to where a
    parser refuses it."""
    # Each array or object opens with a bracket, in a string or not.
    if data.count(b"[") + data.count(b"{") <= depth:
        return True
    if b"\\" in data:  # drop escaped backslashes, then escaped quotes
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    # The quotes left delimit the strings.
    marks = np.frombuffer(data.translate(None, _NOT_MARK), np.uint8)
    steps = _STEPS[marks]
    steps[np.cumsum(marks == ord('"')) % 2 == 1] = 0
    return int(np.cumsum(steps).max()) <= depth


def _decode(raw: bytes | str):
    """The JSON document `raw` as `_DECODER` reads it, bytes as UTF-8.

    orjson decodes `raw` when it nests at most `_MAX_DEPTH` deep, and its
    result is returned when it accepts `raw`: both decoders then read the same
    values, with decimals rounded to the same doubles, except that orjson
    reads an integer outside [-2**63, 2**64) as the nearest double, not an int.
    Every other document, and so every refusal, goes to `_DECODER`."""
    data = raw.encode("utf-8", "surrogatepass") if isinstance(raw, str) else raw
    if _nests_within(data, _MAX_DEPTH):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return _DECODER.decode(raw if isinstance(raw, str) else raw.decode("utf-8"))


def loads_object(raw: bytes | str, what: str) -> dict:
    """The JSON object `raw`, bytes read as UTF-8. Every decode failure (bad JSON or UTF-8,
    NaN or Infinity, an integer int() refuses, deep nesting) is a DataError naming `what`."""
    try:
        doc = _decode(raw)
    except (RecursionError, ValueError) as exc:
        raise DataError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{what} must be a JSON object")
    return doc


def _blocks(path: str):
    """The non-blank lines of `path` with their line numbers, `_BLOCK` at a time."""
    block = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                block.append((lineno, line))
                if len(block) == _BLOCK:
                    yield block
                    block = []
    if block:
        yield block


def _rows_array(rows: list, width: int | None) -> np.ndarray | None:
    """The feature vectors `rows` as one (len(rows), width) float array, when
    each would pass `_features` at `width` (the first row's, if None); else None."""
    if set(map(type, rows)) != {list}:
        return None
    if width is None:
        width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    # The same element types `_finite` allows, scanned once for the block.
    if not set(map(type, chain.from_iterable(rows))) <= {float, int}:
        return None
    try:
        arr = np.array(rows, dtype=float)
    except (OverflowError, TypeError, ValueError):
        return None
    return arr if np.isfinite(arr).all() else None


def _new_kind(rec: dict, seen_ids: dict[str, set]) -> str:
    """The kind of a dataset record, whose string id, new for that kind, joins `seen_ids`."""
    kind = rec.get("kind")
    if kind not in ("text", "image", "pair"):
        raise DataError(f"unknown kind {kind!r}")
    rid = rec.get("id")
    if not isinstance(rid, str):
        raise DataError("missing string id")
    if rid in seen_ids[kind]:
        raise DataError(f"duplicate {kind} id {rid!r}")
    seen_ids[kind].add(rid)
    return kind


def _vectors(records: list, dims: dict[str, int], where) -> dict:
    """Iterators over the feature vectors of `records`, (tag, record, kind) in
    file order, one per modality. They are checked as one `_rows_array` per
    modality; when that fails, `_features` checks each in file order, and the
    first error it raises is prefixed by `where(tag)`."""
    rows = {"text": [], "image": []}
    for _, rec, kind in records:
        for key, modality in _VECTOR_KEYS[kind]:
            rows[modality].append(rec.get(key))
    arrays = {m: _rows_array(r, dims.get(m)) for m, r in rows.items() if r}
    if any(a is None for a in arrays.values()):
        arrays = {m: [] for m in arrays}
        for tag, rec, kind in records:
            for key, modality in _VECTOR_KEYS[kind]:
                try:
                    arrays[modality].append(_features(rec, key, dims, modality))
                except DataError as exc:
                    raise DataError(f"{where(tag)}: {exc}") from exc
    for m, a in arrays.items():
        dims.setdefault(m, len(a[0]))
    return {m: iter(a) for m, a in arrays.items()}


def parse_dataset(path: str) -> Corpora:
    """Parse and validate a dataset file; errors carry the offending line number.

    Each line is decoded and its record checked once. The feature vectors are
    checked a block at a time (`_vectors`), and those before a failing record
    check are checked first, so the first error is the one a record-by-record
    read meets, with the same message and line."""
    corpora = Corpora()
    dims: dict[str, int] = {}
    seen_ids: dict[str, set] = {"text": set(), "image": set(), "pair": set()}

    def where(lineno):
        return f"{path}:{lineno}"

    for block in _blocks(path):
        records, labels = [], []  # (lineno, record, kind), and its label or class
        for lineno, line in block:
            try:
                rec = loads_object(line, "record")
                kind = _new_kind(rec, seen_ids)
                records.append((lineno, rec, kind))
                labels.append(_parse_class(rec) if kind == "pair" else _parse_label(rec))
            except DataError as exc:
                _vectors(records, dims, where)
                raise DataError(f"{where(lineno)}: {exc}") from exc
        vectors = _vectors(records, dims, where)
        for (_, rec, kind), label in zip(records, labels):
            if kind == "pair":
                corpora.pairs.append(
                    CooccurrencePair(next(vectors["text"]), next(vectors["image"]), class_id=label))
            else:
                ex = CorpusExample(rec["id"], next(vectors[kind]), label)
                (corpora.texts if kind == "text" else corpora.images).append(ex)
    return corpora


# Prediction files -------------------------------------------------------------

@dataclass
class Predictions:
    """The records of a prediction file, in file order. Binary records give
    each image a score and a +1/-1 label; zero-shot records give it one score
    per class, the columns of an (N, B) table in the first record's order."""

    ids: list[str]
    scores: np.ndarray
    labels: np.ndarray | None = None
    classes: list[str] | None = None


def write_predictions(path: str, ids: list[str], scores, classes: list[str] | None = None) -> None:
    """Write the scores of the images `ids`: an (N,) binary score vector, each
    with its `score_labels` label, or, given `classes`, distinct names, an
    (N, B) zero-shot table with one column per class.

    Each line is `json.dumps` of its record, built from a template around the
    tokens json writes for the id, the class names and the floats
    (`_float_rows`). A non-finite score, which `read_predictions` refuses,
    raises json's ValueError naming its image, and nothing is written."""
    width = 1 if classes is None else len(classes)
    flat = np.asarray(scores, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        try:
            _RECORD_ENCODER.encode(float(flat[bad[0]]))
        except ValueError as exc:
            raise ValueError(f"image {ids[bad[0] // width]!r}: {exc}") from exc
    tokens = _float_rows(flat[:, None])
    id_tokens = map(_json_str, ids)
    if classes is None:
        lines = map('{"id": %s, "score": %s, "label": %s}\n'.__mod__,
                    zip(id_tokens, tokens, score_labels(scores).tolist()))
    else:
        keys = ", ".join(_json_str(c).replace("%", "%%") + ": %s" for c in classes)
        template = '{"id": %s, "scores": {' + keys + '}}\n'
        rows = (tokens[k * width:(k + 1) * width] for k in range(len(scores)))
        lines = (template % (i, *row) for i, row in zip(id_tokens, rows))
    atomic_write_text(path, "".join(lines))


def _finite_number(value, what: str) -> float:
    # json reads 1e999 as inf, and a 400-digit integer as an int no float holds.
    if type(value) not in (int, float) or not abs(value) <= _FLOAT_MAX:
        raise DataError(f"{what} must be a finite number")
    return float(value)


def read_predictions(path: str) -> Predictions:
    """Parse and validate a prediction file. Each record has a unique string
    id and, in the mode of the first record, either a finite score and a
    +1/-1 label, or finite scores over the first record's classes."""
    ids: dict[str, None] = {}  # ordered, for the duplicate check
    rows: list = []
    labels: list[int] = []
    classes: list[str] | None = None  # set by a zero-shot first record

    def take(rec):
        nonlocal classes
        if not isinstance(rec.get("id"), str):
            raise DataError("missing string id")
        if classes is not None or (not ids and "scores" in rec):
            table = rec.get("scores")
            if not isinstance(table, dict) or not table:
                raise DataError("'scores' must be a non-empty object")
            classes = classes or list(table)
            if table.keys() != set(classes):
                raise DataError(
                    f"classes {sorted(table)} differ from the first record's {sorted(classes)}"
                )
            row = {c: _finite_number(v, f"score of class {c!r}") for c, v in table.items()}
            rows.append([row[c] for c in classes])
        else:
            rows.append(_finite_number(rec.get("score"), "'score'"))
            if not is_sign(rec.get("label")):
                raise DataError("'label' must be 1 or -1")
            labels.append(rec["label"])
        if rec["id"] in ids:
            raise DataError(f"duplicate id {rec['id']!r}")
        ids[rec["id"]] = None

    for block in _blocks(path):
        for lineno, line in block:
            try:
                take(loads_object(line, "prediction"))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if classes is None:
        return Predictions(list(ids), np.array(rows, dtype=float), np.array(labels, dtype=int))
    return Predictions(list(ids), np.array(rows), classes=classes)


# Model files ------------------------------------------------------------------

def _hyper_from_dict(d: dict) -> Hyperparameters:
    kernel = d.get("kernel", {})
    return Hyperparameters(
        gamma=d["gamma"],
        lam=d["lambda"],
        C=d["C"],
        kernel=KernelSpec(kind=kernel["kind"], bandwidth=kernel["bandwidth"]),
        max_iter=d["max_iter"],
        tol=d["tol"],
        normalize=d.get("normalize", False),
    )


def serialize_model(model: TrainedModel, unseen_classes: list[str] | None = None) -> str:
    """The model file of `model`; a zero-shot model when `unseen_classes` is
    non-empty, a binary one otherwise. It is `json.dumps` of the model's
    document, its floats from `_float_rows`. A non-finite number, which
    `read_model` refuses, sends it to json, whose ValueError is raised naming
    its field, or its example's corpus and id."""
    p, q = model.S.shape
    vectors = {"S": model.S.ravel(), "alpha": model.alpha}
    records = {"source_texts": list(_records(Corpora(texts=model.source_texts))),
               "train_images": list(_records(Corpora(images=model.train_images)))}
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": "zeroshot" if unseen_classes else "binary",
        "p": p,
        "q": q,
        "S": None,
        "alpha": None,
        "kernel": asdict(model.kernel),
        "source_texts": None,
        "train_images": None,
        "hyper": {"lambda" if k == "lam" else k: v for k, v in asdict(model.hyper).items()},
        "final_objective": model.final_objective,
        "unseen_classes": unseen_classes or [],
    }
    # The JSON text of each array field: a list of its items' texts.
    arrays = {key: _stacked([v]) for key, v in vectors.items()}
    items = {key: _templated_records(recs) for key, recs in records.items()}
    if all(x is not None for x in chain(arrays.values(), items.values())):
        items.update((key, _float_rows(X)) for key, X in arrays.items())
        try:
            return "{" + ", ".join(
                f'"{k}": ' + ("[" + ", ".join(items[k]) + "]" if k in items
                              else _RECORD_ENCODER.encode(v))
                for k, v in doc.items()) + "}"
        except ValueError:
            pass  # json's ValueError below names the field
    doc.update((key, _floats(v)) for key, v in vectors.items())
    doc.update((key, list(map(_record_dict, recs))) for key, recs in records.items())
    try:
        return _RECORD_ENCODER.encode(doc)
    except ValueError as exc:
        examples = ((f"{key} {rec['id']!r}", rec)
                    for key in ("source_texts", "train_images") for rec in doc[key])
        for name, value in chain(examples, doc.items()):
            try:
                _RECORD_ENCODER.encode(value)
            except ValueError:
                raise ValueError(f"{name}: {exc}") from exc
        raise


def write_model(model, path, unseen_classes=None) -> None:
    atomic_write_text(path, serialize_model(model, unseen_classes))


def _model_examples(doc: dict, key: str, dims: dict, binary: bool) -> list[CorpusExample]:
    """The embedded corpus `key` of a model file, each record checked as
    `parse_dataset` checks one and its errors prefixed by its id; a binary
    model's labels must be +1/-1."""
    kind = "text" if key == "source_texts" else "image"
    records, labels = [], []  # (id, record, kind), and its label or class

    def where(rid):
        return f"{key} {rid!r}"

    try:
        for rec in doc[key]:
            if not isinstance(rec.get("id"), str):
                raise DataError(f"{key} record without a string id")
            records.append((rec["id"], rec, kind))
            try:
                label = _parse_label(rec)
                if binary and not is_sign(label):
                    raise DataError(f"label {label!r} in a binary model, which needs +1/-1")
            except DataError as exc:
                raise DataError(f"{where(rec['id'])}: {exc}") from exc
            labels.append(label)
    except (AttributeError, DataError):  # a record that is not an object has no .get
        _vectors(records, dims, where)
        raise
    vectors = _vectors(records, dims, where).get(kind, ())
    return [CorpusExample(rid, x, label) for (rid, _, _), x, label in zip(records, vectors, labels)]


def parse_model(text: bytes | str) -> tuple[TrainedModel, str, list[str]]:
    """Returns (model, mode, unseen_classes). Raises DataError on bad input."""
    doc = loads_object(text, "model file")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format_version {version!r}; "
                        f"this build reads version {MODEL_FORMAT_VERSION}")
    mode = doc.get("mode", "binary")
    unseen = doc.get("unseen_classes", [])
    final = doc.get("final_objective")
    try:
        if mode not in ("binary", "zeroshot"):
            raise DataError(f"unknown mode {mode!r}")
        if not (isinstance(unseen, list) and all(isinstance(c, str) for c in unseen)
                and len(set(unseen)) == len(unseen)):
            raise DataError("unseen_classes must be a list of distinct strings")
        binary = mode == "binary"
        if binary and unseen:
            raise DataError("binary model lists unseen classes")
        if not binary and not unseen:
            raise DataError("zero-shot model lists no unseen classes")
        p, q = doc["p"], doc["q"]
        for name, value in (("p", p), ("q", q)):
            if type(value) is not int or value < 0:
                raise DataError(f"{name} must be a non-negative integer, got {value!r}")
        S = _finite(doc["S"], "S")
        if S.size != p * q:
            raise DataError(f"S has {S.size} entries, expected {p * q}")
        kernel = KernelSpec(kind=doc["kernel"]["kind"], bandwidth=doc["kernel"]["bandwidth"])
        model = TrainedModel(
            S=S.reshape(p, q),
            alpha=_finite(doc["alpha"], "alpha"),
            source_texts=_model_examples(doc, "source_texts", {"text": p}, binary),
            train_images=_model_examples(doc, "train_images", {"image": q}, binary),
            kernel=kernel,
            hyper=_hyper_from_dict(doc["hyper"]),
            final_objective=None if final is None else _finite_number(final, "final_objective"),
        )
        # Only binary scoring uses the kernel; zero-shot models leave it unresolved.
        if binary and model.train_images and kernel == KernelSpec("gaussian", None):
            raise DataError("binary model with training images has a null gaussian bandwidth")
        if not binary:
            check_unseen_texts(model.source_texts, unseen)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model file: {exc}") from exc
    return model, mode, unseen


def read_model(path: str):
    try:
        with open(path, "rb") as fh:
            return parse_model(fh.read())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
