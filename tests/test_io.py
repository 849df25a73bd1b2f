import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rboost import (
    CsvSchema,
    Dataset,
    Ensemble,
    TrainConfig,
    TreeLearnerSpec,
    load_csv,
    load_model,
    save_model,
    write_csv,
)
from rboost.boosters import train_rboosting
from rboost.core import Stage
from rboost.io import (
    _depth,
    _learner_from_dict,
    _delimited_cell,
    _learner_to_dict,
    emit_delimited,
    format_aligned,
    load_csv_pair,
    load_feature_matrix,
    read_delimited,
    write_columns,
    write_manifest,
)
from rboost.learners import RegressionTree, fit_tree
from trained_models import models_and_queries


class TestLoadCsv:
    def test_default_schema(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path)
        assert (ds.m, ds.d) == (3, 2)
        assert ds.targets.tolist() == [3.0, 6.0, 9.0]
        assert ds.features[:, 0].tolist() == [1.0, 4.0, 7.0]

    def test_headerless_target_first_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,10\n2,20\n")
        ds = load_csv(path, CsvSchema(has_header=False, target_column=0))
        assert ds.targets.tolist() == [1.0, 2.0]
        assert ds.features[:, 0].tolist() == [10.0, 20.0]

    def test_named_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,x\n1,2\n3,4\n")
        ds = load_csv(path, CsvSchema(target_column="y"))
        assert ds.targets.tolist() == [1.0, 3.0]

    def test_nan_rejected_with_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\nNaN,4\n")
        with pytest.raises(ValueError, match="line 3.*column a"):
            load_csv(path)

    def test_parse_error_names_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3.*column y"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_trailing_blank_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n3,4\n\n")
        ds = load_csv(path)
        assert ds.targets.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("one", ["1", '"1"'])  # plain cells take the fast parse, a quoted one the per-cell path
    def test_blank_rows_skipped_anywhere(self, tmp_path, one):
        path = tmp_path / "data.csv"
        path.write_bytes(f"\r\na,y\n\n{one},2\r\n\r\n3,4\n\n".encode())
        ds = load_csv(path)
        assert ds.features[:, 0].tolist() == [1.0, 3.0]
        assert ds.targets.tolist() == [2.0, 4.0]

    def test_errors_count_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 4.*column y"):
            load_csv(path)

    def test_whitespace_only_line_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,y\n1,2\n  \n3,4\n")
        with pytest.raises(ValueError, match="line 3: has 1 fields"):
            load_csv(path)

    def test_errors_name_the_file_line_after_a_multiline_record(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text('a,y\n"1\n",2\n3,oops\n')
        with pytest.raises(ValueError, match="line 4.*column y"):
            load_csv(path)
        path.write_text('a,y\n1,2\n"x\n",2\n')
        with pytest.raises(ValueError, match="line 3.*column a"):
            load_csv(path)

    @pytest.mark.parametrize("one", ["1", '"1"'])  # both parse paths apply the csv field size limit alike
    def test_field_over_the_size_limit_is_a_value_error(self, tmp_path, one):
        path = tmp_path / "data.csv"
        long_cell = "0." + "0" * csv.field_size_limit() + "1"
        path.write_text(f"a,y\n{one},{long_cell}\n3,4\n")
        with pytest.raises(ValueError, match="line 2: field larger than field limit"):
            load_csv(path)

    @pytest.mark.parametrize("one", ["1", '"1"'])
    def test_byte_order_mark_dropped(self, tmp_path, one):
        path = tmp_path / "data.csv"
        path.write_text(f"a,y\n{one},2\n3,4\n", encoding="utf-8-sig")
        ds = load_csv(path, CsvSchema(target_column="a"))
        assert ds.targets.tolist() == [1.0, 3.0]
        assert ds.features[:, 0].tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("one", ["1", '"1"'])
    def test_byte_order_mark_before_headerless_cell(self, tmp_path, one):
        path = tmp_path / "data.csv"
        path.write_text(f"{one},2\n3,4\n", encoding="utf-8-sig")
        ds = load_csv(path, CsvSchema(has_header=False))
        assert ds.features[:, 0].tolist() == [1.0, 3.0]
        assert ds.targets.tolist() == [2.0, 4.0]

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target column"):
            load_csv(path, CsvSchema(target_column="z"))
        with pytest.raises(ValueError, match="out of range"):
            load_csv(path, CsvSchema(target_column=5))

    def test_tab_delimiter(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a\ty\n1\t2\n")
        ds = load_csv(path, CsvSchema(delimiter="\t"))
        assert ds.targets.tolist() == [2.0]

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            CsvSchema(delimiter=",,")
        with pytest.raises(ValueError):
            CsvSchema(has_header=False, target_column="y")
        with pytest.raises(ValueError, match="line end"):
            CsvSchema(delimiter="\n")

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(71)
        ds = Dataset(rng.standard_normal((20, 3)), rng.standard_normal(20) * 1e6)
        path = tmp_path / "round.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)  # repr round-trips exactly
        assert np.array_equal(back.targets, ds.targets)

    def test_a_one_column_file_is_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y\n1\n2\n")
        with pytest.raises(ValueError, match="need at least one feature column and one target column"):
            load_csv(path)

    def test_write_csv_needs_one_name_per_feature(self, tmp_path):
        ds = Dataset(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="need 3 feature names, got 2"):
            write_csv(ds, tmp_path / "out.csv", feature_names=["a", "b"])


class TestLoadCsvPair:
    def test_test_columns_are_matched_to_train_by_name(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("a,b,c,y\n1,2,3,4\n5,6,7,8\n")
        test.write_text("c,y,a,b\n30,40,10,20\n")
        train_ds, test_ds = load_csv_pair(train, test)
        assert train_ds.features.tolist() == [[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]]
        assert test_ds.features.tolist() == [[10.0, 20.0, 30.0]] and test_ds.targets.tolist() == [40.0]

    def test_the_target_rule_reads_train_order(self, tmp_path):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text("a,y,b\n1,2,3\n")
        test.write_text("b,a,y\n30,10,20\n")
        for target in (1, "y"):
            _, test_ds = load_csv_pair(train, test, CsvSchema(target_column=target))
            assert test_ds.features.tolist() == [[10.0, 30.0]] and test_ds.targets.tolist() == [20.0]

    @pytest.mark.parametrize(
        "train_header, test_header, message",
        [
            ("a,b,y", "a,y,q", r"test\.csv: no column 'b', which .*train\.csv has"),
            ("a,b,y", "b,a,y,q", r"test\.csv: column 'q' is not in .*train\.csv"),
            ("a,a,y", "a,a,y", r"train\.csv: column 'a' appears more than once"),
            ("a,b,y", "a,b,b,y", r"test\.csv: column 'b' appears more than once"),
        ],
        ids=["missing", "extra", "repeated_in_train", "repeated_in_test"],
    )
    def test_unmatched_names_are_rejected_by_name(self, tmp_path, train_header, test_header, message):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text(train_header + "\n" + ",".join(["1"] * len(train_header.split(","))) + "\n")
        test.write_text(test_header + "\n" + ",".join(["1"] * len(test_header.split(","))) + "\n")
        with pytest.raises(ValueError, match=message):
            load_csv_pair(train, test)

    def test_headerless_files_match_by_position_and_must_agree_in_count(self, tmp_path):
        train, test, short = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "short.csv"
        train.write_text("1,2,3\n4,5,6\n")
        test.write_text("7,8,9\n")
        short.write_text("7,8\n")
        schema = CsvSchema(has_header=False)
        _, test_ds = load_csv_pair(train, test, schema)
        assert test_ds.features.tolist() == [[7.0, 8.0]] and test_ds.targets.tolist() == [9.0]
        with pytest.raises(ValueError, match=r"short\.csv has 2 columns, .*train\.csv has 3"):
            load_csv_pair(train, short, schema)


class TestFeatureMatrix:
    def test_loads_all_columns(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        mat = load_feature_matrix(path)
        assert mat.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestModelPersistence:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(72)
        X = rng.uniform(-2, 2, (60, 2))
        y = X[:, 0] - X[:, 1] ** 2 + 0.1 * rng.standard_normal(60)
        data = Dataset(X, y)
        model, _ = train_rboosting(data, TrainConfig("rboosting", 7, TreeLearnerSpec(2), u=3))
        path = tmp_path / "model.json"
        save_model(model, path, {"algorithm": "rboosting", "u": 3})
        clone, meta = load_model(path)
        assert meta["u"] == 3
        grid = rng.uniform(-2, 2, (40, 2))
        assert np.array_equal(clone.predict(grid), model.predict(grid))
        assert clone.l1_norm() == pytest.approx(model.l1_norm(), rel=1e-15)

    def test_document_is_versioned_json(self, tmp_path):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        model, _ = train_rboosting(data, TrainConfig("rboosting", 1, TreeLearnerSpec(1), u=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "rboost-model"
        assert doc["version"] == 1
        assert doc["offset"] == 0.0  # v1 files carry the key; a model always starts from 0
        stage = doc["stages"][0]
        assert {"alpha", "beta", "learner"} <= set(stage)
        assert stage["learner"]["type"] == "scaled_tree"

    def test_a_bare_v1_tree_loads_at_scale_one_and_is_resaved_as_a_scaled_tree(self, tmp_path):
        # A v1 learner may be a bare tree; one of its leaves here holds -0.0.
        root = {"feature": 0, "threshold": 0.5, "left": {"value": -0.0}, "right": {"value": 2.5}}
        bare = {"type": "tree", "tree": {"n_splits": 1, "n_features": 1, "root": root}}
        doc = {"format": "rboost-model", "version": 1, "meta": {}, "offset": 0.0,
               "stages": [{"alpha": 1.0, "beta": 0.75, "learner": bare}]}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        model, meta = load_model(path)
        tree = model.stages[0].learner
        assert tree.scale == 1.0
        Q = np.array([[0.0], [0.5], [1.0], [np.nan]])
        assert tree.predict(Q).tobytes() == np.array([-0.0, -0.0, 2.5, 2.5]).tobytes()
        save_model(model, path, meta)
        resaved = json.loads(path.read_text())["stages"][0]["learner"]
        assert resaved == {"type": "scaled_tree", "scale": 1.0, "tree": bare["tree"]}
        assert '"value": -0.0' in path.read_text()
        clone = load_model(path)[0]
        assert clone.stages[0].learner.predict(Q).tobytes() == tree.predict(Q).tobytes()
        assert clone.predict(Q).tobytes() == model.predict(Q).tobytes()

    def test_rejects_an_unknown_learner_type(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["stages"][1]["learner"]["type"] = "stump"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="stage 1 is malformed: unknown learner type 'stump'"):
            load_model(path)

    def test_save_rejects_a_learner_that_is_not_a_tree(self, tmp_path):
        model = Ensemble([Stage(0.0, 1.0, object())])
        with pytest.raises(ValueError, match="cannot persist learner of type object"):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_an_unsupported_version(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="future.json: unsupported version 99"):
            load_model(path)


def _saved_doc(tmp_path):
    rng = np.random.default_rng(73)
    X = rng.uniform(-2, 2, (30, 2))
    model, _ = train_rboosting(Dataset(X, X[:, 0] - X[:, 1]), TrainConfig("rboosting", 3, TreeLearnerSpec(2), u=3))
    save_model(model, tmp_path / "model.json")
    return json.loads((tmp_path / "model.json").read_text())


def _first_leaf(node):
    while "value" not in node:
        node = node["left"]
    return node


class TestLoadModelValidation:
    """A hand-edited model file fails on load with the stage and field named, never inside predict."""

    def _load(self, tmp_path, doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return load_model(path)

    def test_missing_stages(self, tmp_path):
        doc = _saved_doc(tmp_path)
        del doc["stages"]
        with pytest.raises(ValueError, match="'stages'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("field", ["alpha", "beta", "learner"])
    def test_missing_stage_field(self, tmp_path, field):
        doc = _saved_doc(tmp_path)
        del doc["stages"][1][field]
        with pytest.raises(ValueError, match=f"stage 1 is missing field '{field}'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("field", ["scale", "tree", "type"])
    def test_missing_learner_field(self, tmp_path, field):
        doc = _saved_doc(tmp_path)
        del doc["stages"][2]["learner"][field]
        with pytest.raises(ValueError, match=f"stage 2 is missing field '{field}'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("field", ["threshold", "right"])
    def test_missing_node_field(self, tmp_path, field):
        doc = _saved_doc(tmp_path)
        del doc["stages"][0]["learner"]["tree"]["root"][field]
        with pytest.raises(ValueError, match=f"stage 0 is missing field '{field}'"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["alpha", "beta", "scale", "threshold", "value"])
    def test_non_finite_number(self, tmp_path, field, bad):
        doc = _saved_doc(tmp_path)
        stage = doc["stages"][1]
        root = stage["learner"]["tree"]["root"]
        target = {"alpha": stage, "beta": stage, "scale": stage["learner"], "threshold": root,
                  "value": _first_leaf(root)}[field]
        target[field] = bad
        with pytest.raises(ValueError, match=f"stage 1 has a non-finite {field}"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("offset", [0.5, float("nan")])
    def test_nonzero_offset(self, tmp_path, offset):
        doc = _saved_doc(tmp_path)
        doc["offset"] = offset
        with pytest.raises(ValueError, match="offset"):
            self._load(tmp_path, doc)


    def test_stages_of_the_wrong_type(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["stages"] = [1]
        with pytest.raises(ValueError, match="stage 0 is malformed"):
            self._load(tmp_path, doc)

    def test_stages_not_an_array(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["stages"] = {"a": 1}
        with pytest.raises(ValueError, match="'stages' is not a JSON array"):
            self._load(tmp_path, doc)

    def test_alpha_stored_as_a_string(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["stages"][1]["alpha"] = "abc"
        with pytest.raises(ValueError, match="stage 1 is malformed"):
            self._load(tmp_path, doc)

    def test_leaf_value_stored_as_a_string(self, tmp_path):
        doc = _saved_doc(tmp_path)
        _first_leaf(doc["stages"][1]["learner"]["tree"]["root"])["value"] = "abc"
        with pytest.raises(ValueError, match="stage 1 is malformed"):
            self._load(tmp_path, doc)

    def test_scale_stored_as_an_array(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["stages"][2]["learner"]["scale"] = [1]
        with pytest.raises(ValueError, match="stage 2 is malformed"):
            self._load(tmp_path, doc)

    def test_top_level_not_an_object(self, tmp_path):
        with pytest.raises(ValueError, match="not a JSON object"):
            self._load(tmp_path, [])

    def test_meta_not_an_object(self, tmp_path):
        doc = _saved_doc(tmp_path)
        doc["meta"] = [1]
        with pytest.raises(ValueError, match="'meta' is not a JSON object"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("bound", ["abc", [1], True, 0, -1.5, float("nan"), 10**400], ids=lambda b: repr(b)[:8])
    def test_clip_bound_not_a_positive_number(self, tmp_path, bound):
        doc = _saved_doc(tmp_path)
        doc["meta"]["clip_bound"] = bound
        with pytest.raises(ValueError, match=r"meta\.clip_bound: (clip bound must be|int too large)"):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize("bound", [None, 2, 0.5, float("inf")])
    def test_clip_bound_null_or_positive_loads(self, tmp_path, bound):
        doc = _saved_doc(tmp_path)
        doc["meta"]["clip_bound"] = bound
        assert self._load(tmp_path, doc)[1] == {"clip_bound": bound}


@lru_cache(maxsize=None)
def _saved_text():
    with tempfile.TemporaryDirectory() as tmp:
        rng = np.random.default_rng(74)
        X = rng.uniform(-2, 2, (30, 2))
        model, _ = train_rboosting(Dataset(X, X[:, 0] * X[:, 1]), TrainConfig("rboosting", 2, TreeLearnerSpec(2), u=3))
        save_model(model, Path(tmp) / "model.json", {"algorithm": "rboosting", "u": 3, "clip_bound": None})
        return (Path(tmp) / "model.json").read_text()


def _paths(value, prefix=()):
    """Every path of keys and indices in a JSON document, the root () included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _json_type(value):
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_value_of_another_json_type_loads_or_raises_value_error(data):
    """Swap any one value of a saved model for one of another JSON type: load, or fail with ValueError."""
    doc = json.loads(_saved_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent, old = None, doc
    for key in path:
        parent, old = old, old[key]
    new = data.draw(_json_values.filter(lambda v: _json_type(v) != _json_type(old)))
    if parent is None:
        doc = new
    else:
        parent[path[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "edited.json"
        edited.write_text(json.dumps(doc))
        try:
            load_model(edited)
        except ValueError:
            pass


_DEEP_SPLITS = 1200


def _chain(n_splits):
    """A tree n_splits levels deep on one feature, numbered in pre-order.

    Split 2i sends x <= i to leaf 2i + 1, whose value is i + 0.5, and the
    rest on to node 2i + 2.
    """
    ids = np.arange(2 * n_splits + 1)
    split = (ids % 2 == 0) & (ids < 2 * n_splits)
    return RegressionTree(np.where(split, 0, -1), np.where(split, ids / 2, 0.0), np.where(split, ids + 1, -1),
                          np.where(split, ids + 2, -1), np.where(split, np.nan, ids / 2), 1)


def _v1_json(tree):
    return json.dumps(_learner_to_dict(tree), sort_keys=True)


class TestV1Form:
    """The nested v1 learner, which io alone writes and reads."""

    @settings(max_examples=40, deadline=None)
    @given(models_and_queries())
    def test_save_load_round_trip_is_bit_exact(self, case):
        model, Q = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(model, path, {"note": "round trip"})
            loaded, meta = load_model(path)
            text = path.read_text()
            save_model(loaded, path, meta)
            assert path.read_text() == text
        assert meta == {"note": "round trip"}
        assert loaded.predict(Q).tobytes() == model.predict(Q).tobytes()
        assert loaded.staged_predict(Q).tobytes() == model.staged_predict(Q).tobytes()
        for a, b in zip(model.stages, loaded.stages):
            assert _v1_json(b.learner) == _v1_json(a.learner)
            assert b.learner.scale == a.learner.scale
            assert b.learner.predict(Q).tobytes() == a.learner.predict(Q).tobytes()
            assert np.all(np.isnan(b.learner.value[b.learner.feature >= 0]))  # a split's value is not stored
        # the file is the sorted, 2-space-indented JSON of its own content
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_a_single_leaf_is_stored_as_its_value_with_the_scale_beside_it(self, tmp_path):
        tree = fit_tree(Dataset([[0.0], [1.0]], np.zeros(2)), [2.5, 2.5], 3)
        assert _depth(tree) == 0
        path = tmp_path / "model.json"
        for scale in (1.0, 0.5):
            tree.scale = scale
            save_model(Ensemble([Stage(1.0, 1.0, tree)]), path)
            learner = json.loads(path.read_text())["stages"][0]["learner"]
            # the scale is no part of the v1 tree
            assert learner == {"type": "scaled_tree", "scale": scale,
                               "tree": {"n_splits": 0, "n_features": 1, "root": {"value": 2.5}}}
            loaded = load_model(path)[0].stages[0].learner
            assert loaded.scale == scale and loaded.predict(np.array([[7.0], [np.nan]])).tolist() == [2.5 * scale] * 2

    @pytest.mark.parametrize("feature", [-1, 2])
    def test_a_split_on_a_missing_feature_is_rejected(self, tmp_path, feature):
        root = {"feature": feature, "threshold": 0.5, "left": {"value": 1.0}, "right": {"value": 2.0}}
        learner = {"type": "scaled_tree", "scale": 1.0, "tree": {"n_splits": 1, "n_features": 2, "root": root}}
        doc = {"format": "rboost-model", "version": 1, "meta": {}, "offset": 0.0,
               "stages": [{"alpha": 1.0, "beta": 1.0, "learner": learner}]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"stage 0 is malformed: split on feature {feature}, outside the tree's 2"):
            load_model(path)

    def test_a_deep_tree_converts_to_and_from_the_nested_form(self):
        # deeper than the recursion limit: the nested form is built and read without recursion
        tree = _chain(_DEEP_SPLITS)
        clone = _learner_from_dict(_learner_to_dict(tree))
        assert _depth(tree) == _depth(clone) == _DEEP_SPLITS
        assert (clone.n_splits, clone.n_features, clone.scale) == (_DEEP_SPLITS, 1, 1.0)
        for name in ("feature", "threshold", "left", "right", "value"):  # a chain's pre-order is its own order
            assert getattr(clone, name).tobytes() == getattr(tree, name).tobytes()
        X = np.arange(-1.0, _DEEP_SPLITS + 1)[:, None]
        assert clone.predict(X).tobytes() == tree.predict(X).tobytes()
        assert tree.predict(X)[[0, 1, _DEEP_SPLITS, -1]].tolist() == [0.5, 0.5, _DEEP_SPLITS - 0.5, _DEEP_SPLITS]

    def test_a_deep_tree_save_raises_a_clear_error_and_writes_nothing(self, tmp_path):
        model = Ensemble([Stage(1.0, 1.0, _chain(_DEEP_SPLITS))])
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"depth {_DEEP_SPLITS}"):
            save_model(model, path)
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=f"depth {_DEEP_SPLITS}"):
            save_model(model, path)
        assert path.read_text() == "kept\n"

    def test_over_nested_model_file_raises_a_clear_error(self, tmp_path):
        levels = 5000
        split = '{"feature": 0, "threshold": 0.5, "left": {"value": 1.0}, "right": '
        root = split * levels + '{"value": 0.0}' + "}" * levels
        tree = '{"n_splits": %d, "n_features": 1, "root": %s}' % (levels, root)
        stages = '[{"alpha": 1.0, "beta": 1.0, "learner": {"type": "tree", "tree": %s}}]' % tree
        # brackets inside a string do not count towards the nesting depth
        text = '{"format": "rboost-model", "version": 1, "meta": {"note": "[[{{\\\\"}, "offset": 0.0, "stages": %s}' % stages
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"nests {levels + 6} levels deep"):
            load_model(path)


class TestResultEmission:
    def test_delimited_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_delimited(path, ["u", "rmse"], [[1, 10], [0.5, 0.25]], manifest_name="manifest.json")
        text = path.read_text()
        assert text.startswith("# manifest: manifest.json\n# columns: u,rmse\n")
        columns, rows = read_delimited(path)
        assert columns == ["u", "rmse"]
        assert rows == [["1", "0.5"], ["10", "0.25"]]

    def test_text_cells_are_quoted_by_the_csv_rule_and_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        names = ["name", "v"]
        text = ["a,b", 'say "hi"', "two\nlines", "cr\rend", "plain", ""]
        emit_delimited(path, names, [text, [1, 2.5, 3, "x", 0.1, 4]], manifest_name="manifest.json")
        body = path.read_bytes().decode().split("\n", 3)[3]
        # only the cells holding a comma, a quote or a line end are quoted, quotes doubled inside
        assert body == '"a,b",1\n"say ""hi""",2.5\n"two\nlines",3\n"cr\rend",x\nplain,0.1\n,4\n'
        columns, rows = read_delimited(path)
        assert columns == names
        assert rows == [[t, v] for t, v in zip(text, ["1", "2.5", "3", "x", "0.1", "4"])]

    def test_a_quoted_cell_whose_second_line_starts_with_a_hash_round_trips(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_delimited(path, ["name", "v"], [["a\n#b", "ok"], [1, 2]], manifest_name="manifest.json")
        assert read_delimited(path) == (["name", "v"], [["a\n#b", "1"], ["ok", "2"]])

    def test_a_hash_line_after_the_header_is_data_and_keeps_its_file_line_number(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("# columns: a,b\n\n# note\na,b\n#x,1\n")
        assert read_delimited(path) == (["a", "b"], [["#x", "1"]])
        path.write_text("# columns: a,b\n\n# note\na,b\n#x,1\n#y\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 6 has 1 fields, the header 2"):
            read_delimited(path)

    @pytest.mark.parametrize("comment", ["", "# manifest: manifest.json\n"])
    def test_a_leading_byte_order_mark_is_dropped_as_load_csv_drops_it(self, tmp_path, comment):
        path = tmp_path / "rows.csv"
        path.write_text(comment + "a,b\n1,2\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_delimited(path) == (["a", "b"], [["1", "2"]])
        if not comment:  # the same file, read by name as a data table
            assert load_csv(path, CsvSchema(target_column="a")).targets.tolist() == [1.0]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_delimited(tmp_path / "rows.csv", ["a"], [])
        with pytest.raises(ValueError):
            emit_delimited(tmp_path / "rows.csv", ["a"], [[]])

    def test_read_rejects_a_file_of_comments_only(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("# manifest: manifest.json\n# columns: a,b\n\n")
        with pytest.raises(ValueError, match="rows.csv: no rows"):
            read_delimited(path)

    @pytest.mark.parametrize("columns", [[[1, 2], [3]], [[1, 2]], [[1], [2], [3]]])
    def test_rejects_columns_that_do_not_match_the_names_or_each_other(self, tmp_path, columns):
        path = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="one column per name"):
            emit_delimited(path, ["a", "b"], columns)
        assert not path.exists()

    def test_full_precision_cells(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        path = tmp_path / "rows.csv"
        emit_delimited(path, ["v"], [np.array([value])])
        _, rows = read_delimited(path)
        assert float(rows[0][0]) == value

    def test_a_float_array_renders_byte_equal_to_the_per_cell_renderer(self):
        special = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1 + 0.2]
        # more rows than one block, so a block boundary falls inside the column
        col = np.concatenate([np.random.default_rng(5).standard_normal(9000) * 1e-3, special])
        for columns in ([col], [col, np.arange(col.size)], [col.tolist(), col]):
            out = io.StringIO()
            write_columns(out, columns)
            rows = zip(*(map(_delimited_cell, c.tolist() if isinstance(c, np.ndarray) else c) for c in columns))
            assert out.getvalue() == "".join(",".join(row) + "\n" for row in rows)
        out = io.StringIO()
        write_columns(out, [np.array(special)])
        assert out.getvalue() == "-0.0\n5e-324\n1e+300\nnan\ninf\n-inf\n0.30000000000000004\n"

    def test_files_are_written_and_read_as_utf8_whatever_the_locale(self, tmp_path):
        script = tmp_path / "round_trip.py"  # a source file is read as UTF-8; a C-locale argv would not be
        script.write_text(textwrap.dedent("""\
            import json, locale, sys
            from rboost import CsvSchema, Dataset, load_csv, load_model, save_model, write_csv
            from rboost.core import Ensemble
            from rboost.io import emit_delimited, read_delimited
            assert sys.flags.utf8_mode == 0
            print(locale.getpreferredencoding(False))
            write_csv(Dataset([[1.5], [-0.25]], [2.0, 3.0]), "data.csv", feature_names=["débit"], target_name="qualité")
            back = load_csv("data.csv", CsvSchema(target_column="qualité"))
            assert back.features.tolist() == [[1.5], [-0.25]] and back.targets.tolist() == [2.0, 3.0]
            emit_delimited("rows.csv", ["débit"], [["été", "x"]], manifest_name="manifest.json")
            assert read_delimited("rows.csv") == (["débit"], [["été"], ["x"]])
            save_model(Ensemble([]), "model.json")
            doc = json.load(open("model.json"))  # ASCII: json escapes what is not
            doc["meta"] = {"note": "modèle"}
            open("model.json", "w", encoding="utf-8").write(json.dumps(doc, ensure_ascii=False))
            assert load_model("model.json")[1] == {"note": "modèle"}
            """), encoding="utf-8")
        src = str(Path(emit_delimited.__code__.co_filename).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
                              encoding="utf-8", timeout=120)
        assert done.returncode == 0, done.stderr
        assert "UTF" not in done.stdout.upper()  # the locale's encoding is not UTF-8, so only the code's choice counts
        assert (tmp_path / "data.csv").read_bytes() == "débit,qualité\n1.5,2.0\n-0.25,3.0\n".encode()

    def test_aligned_table(self):
        out = format_aligned(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = out.splitlines()
        assert lines[0].split() == ["name", "value"]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("a")
        assert lines[3].startswith("long-name")

    def test_manifest_written_sorted_and_stable(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, ("rboost", "simulate"), {"b": 2, "a": 1}, 7, ("results.csv",))
        write_manifest(p2, ("rboost", "simulate"), {"b": 2, "a": 1}, 7, ("results.csv",))
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["format"] == "rboost-manifest"
        assert doc["outputs"] == ["results.csv"]
        assert p1.read_text() == (
            '{\n  "command": [\n    "rboost",\n    "simulate"\n  ],\n  "config": {\n    "a": 1,\n    "b": 2\n  },\n'
            '  "format": "rboost-manifest",\n  "library_version": "0.1.0",\n  "outputs": [\n    "results.csv"\n  ],\n'
            '  "seed": 7,\n  "version": 1\n}\n'
        )
