import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcom.dataset import (
    Dataset,
    DatasetError,
    FeatureDictionaryEntry,
    Sample,
    filter_by_scope,
    load_dataset,
    load_dictionary,
    save_dataset,
    save_dictionary,
    split_feature,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_direct_parse(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(
            f, ['{"id":"s1","family":"Opfake","features":{"perm/INTERNET":1}}']
        )
        d = load_dataset(f)
        assert len(d) == 1
        s = d.samples[0]
        assert s.id == "s1"
        assert s.family == "Opfake"
        assert s.features == {"perm/INTERNET": 1.0}

    def test_duplicate_id_rejected(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(
            f,
            [
                '{"id":"s1","family":null,"features":{}}',
                '{"id":"s1","family":null,"features":{}}',
            ],
        )
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(f)

    def test_empty_feature_map_is_valid(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","family":null,"features":{}}'])
        d = load_dataset(f)
        assert d.samples[0].features == {}

    def test_zero_values_dropped(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{"perm/a":0,"perm/b":2}}'])
        d = load_dataset(f)
        assert d.samples[0].features == {"perm/b": 2.0}

    def test_malformed_line_reports_line_number(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{}}', "{oops"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(f)

    def test_negative_value_rejected(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{"perm/a":-1}}'])
        with pytest.raises(DatasetError, match="negative"):
            load_dataset(f)

    @pytest.mark.parametrize(
        "value",
        ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
    )
    def test_non_finite_value_rejected(self, tmp_path, value):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{"perm/a":%s}}' % value])
        with pytest.raises(DatasetError, match="line 1: .* not finite"):
            load_dataset(f)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DatasetError, match="non-finite"):
            Sample("s1", None, {"perm/a": float("nan")})

    @pytest.mark.parametrize(
        "value,why",
        [
            ("-1", "value negative"),
            ("NaN", "value not finite"),
            ("true", "value not numeric"),
            ('"2"', "value not numeric"),
            ("1" + "0" * 400, "value not finite"),
        ],
        ids=["negative", "nan", "bool", "string", "int-overflow"],
    )
    def test_bad_value_under_a_known_name_reports_its_line(self, tmp_path, value, why):
        f = tmp_path / "d.jsonl"
        write_lines(f, [
            '{"id":"s1","features":{"perm/a":1,"perm/b":2}}',
            '{"id":"s2","features":{"perm/b":1}}',
            '{"id":"s3","features":{"perm/b":3,"perm/a":%s}}' % value,
        ])
        with pytest.raises(DatasetError) as exc:
            load_dataset(f)
        assert str(exc.value) == f"line 3: feature 'perm/a' {why}"

    @pytest.mark.parametrize(
        "value,message",
        [
            (-1.0, "sample 's1': negative value for feature 'perm/b'"),
            (0.0, "sample 's1': zero value stored for feature 'perm/b'"),
            (float("inf"), "sample 's1': non-finite value for feature 'perm/b'"),
            (float("-inf"), "sample 's1': non-finite value for feature 'perm/b'"),
            (float("nan"), "sample 's1': non-finite value for feature 'perm/b'"),
        ],
    )
    def test_sample_names_its_bad_value(self, value, message):
        with pytest.raises(DatasetError) as exc:
            Sample("s1", None, {"perm/a": 1.0, "perm/b": value, "perm/c": 2.0})
        assert str(exc.value) == message

    def test_sample_values_may_sum_past_the_float_range(self):
        Sample("s1", None, {"perm/a": 1e308, "perm/b": 1e308})

    def test_line_order_preserved(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(
            f,
            [
                json.dumps({"id": f"s{i}", "family": None, "features": {}})
                for i in (3, 1, 2)
            ],
        )
        d = load_dataset(f)
        assert [s.id for s in d.samples] == ["s3", "s1", "s2"]


feature_names = st.sampled_from(
    [f"{p}/f{i}" for p in ("perm", "api", "str") for i in range(6)]
)
samples_strategy = st.lists(
    st.tuples(
        st.sampled_from([None, "famA", "famB"]),
        st.dictionaries(
            feature_names,
            st.floats(min_value=0.5, max_value=9.0, allow_nan=False),
            max_size=5,
        ),
    ),
    max_size=8,
)


@settings(max_examples=50, deadline=None)
@given(samples_strategy)
def test_save_load_round_trip(tmp_path_factory, rows):
    d = Dataset(
        samples=[
            Sample(f"s{i}", family, features)
            for i, (family, features) in enumerate(rows)
        ]
    )
    path = tmp_path_factory.mktemp("rt") / "d.jsonl"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.samples == d.samples


class TestDictionary:
    def test_parse_row(self, tmp_path):
        f = tmp_path / "dict.csv"
        f.write_text(
            "feature,category,scope,value_kind\n"
            "perm/INTERNET,FS1,platform-defined,boolean\n"
            "str/http://x.com,FS8,app-specific,numeric\n"
        )
        entries = load_dictionary(f)
        assert entries[0] == FeatureDictionaryEntry(
            "perm/INTERNET", "FS1", "platform-defined", "boolean"
        )
        assert entries[1].scope == "app-specific"

    def test_unknown_category_rejected(self, tmp_path):
        f = tmp_path / "dict.csv"
        f.write_text(
            "feature,category,scope,value_kind\n"
            "perm/X,FS12,platform-defined,boolean\n"
        )
        with pytest.raises(DatasetError, match="category"):
            load_dictionary(f)

    def test_unknown_scope_rejected(self, tmp_path):
        f = tmp_path / "dict.csv"
        f.write_text(
            "feature,category,scope,value_kind\nperm/X,FS1,global,boolean\n"
        )
        with pytest.raises(DatasetError, match="scope"):
            load_dictionary(f)

    def test_round_trip(self, tmp_path):
        entries = [
            FeatureDictionaryEntry("perm/a", "FS1", "platform-defined", "boolean"),
            FeatureDictionaryEntry("str/x", "FS8", "app-specific", "numeric"),
        ]
        f = tmp_path / "dict.csv"
        save_dictionary(entries, f)
        assert load_dictionary(f) == entries


class TestSplitFeature:
    def test_name_may_contain_slashes(self):
        assert split_feature("str/http://x.com") == ("str", "http://x.com")

    @pytest.mark.parametrize("bad", ["", "noslash", "/x", "perm/", "bogus/x"])
    def test_invalid_names(self, bad):
        with pytest.raises(DatasetError):
            split_feature(bad)


def scoped_dataset():
    dictionary = [
        FeatureDictionaryEntry("perm/INTERNET", "FS1", "platform-defined", "boolean"),
        FeatureDictionaryEntry("str/foo", "FS8", "app-specific", "numeric"),
    ]
    samples = [
        Sample("s1", None, {"perm/INTERNET": 1.0, "str/foo": 2.0}),
        Sample("s2", None, {"str/foo": 1.0}),
    ]
    return Dataset(samples=samples, dictionary=dictionary)


class TestFilterByScope:
    def test_all_is_identity(self):
        d = scoped_dataset()
        assert filter_by_scope(d, "all") is d

    def test_platform_filter(self):
        d = filter_by_scope(scoped_dataset(), "platform-defined")
        assert d.samples[0].features == {"perm/INTERNET": 1.0}
        assert d.samples[1].features == {}

    def test_empty_samples_retained_in_order(self):
        d = filter_by_scope(scoped_dataset(), "app-specific")
        assert [s.id for s in d.samples] == ["s1", "s2"]
        assert d.samples[0].features == {"str/foo": 2.0}

    def test_scopes_partition_features(self):
        original = scoped_dataset()
        platform = filter_by_scope(original, "platform-defined")
        app = filter_by_scope(original, "app-specific")
        for orig, p, a in zip(original.samples, platform.samples, app.samples):
            assert not (p.features.keys() & a.features.keys())
            assert p.features.keys() | a.features.keys() == orig.features.keys()

    def test_missing_dictionary_rejected(self):
        d = Dataset(samples=[Sample("s1", None, {"perm/a": 1.0})])
        with pytest.raises(DatasetError, match="dictionary"):
            filter_by_scope(d, "platform-defined")

    def test_feature_missing_from_dictionary(self):
        d = scoped_dataset()
        d.samples[0].features["perm/extra"] = 1.0
        with pytest.raises(DatasetError, match="missing from dictionary"):
            filter_by_scope(d, "platform-defined")


class TestColumns:
    def test_csr_arrays_in_map_order(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, [
            '{"id":"s1","features":{"str/x":2,"perm/b":1.5}}',
            '{"id":"s2","features":{}}',
            '{"id":"s3","features":{"perm/b":3,"perm/a":0,"api/c":4}}',
        ])
        cols = load_dataset(f).columns()
        assert cols.names == ["api/c", "perm/b", "str/x"]
        assert cols.indptr.tolist() == [0, 2, 2, 4]
        assert cols.ids.dtype == np.int32 and cols.ids.tolist() == [2, 1, 1, 0]
        assert cols.values.dtype == np.float64
        assert cols.values.tolist() == [2.0, 1.5, 3.0, 4.0]

    def test_second_call_returns_the_cached_view(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{"perm/a":1}}'])
        d = load_dataset(f)
        cols = d.columns()
        assert d.columns() is cols
        assert not cols.values.flags.writeable

    def test_filtered_dataset_builds_its_own_view(self):
        d = scoped_dataset()
        cols = d.columns()
        platform = filter_by_scope(d, "platform-defined")
        own = platform.columns()
        assert own is not cols and platform.columns() is own
        assert own.names == ["perm/INTERNET"]
        assert own.indptr.tolist() == [0, 1, 1]
        assert own.ids.tolist() == [0] and own.values.tolist() == [1.0]
        assert d.columns() is cols and cols.names == ["perm/INTERNET", "str/foo"]

    def test_empty_dataset(self):
        cols = Dataset(samples=[]).columns()
        assert cols.names == [] and cols.indptr.tolist() == [0]
        assert len(cols.ids) == len(cols.values) == 0


def test_loaded_samples_share_one_string_per_feature_name(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        '{"id": "a", "features": {"str/http://x.com/a": 1, "perm/X": 1}}',
        '{"id": "b", "features": {"str/http://x.com/a": 2}}',
    ])
    a, b = (next(iter(s.features)) for s in load_dataset(path).samples)
    assert a == b == "str/http://x.com/a" and a is b
