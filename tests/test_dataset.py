import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcom.dataset import (
    SCOPES,
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
from malcom.synth import SynthConfig, generate


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
        """The reader names the repeating line and the first; a dataset
        built in code checks its ids too."""
        f = tmp_path / "d.jsonl"
        write_lines(
            f,
            [
                '{"id":"s1","family":null,"features":{}}',
                '{"id":"s2","family":null,"features":{}}',
                '{"id":"s1","family":null,"features":{}}',
            ],
        )
        with pytest.raises(DatasetError) as got:
            load_dataset(f)
        assert str(got.value) == "line 3: duplicate sample id 's1' (first on line 1)"
        with f.open("a") as fh:
            fh.write("{oops\n")  # a later malformed line is reported first
        with pytest.raises(DatasetError, match="^line 4: invalid JSON"):
            load_dataset(f)
        with pytest.raises(DatasetError, match="^duplicate sample id 's1'$"):
            Dataset(samples=[Sample("s1", None, {}), Sample("s1", None, {})])

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

    @pytest.mark.parametrize("sid", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
    def test_id_with_tab_or_line_break_names_its_line(self, tmp_path, sid):
        # edge and partition files could not be read back
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{}}', json.dumps({"id": sid, "features": {}})])
        with pytest.raises(DatasetError) as exc:
            load_dataset(f)
        assert str(exc.value) == f"line 2: sample id {sid!r} holds a tab or line break"

    @pytest.mark.parametrize("text", ["a\tb", "a\nb", "a\rb"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("field", ["family", "feature"])
    def test_label_with_tab_or_line_break_names_its_line(self, tmp_path, field, text):
        # the family-sim matrix and the stats rows could not be read back
        obj = {"id": "s2", "family": "A", "features": {"perm/a": 1}}
        if field == "family":
            obj["family"], what = text, "family"
        else:
            obj["features"], what = {"str/" + text: 1}, "feature name"
            text = "str/" + text
        f = tmp_path / "d.jsonl"
        write_lines(f, ['{"id":"s1","features":{}}', json.dumps(obj)])
        with pytest.raises(DatasetError) as exc:
            load_dataset(f)
        assert str(exc.value) == f"line 2: {what} {text!r} holds a tab or line break"

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

    def test_duplicate_feature_rejected(self, tmp_path):
        """A feature listed twice names the repeating line and the first,
        rather than letting the last row's scope win."""
        f = tmp_path / "dict.csv"
        f.write_text(
            "feature,category,scope,value_kind\n"
            "perm/x,FS1,platform-defined,boolean\n"
            "perm/y,FS1,platform-defined,boolean\n"
            "perm/x,FS1,app-specific,boolean\n"
        )
        with pytest.raises(DatasetError) as got:
            load_dictionary(f)
        assert str(got.value) == "line 4: duplicate feature 'perm/x' (first on line 2)"

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
        """The first entry, in sample order, whose name the dictionary
        lacks is named."""
        d = scoped_dataset()
        grown = Dataset(
            samples=[Sample("s0", None, {"str/foo": 1.0})]
            + [Sample(s.id, s.family, {**s.features, "perm/extra": 1.0})
               for s in d.samples],
            dictionary=d.dictionary,
        )
        with pytest.raises(DatasetError) as exc:
            filter_by_scope(grown, "platform-defined")
        assert str(exc.value) == (
            "feature 'perm/extra' (sample 's1') missing from dictionary"
        )


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


# One corpus for the columnar loader: floats, ints (stored as floats), zeros
# (dropped), an empty map, a name first seen late and non-ASCII names.
MIXED_LINES = [
    '{"id":"s1","family":"A","features":{"perm/b":1.5,"str/é":2.0}}',
    '{"id":"s2","family":"B","features":{"perm/b":2,"api/c":0,"str/日本":1}}',
    '{"id":"s3","family":null,"features":{}}',
    '{"id":"s4","family":"A","features":{"perm/a":0.0,"str/é":3}}',
    '{"id":"s5","family":"B","features":{"str/ключ":0.25,"perm/b":4.0}}',
    '{"id":"s6","family":"A","features":{"api/late":1.0,"perm/b":1e300}}',
]
MIXED_MAPS = [  # what each line stores: ints as floats, zeros dropped
    ("s1", "A", {"perm/b": 1.5, "str/é": 2.0}),
    ("s2", "B", {"perm/b": 2.0, "str/日本": 1.0}),
    ("s3", None, {}),
    ("s4", "A", {"str/é": 3.0}),
    ("s5", "B", {"str/ключ": 0.25, "perm/b": 4.0}),
    ("s6", "A", {"api/late": 1.0, "perm/b": 1e300}),
]


def mixed_dataset(dictionary=None):
    samples = [Sample(sid, fam, dict(m)) for sid, fam, m in MIXED_MAPS]
    return Dataset(samples=samples, dictionary=dictionary)


def assert_same_columns(got, want):
    assert got.names == want.names
    for a in ("indptr", "ids", "values"):
        x, y = getattr(got, a), getattr(want, a)
        assert x.dtype == y.dtype and x.tolist() == y.tolist(), a


class TestColumnarLoader:
    @given(st.permutations(range(len(MIXED_LINES))))
    def test_in_id_order_permutes_ids_families_and_rows_together(
        self, tmp_path_factory, order
    ):
        """Any line order gives, in id order, the columns of the corpus
        listed by ascending id; a corpus already in id order is returned
        itself."""
        f = tmp_path_factory.mktemp("order") / "d.jsonl"
        write_lines(f, [MIXED_LINES[k] for k in order])
        got = load_dataset(f).in_id_order()
        want = mixed_dataset()
        assert want.in_id_order() is want and got.in_id_order() is got
        assert got.ids == want.ids and got.families == want.families
        assert_same_columns(got.columns(), want.columns())

    def test_columns_equal_the_map_built_view(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, MIXED_LINES)
        d = load_dataset(f)
        assert_same_columns(d.columns(), mixed_dataset().columns())
        assert d.ids == [sid for sid, _, _ in MIXED_MAPS]
        assert d.labels() == [fam for _, fam, _ in MIXED_MAPS]
        assert not d.fully_labeled()

    def test_samples_are_built_on_each_access(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_lines(f, MIXED_LINES)
        d = load_dataset(f)
        assert d.samples == mixed_dataset().samples
        assert d.samples is not d.samples

    def test_save_reproduces_the_canonical_file(self, tmp_path):
        canonical = tmp_path / "canonical.jsonl"
        save_dataset(mixed_dataset(), canonical)
        raw, again = tmp_path / "raw.jsonl", tmp_path / "again.jsonl"
        write_lines(raw, MIXED_LINES)
        for source in (raw, canonical):
            save_dataset(load_dataset(source), again)
            assert again.read_bytes() == canonical.read_bytes()

    @pytest.mark.parametrize(
        "bad,message",
        [
            ('{"id":"s9","features":{"perm/a":%s,"perm/x":NaN}}',
             "line 3: feature 'perm/x' value not finite"),
            ('{"id":"s9","features":{"perm/a":%s,"perm/x":Infinity}}',
             "line 3: feature 'perm/x' value not finite"),
            ('{"id":"s9","features":{"perm/a":%s,"perm/x":true}}',
             "line 3: feature 'perm/x' value not numeric"),
            ('{"id":"s9","features":{"perm/a":%s,"perm/x":-2.5}}',
             "line 3: feature 'perm/x' value negative"),
            ('{"id":"s9","features":{"perm/a":%s,"bogus/x":1.0}}',
             "line 3: feature name 'bogus/x' has unknown prefix 'bogus'"),
            ('{"id":"s1","features":{"perm/a":%s}}',
             "line 3: duplicate sample id 's1' (first on line 1)"),
        ],
        ids=["nan", "infinity", "bool", "negative", "unknown-prefix", "duplicate-id"],
    )
    def test_bad_line_message_beside_a_float_or_an_int(
        self, tmp_path, bad, message
    ):
        """The same fault gives the same message and line whether the rest
        of its line holds a float or an int."""
        for value in ("1.5", "2"):
            f = tmp_path / "d.jsonl"
            write_lines(f, [
                '{"id":"s1","features":{"perm/a":1.0}}',
                '{"id":"s2","features":{"perm/a":2}}',
                bad % value,
            ])
            with pytest.raises(DatasetError) as exc:
                load_dataset(f)
            assert str(exc.value) == message

    @pytest.mark.parametrize("scope", SCOPES)
    def test_filter_by_scope_equals_the_map_filter(self, tmp_path, scope):
        dictionary = [
            FeatureDictionaryEntry(name, "FS1", s, "numeric")
            for name, s in [
                ("api/late", "app-specific"),
                ("perm/b", "platform-defined"),
                ("str/é", "app-specific"),
                ("str/日本", "platform-defined"),
                ("str/ключ", "app-specific"),
            ]
        ]
        f = tmp_path / "d.jsonl"
        write_lines(f, MIXED_LINES)
        d = load_dataset(f)

        def with_dictionary(entries):
            return Dataset.from_columns(d.ids, d.families, d.columns(), entries)

        got = filter_by_scope(with_dictionary(dictionary), scope)
        scope_of = {e.feature: e.scope for e in dictionary}
        want = Dataset(samples=[
            Sample(sid, fam, {k: v for k, v in m.items() if scope_of[k] == scope})
            for sid, fam, m in MIXED_MAPS
        ])
        assert_same_columns(got.columns(), want.columns())
        assert got.ids == want.ids and got.labels() == want.labels()
        assert got.dictionary is dictionary
        with pytest.raises(DatasetError) as exc:
            filter_by_scope(with_dictionary(dictionary[1:]), scope)
        assert str(exc.value) == (
            "feature 'api/late' (sample 's6') missing from dictionary"
        )


def test_loaded_corpus_is_held_once_as_columns(tmp_path):
    """After ``load_dataset(f).columns()`` tracemalloc holds at most 32 bytes
    per stored value: 12 in the columns, the rest the ids, families and
    names.  A loader that also keeps each sample's feature map holds about
    77 (a dict entry and a float object per value) and fails here."""
    f = tmp_path / "d.jsonl"
    save_dataset(generate(SynthConfig(samples_per_family=20, rng_seed=7)), f)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = load_dataset(f)
        stored = len(d.columns().values)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stored > 10_000
    assert held / stored <= 32
