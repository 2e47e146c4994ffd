"""Parsing, field maps, splitting, negative sampling, packing."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfm import (DataFormatError, FeatureSpace, GemfmError, SparseInstance,
                   format_field_map, format_libfm_line, load_field_map,
                   load_libfm, negative_sample, parse_libfm_line, save_libfm,
                   split_dataset)
from gemfm.data import PackedInstances, _largest_remainder_sizes
from oracles import load_libfm_reference, negative_sample_reference, packed_equal, unpack


# --- libFM lines ---

def test_parse_basic_line():
    inst = parse_libfm_line("1.0 0:1 5:0.5 2:2")
    assert inst.label == 1.0
    assert inst.entries == ((0, 1.0), (2, 2.0), (5, 0.5))


def test_parse_sorts_entries():
    inst = parse_libfm_line("-1 9:1 3:1 7:1")
    assert [i for i, _ in inst.entries] == [3, 7, 9]


def test_parse_label_only_line():
    inst = parse_libfm_line("0.25")
    assert inst.label == 0.25
    assert inst.entries == ()


def test_parse_strips_comments():
    inst = parse_libfm_line("1 2:3 # trailing note")
    assert inst.entries == ((2, 3.0),)


@pytest.mark.parametrize("line,fragment", [
    ("", "empty"),
    ("# only a comment", "empty"),
    ("abc 0:1", "bad label"),
    ("nan 0:1", "non-finite label"),
    ("inf 0:1", "non-finite label"),
    ("1.0 0:1 0:2", "duplicate feature index 0"),
    ("1.0 5", "malformed entry '5'"),
    ("1.0 -3:1", "malformed entry"),
    ("1.0 1_0:1", "malformed entry"),
    ("1 \u00b2:1", "non-ASCII"),                # superscript two passes isdigit
    ("1 \u0663:1", "non-ASCII"),                # Arabic-Indic three passes int()
    ("1 99999999999999999999:1", "at most 18 digits"),
    ("1.0 2:x", "non-numeric value"),
    ("1.0 2:nan", "non-finite value"),
])
def test_parse_rejects(line, fragment):
    with pytest.raises(DataFormatError, match=fragment):
        parse_libfm_line(line)


def test_parse_error_carries_line_number():
    with pytest.raises(DataFormatError, match=r"line 17"):
        parse_libfm_line("1.0 0:1 0:2", lineno=17)


def test_instance_validates_itself():
    with pytest.raises(DataFormatError):
        SparseInstance(1.0, ((3, 1.0), (1, 1.0)))
    with pytest.raises(DataFormatError):
        SparseInstance(1.0, ((-1, 1.0),))
    with pytest.raises(DataFormatError):
        SparseInstance(float("nan"), ())


@given(st.builds(
    SparseInstance,
    label=st.floats(-1e6, 1e6, allow_nan=False),
    entries=st.lists(
        st.tuples(st.integers(0, 10**6),
                  st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v == v)),
        max_size=12, unique_by=lambda e: e[0],
    ).map(lambda es: tuple(sorted(es))),
))
@settings(max_examples=200)
def test_line_round_trip(inst):
    assert parse_libfm_line(format_libfm_line(inst)) == inst


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    instances = []
    for _ in range(50):
        k = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(1000, size=k, replace=False))
        instances.append(SparseInstance(
            float(rng.normal()),
            tuple((int(i), float(rng.uniform(-2, 2))) for i in idx),
        ))
    path = tmp_path / "data.libfm"
    save_libfm(instances, path)
    loaded = load_libfm(path)
    assert isinstance(loaded, PackedInstances)
    assert unpack(loaded) == instances
    assert path.read_text() == "".join(format_libfm_line(i) + "\n" for i in instances)
    # packed rows write the very same text
    again = tmp_path / "again.libfm"
    save_libfm(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_packs_chunk_by_chunk(tmp_path, monkeypatch):
    # chunks of 8 characters completed to a line: boundaries fall inside, on
    # and after the skipped lines
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 8)
    lines = ["1 0:1 4:2", "0 1:0.5", "# comment", "2", "", "3 2:1 3:1 9:-1",
             "4 7:1", "5 8:2", "6 0:3"]
    path = tmp_path / "data.libfm"
    path.write_text("\n".join(lines) + "\n")
    expected = PackedInstances.from_instances(
        [parse_libfm_line(line) for line in lines if line.split("#")[0].strip()])
    assert packed_equal(load_libfm(path), expected)
    empty = tmp_path / "empty.libfm"
    empty.write_text("# nothing\n")
    assert packed_equal(load_libfm(empty), PackedInstances.from_instances([]))


def test_load_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "data.libfm"
    path.write_text("# header\n\n1.0 0:1\n   \n0.0 1:1 # note\n")
    assert len(load_libfm(path)) == 2


def test_load_error_names_file_and_line(tmp_path):
    path = tmp_path / "bad.libfm"
    path.write_text("1.0 0:1\n1.0 0:1 0:2\n")
    with pytest.raises(DataFormatError, match=r"bad\.libfm.*line 2"):
        load_libfm(path)


def test_load_rejects_an_index_past_int64(tmp_path):
    # it used to parse, then overflow when packed
    path = tmp_path / "big.libfm"
    path.write_text("1.0 0:1\n1.0 18446744073709551616:1\n")
    with pytest.raises(DataFormatError, match=r"big\.libfm.*line 2"):
        load_libfm(path)


def test_load_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.libfm"
    path.write_bytes(b"1.0 0:1 # caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"latin1\.libfm.*UTF-8"):
        load_libfm(path)


def test_bulk_reader_re_reads_only_a_faulty_chunk(tmp_path, monkeypatch):
    # time-free work counter: a valid file is parsed without a per-line call,
    # and a bad line costs a line-by-line re-read of its own chunk only
    calls = []
    parse = parse_libfm_line

    def counted(text, lineno=None):
        calls.append(lineno)
        return parse(text, lineno)

    monkeypatch.setattr("gemfm.data.parse_libfm_line", counted)
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 25)   # 10-character lines: 3 a chunk
    # separated by every ASCII byte str.split() splits on
    lines = [f"1{sep}{k}:1 9:1" for k, sep in enumerate(" \t\v\f\x1c\x1d\x1e\x1f ")]
    path = tmp_path / "data.libfm"
    path.write_text("".join(line + "\n" for line in lines))
    assert len(load_libfm(path)) == 9
    assert calls == []
    # comments are blanked in bulk, up to a newline and not past it
    path.write_text("# rows\n" + "".join(f"{line} #{k} 5:1\n" for k, line in enumerate(lines)))
    assert packed_equal(load_libfm(path), load_libfm_reference(path))
    assert calls == []

    lines[4] = "1 4:1 4:1"   # line 5, the middle of the second chunk
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataFormatError, match=r"duplicate feature index 4 \(line 5\)"):
        load_libfm(path)
    assert calls == [4, 5]


def _assert_loads_like_reference(path):
    # the same arrays, dtypes included, or the same error message
    try:
        expected = load_libfm_reference(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as raised:
            load_libfm(path)
        assert str(raised.value) == str(exc)
    else:
        assert packed_equal(load_libfm(path), expected)


_READER_CASES = {
    "crlf": "1 0:1 4:2\r\n0 1:0.5\r\n\r\n2 3:1\r\n",
    "lone-cr": "1 0:1 4:2\r0 1:0.5\r\r2 3:1\r",
    "vt-ff-and-separators": "1\v0:1\f2:1\x1c3:1\x1d4:1\x1e5:1\x1f6:1\n\v\f\x1c\n0 1:1\n",
    "hash-mid-line": "1 0:1 # 2:1 note\n0 3:1\n#\n",
    "label-only": "0.5\n1\n\n-2 0:1\n",
    "no-final-newline": "1 0:1\n0 2:1",
    "unsorted": "1 5:1 2:2 9:3 0:4\n0 8:1 7:1\n",
    "duplicate": "1 5:1 2:2\n0 2:1 3:1 2:3\n",
    "18-digit-index": "1 999999999999999999:1 000000000000000007:2\n",
    "19-digit-index": "1 0:1\n1 1000000000000000000:1\n",
    "two-colons": "1 1:2:3\n",
    "no-value": "1 3:\n",
    "no-index": "1 :4\n",
    "no-colon": "1 0:1 5\n",
    "float-spellings": "1_0 1:1_0 2:+1 3:.5 4:1e5 5:-0.0 6:0X1P3\n+1 0:1.\n",
    "inf-label": "1 0:1\ninf 1:1\n",
    "inf-value": "1 0:1\n1 1:-inf\n",
    "nan-label": "nan 1:1\n",
    "nan-value": "1 0:1 2:nan\n",
    "bad-label": "0 0:1\nx 1:1\n",
    "bad-value": "0 0:1\n1 1:1x\n",
    "non-ascii-space": "1 0:1\u00a0\n0 1:1\u2028\n",   # stripped as whitespace
    "non-ascii-digit": "1 0:1\n1 \u0663:1\n",
    "nul": "1 0:1\n1 1:1\0\n",
    "long-value": "1 0:0.1000000000000000055511151231257827021181583404541015625\n",
}


@pytest.mark.parametrize("chunk_chars", [3, 1 << 18])
@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_load_matches_the_line_by_line_reader(tmp_path, monkeypatch, case, chunk_chars):
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", chunk_chars)
    path = tmp_path / f"{case}.libfm"
    path.write_bytes(_READER_CASES[case].encode("utf-8"))
    _assert_loads_like_reference(path)


@pytest.mark.parametrize("fault_line", [1, 50, 100])
def test_load_reports_a_fault_in_any_chunk(tmp_path, monkeypatch, fault_line):
    # the first, a middle and the last of 20 chunks
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 60)
    lines = [f"{k % 2} {k}:1 {k + 1}:0.5" for k in range(100)]
    lines[fault_line - 1] = "1 7:1 x:2"
    path = tmp_path / "data.libfm"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=rf"malformed entry 'x:2'.*\(line {fault_line}\)"):
        load_libfm(path)
    _assert_loads_like_reference(path)


def test_load_reports_the_fault_a_line_by_line_read_meets_first(tmp_path):
    # a bad line 2 and, 100 kB on (past the decoder's first blocks but inside
    # one bulk chunk), undecodable bytes: the bad line is reported, as before
    path = tmp_path / "both.libfm"
    body = "1 0:1\n1 0:1 0:2\n" + "0 1:1\n" * 20_000
    path.write_bytes(body.encode() + b"1 2:1 # caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"both\.libfm.*duplicate feature index 0 \(line 2\)"):
        load_libfm(path)
    _assert_loads_like_reference(path)
    path.write_bytes(("0 1:1\n" * 20_000).encode() + b"1 2:1 # caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"both\.libfm.*UTF-8"):
        load_libfm(path)


# lines shaped like the format, from the pieces the bulk reader treats apart
_READER_NUMBER = st.sampled_from(["0", "1", "-1", "2.5", "1.0", "1_0", "+1", ".5", "1e5",
                                  "inf", "nan", "-0.0", "x", "", "1:2", "\u0663"])
_READER_INDEX = st.one_of(st.integers(0, 40).map(str),
                          st.sampled_from(["007", "9" * 18, "1" + "0" * 18, "-1", "", "1_0"]))
_READER_ENTRY = st.one_of(st.tuples(_READER_INDEX, _READER_NUMBER).map(":".join),
                          st.sampled_from(["5", "1:2:3", "3:", ":4", "#", "# note"]))
_READER_SPACE = st.sampled_from([" ", " ", "\t", "\v", "\f", "\x1c", "\x1f", "  ", "\u00a0"])
_READER_LINE = st.tuples(
    _READER_NUMBER, st.lists(st.tuples(_READER_SPACE, _READER_ENTRY).map("".join), max_size=5),
    st.sampled_from(["", "", " ", " # note", "\u00e9"]),
).map(lambda parts: parts[0] + "".join(parts[1]) + parts[2])
_READER_FILE = st.tuples(
    st.lists(st.tuples(st.one_of(_READER_LINE, st.just("")),
                       st.sampled_from(["\n", "\n", "\r\n", "\r"])).map("".join), max_size=12),
    st.booleans(),
).map(lambda parts: "".join(parts[0]).rstrip("\r\n") if parts[1] else "".join(parts[0]))


@pytest.fixture(scope="module")
def reader_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.libfm"


@given(_READER_FILE, st.sampled_from([1, 7, 40, 1 << 18]))
@settings(max_examples=400, deadline=None)
def test_load_matches_the_line_by_line_reader_fuzz(reader_file, text, chunk_chars):
    reader_file.write_bytes(text.encode("utf-8"))
    with mock.patch("gemfm.data._CHUNK_CHARS", chunk_chars):
        _assert_loads_like_reference(reader_file)


# arbitrary text, and lines shaped like the format from the characters its
# grammar cares about (plus digits that str methods accept but it does not)
_NUMBER = st.one_of(
    st.sampled_from(["0", "7", "-1", "2.5", "1e3", "nan", "\u00b2", "\u0663", "1_0",
                     "9223372036854775808"]),
    st.text(alphabet="0123456789.-e#\u00b2\u0663", min_size=1, max_size=22))
_TOKEN = st.one_of(_NUMBER, st.tuples(_NUMBER, _NUMBER).map(":".join))
_LINE = st.lists(_TOKEN, min_size=1, max_size=5)


@given(st.one_of(st.text(), _LINE.map(" ".join)))
@settings(max_examples=500)
def test_parse_libfm_line_fuzz(text):
    try:
        parse_libfm_line(text)
    except GemfmError:
        pass


# --- field maps ---

def test_field_map_round_trip():
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [5, 7, 3])
    assert load_field_map(format_field_map(space)) == space


def test_field_map_parses_comments_and_blanks():
    text = "# fields\nuser\t0\t3\n\nitem\t3\t8\n"
    space = load_field_map(text)
    assert space.field_names == ("user", "item")
    assert space.num_features == 8


@pytest.mark.parametrize("text,fragment", [
    ("user\t1\t3\n", "expected 0"),
    ("user\t0\t3\nitem\t4\t8\n", "expected 3"),
    ("user\t0\t3\nitem\t2\t8\n", "expected 3"),
    ("user\t0\t0\n", "empty"),
    ("user\t0\tx\n", "non-integer"),
    ("user\t\u0660\t3\n", "non-integer"),        # Arabic-Indic zero passes int()
    ("user\t0\t+3\n", "non-integer"),
    ("user\t0\t1_0\n", "non-integer"),
    ("user\t0\t99999999999999999999\n", "non-integer"),
    ("user 0 3\n", "expected name"),
    ("", "no fields"),
])
def test_field_map_rejects(text, fragment):
    with pytest.raises(DataFormatError, match=fragment):
        load_field_map(text)


def test_field_map_bounds_may_carry_spaces():
    assert load_field_map("user\t 0 \t3\n").field_bounds == ((0, 3),)


@given(st.one_of(st.text(), st.lists(_LINE.map("\t".join), max_size=4).map("\n".join)))
@settings(max_examples=500)
def test_load_field_map_fuzz(text):
    try:
        load_field_map(text)
    except GemfmError:
        pass


def test_field_lookup():
    space = FeatureSpace.from_cardinalities(["a", "b", "c"], [2, 3, 4])
    assert space.num_features == 9
    assert [space.field_of(i) for i in range(9)] == [0, 0, 1, 1, 1, 2, 2, 2, 2]
    assert space.field_range(1) == (2, 5)
    assert space.cardinality(2) == 4
    assert space.field_id("b") == 1
    np.testing.assert_array_equal(
        space.field_of_array(np.array([0, 4, 8])), [0, 1, 2])
    with pytest.raises(DataFormatError):
        space.field_of(9)
    with pytest.raises(DataFormatError):
        space.field_id("missing")


# --- splits ---

def test_remainder_rounding_prefers_train():
    assert _largest_remainder_sizes(1, (0.8, 0.1, 0.1)) == [1, 0, 0]
    assert _largest_remainder_sizes(10, (0.8, 0.1, 0.1)) == [8, 1, 1]
    # 12 * (0.5, 0.3, 0.2) = (6, 3.6, 2.4): validation has the larger remainder
    assert _largest_remainder_sizes(12, (0.5, 0.3, 0.2)) == [6, 4, 2]
    assert _largest_remainder_sizes(2, (0.8, 0.1, 0.1)) == [2, 0, 0]


def _tiny_instances(n):
    return [SparseInstance(float(i), ((i, 1.0),)) for i in range(n)]


def test_split_covers_exactly_once():
    instances = _tiny_instances(103)
    split = split_dataset(instances, (0.8, 0.1, 0.1), seed=5)
    assert (len(split.train), len(split.validation), len(split.test)) == (83, 10, 10)
    parts = (split.train, split.validation, split.test)
    seen = np.sort(np.concatenate([part.indices for part in parts]))
    np.testing.assert_array_equal(seen, np.arange(103))
    for part in parts:   # each row keeps its own label
        np.testing.assert_array_equal(part.labels, part.indices)


def test_split_is_deterministic_and_seed_sensitive():
    instances = _tiny_instances(50)
    a = split_dataset(instances, seed=1)
    b = split_dataset(instances, seed=1)
    c = split_dataset(instances, seed=2)
    assert packed_equal(a.train, b.train) and packed_equal(a.test, b.test)
    assert not packed_equal(a.train, c.train)
    # a packed input splits into the same rows as its list
    d = split_dataset(PackedInstances.from_instances(instances), seed=1)
    assert packed_equal(a.train, d.train) and packed_equal(a.validation, d.validation)


def test_split_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        split_dataset([], (0.8, 0.1, 0.1))
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(_tiny_instances(3), (0.8, 0.1, 0.2))
    with pytest.raises(ValueError, match="positive"):
        split_dataset(_tiny_instances(3), (1.0, 0.0, 0.0))
    # NaN passed both checks, then failed inside math.floor
    with pytest.raises(ValueError, match="finite"):
        split_dataset(_tiny_instances(3), (float("nan"), 0.5, 0.5))


# --- negative sampling ---

def _click(user, item, label=1.0):
    return SparseInstance(label, ((user, 1.0), (item, 1.0)))


def test_negative_sampling_exhausts_small_vocab():
    # 2 users, 3 items; one positive for user 0 on item A leaves items B, C
    space = FeatureSpace.from_cardinalities(["user", "item"], [2, 3])
    positives = [_click(0, 2)]
    negatives = unpack(negative_sample(positives, space, item_field=1, k=2, seed=0))
    assert sorted(n.entries[1][0] for n in negatives) == [3, 4]
    assert all(n.label == 0.0 for n in negatives)
    assert all(n.entries[0] == (0, 1.0) for n in negatives)


def test_negative_sampling_excludes_clicked_under_same_context():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 4])
    positives = [_click(0, 1), _click(0, 2), _click(0, 3)]
    negatives = unpack(negative_sample(positives, space, item_field=1, k=1, seed=3))
    assert [n.entries[1][0] for n in negatives] == [4, 4, 4]


def test_negative_sampling_warns_on_shortfall():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 2])
    positives = [_click(0, 1)]
    with pytest.warns(RuntimeWarning, match="fewer than 3"):
        negatives = unpack(negative_sample(positives, space, item_field=1, k=3, seed=0))
    assert [n.entries[1][0] for n in negatives] == [2]


def test_negative_sampling_copies_item_value():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 3])
    positives = [SparseInstance(1.0, ((0, 1.0), (1, 0.5)))]
    negatives = unpack(negative_sample(positives, space, item_field=1, k=2, seed=0))
    assert all(n.entries[1][1] == 0.5 for n in negatives)


def test_negative_sampling_is_deterministic():
    rng = np.random.default_rng(11)
    space = FeatureSpace.from_cardinalities(["user", "item"], [10, 50])
    positives = [_click(int(rng.integers(0, 10)), int(10 + rng.integers(0, 50)))
                 for _ in range(40)]
    a = negative_sample(positives, space, item_field=1, k=2, seed=9)
    b = negative_sample(positives, space, item_field=1, k=2, seed=9)
    assert packed_equal(a, b)
    assert len(a) == 80


def test_negative_sampling_is_roughly_uniform():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 11])
    positives = [_click(0, 1)]
    counts = np.zeros(11)
    for seed in range(4000):
        for item in negative_sample(positives, space, item_field=1, k=1, seed=seed).indices[1::2]:
            counts[item - 1] += 1
    assert counts[0] == 0  # the clicked item never reappears
    spread = counts[1:]
    assert spread.min() > 0.8 * spread.mean()
    assert spread.max() < 1.2 * spread.mean()


def test_negative_sampling_keys_contexts_by_entries_and_values():
    # fields user [0, 2), item [2, 6), ctx [6, 8); the item sits mid-row
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [2, 4, 2])
    positives = [
        SparseInstance(1.0, ((0, 1.0), (2, 1.0), (6, 1.0))),
        SparseInstance(1.0, ((0, 1.0), (3, 1.0), (6, 2.0))),   # another value
        SparseInstance(1.0, ((1, 1.0), (4, 0.5))),              # a shorter row
    ]
    negatives = unpack(negative_sample(positives, space, item_field=1, k=3, seed=0))
    by_context = {}
    for neg in negatives:   # unpack re-checks that every row is sorted
        assert neg.label == 0.0
        context = tuple(e for e in neg.entries if not 2 <= e[0] < 6)
        by_context.setdefault(context, []).append(neg.entries[1])
    assert sorted(by_context[((0, 1.0), (6, 1.0))]) == [(3, 1.0), (4, 1.0), (5, 1.0)]
    assert sorted(by_context[((0, 1.0), (6, 2.0))]) == [(2, 1.0), (4, 1.0), (5, 1.0)]
    assert sorted(by_context[((1, 1.0),)]) == [(2, 0.5), (3, 0.5), (5, 0.5)]
    # packed positives give the same negatives as their list
    packed = negative_sample(PackedInstances.from_instances(positives), space,
                             item_field=1, k=3, seed=0)
    assert unpack(packed) == negatives


def test_negative_sampling_treats_signed_zeros_as_one_context():
    # (6, 0.0) == (6, -0.0), so both positives share a context and its clicks
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [1, 3, 1])
    positives = [SparseInstance(1.0, ((0, 1.0), (1, 1.0), (4, 0.0))),
                 SparseInstance(1.0, ((0, 1.0), (2, 1.0), (4, -0.0)))]
    negatives = unpack(negative_sample(positives, space, item_field=1, k=1, seed=0))
    assert [n.entries[1][0] for n in negatives] == [3, 3]


@pytest.mark.parametrize("items,k", [(40, 2), (6, 2), (3, 4)])   # rejection, pool, short
def test_negative_sampling_matches_per_instance_reference(items, k):
    rng = np.random.default_rng(items + k)
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [5, items, 3])
    positives = []
    for _ in range(120):
        entries = [(int(rng.integers(0, 5)), 1.0),
                   (5 + int(rng.integers(0, items)), float(rng.choice([1.0, 0.5])))]
        if rng.random() < 0.6:   # optional context entry, signed zeros included
            entries.append((5 + items + int(rng.integers(0, 3)),
                            float(rng.choice([1.0, 2.0, 0.0, -0.0]))))
        positives.append(SparseInstance(1.0, tuple(entries)))
    expected, short = negative_sample_reference(positives, space, 1, k, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = negative_sample(positives, space, item_field=1, k=k, seed=3)
    assert unpack(got) == expected
    assert [str(w.message) for w in caught] == (
        [f"negative_sample: {short} positives had fewer than {k} eligible items"]
        if short else [])


def test_negative_sampling_rejects_bad_positives():
    space = FeatureSpace.from_cardinalities(["user", "item"], [2, 3])
    with pytest.raises(ValueError, match="k must be >= 1"):
        negative_sample([_click(0, 2)], space, item_field=1, k=0)
    two_items = SparseInstance(1.0, ((0, 1.0), (2, 1.0), (3, 1.0)))
    with pytest.raises(ValueError, match="exactly one"):
        negative_sample([two_items], space, item_field=1, k=1)
    no_item = SparseInstance(1.0, ((0, 1.0),))
    with pytest.raises(ValueError, match="positive 1 has 0 active features"):
        negative_sample([_click(0, 2), no_item], space, item_field=1, k=1)
    with pytest.raises(ValueError, match="positive 0 has 2 active features"):
        negative_sample(PackedInstances.from_instances([two_items]), space,
                        item_field=1, k=1)


# --- packing ---

def test_packed_instances_layout_and_take():
    instances = [
        SparseInstance(1.0, ((0, 1.0), (4, 2.0))),
        SparseInstance(0.0, ()),
        SparseInstance(2.0, ((2, 3.0),)),
    ]
    packed = PackedInstances.from_instances(instances, num_features=5)
    np.testing.assert_array_equal(packed.labels, [1.0, 0.0, 2.0])
    np.testing.assert_array_equal(packed.indptr, [0, 2, 2, 3])
    np.testing.assert_array_equal(packed.indices, [0, 4, 2])
    np.testing.assert_array_equal(packed.values, [1.0, 2.0, 3.0])

    sub = packed.take([2, 0])
    np.testing.assert_array_equal(sub.labels, [2.0, 1.0])
    np.testing.assert_array_equal(sub.indices, [2, 0, 4])
    np.testing.assert_array_equal(sub.values, [3.0, 1.0, 2.0])


def test_packed_instances_validates_range():
    with pytest.raises(DataFormatError, match="feature index 7"):
        PackedInstances.from_instances(
            [SparseInstance(1.0, ((7, 1.0),))], num_features=5)


def test_packed_instances_concatenate_and_pass_through():
    instances = [
        SparseInstance(1.0, ((0, 1.0), (4, 2.0))),
        SparseInstance(0.0, ()),
        SparseInstance(2.0, ((2, 3.0),)),
    ]
    head = PackedInstances.from_instances(instances[:1])
    tail = PackedInstances.from_instances(instances[1:])
    both = head + tail
    assert packed_equal(both, PackedInstances.from_instances(instances))
    assert packed_equal(PackedInstances.from_instances([]) + both, both)
    # a PackedInstances is taken as it is, after the range check
    assert PackedInstances.from_instances(both) is both
    assert PackedInstances.from_instances(both, num_features=5) is both
    with pytest.raises(DataFormatError, match="feature index 4 outside"):
        PackedInstances.from_instances(both, num_features=4)
