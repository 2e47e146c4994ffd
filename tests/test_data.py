"""Parsing, field maps, splitting, negative sampling, packing."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfm import (ConfigError, DataFormatError, FeatureSpace, GemfmError, format_field_map,
                   load_field_map, load_libfm, negative_sample, parse_libfm_line, save_libfm,
                   split_dataset)
from gemfm.data import PackedInstances, _largest_remainder_sizes, ascii_tokens
from oracles import (load_libfm_reference, negative_sample_reference, packed_equal,
                     packed_rows, save_libfm_reference, unpack)


# --- libFM lines ---

def test_parse_basic_line():
    assert unpack(parse_libfm_line("1.0 0:1 5:0.5 2:2")) == [(1.0, ((0, 1.0), (2, 2.0), (5, 0.5)))]


def test_parse_sorts_entries():
    assert parse_libfm_line("-1 9:1 3:1 7:1").indices.tolist() == [3, 7, 9]


def test_parse_label_only_line():
    assert unpack(parse_libfm_line("0.25")) == [(0.25, ())]


def test_parse_strips_comments():
    assert unpack(parse_libfm_line("1 2:3 # trailing note")) == [(1.0, ((2, 3.0),))]


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


def test_instance_validates_itself():
    with pytest.raises(DataFormatError):
        packed_rows([(1.0, ((3, 1.0), (1, 1.0)))])
    with pytest.raises(DataFormatError):
        packed_rows([(1.0, ((-1, 1.0),))])
    with pytest.raises(DataFormatError):
        packed_rows([(float("nan"), ())])


def _pack(labels=(1.0,), indptr=(0, 2), indices=(3, 5), values=(1.0, 1.0)):
    """A pack of the given sequences as float64 and int64 arrays, unless already arrays."""
    def array(items, dtype):
        return items if isinstance(items, np.ndarray) else np.array(items, dtype=dtype)
    return PackedInstances(array(labels, np.float64), array(indptr, np.int64),
                           array(indices, np.int64), array(values, np.float64))


@pytest.mark.parametrize("kwargs,fragment", [
    ({"indices": (2, 2)}, "duplicate feature index 2"),
    ({"indices": (5, 3)}, "unsorted feature index 3 after 5"),
    ({"indices": (-1, 3)}, "negative feature index -1"),
    ({"indices": (3, 10**18)}, "feature index 1000000000000000000 over 18 digits"),
    ({"values": (1.0, math.nan)}, "non-finite value for feature 5"),
    ({"labels": (math.nan,)}, "non-finite label"),
    ({"indices": np.array([3.0, 5.0])}, "int64 indptr and indices"),
    ({"indptr": (0,)}, "indptr"),
    ({"labels": (1.0, 0.0), "indptr": (0, 2, 1)}, "indptr"),
    ({"labels": (1.0, 0.0)}, "indptr"),
    ({"indptr": (1, 2)}, "indptr"),
    ({"values": (1.0,)}, "indptr"),
], ids=["duplicate", "decreasing", "negative", "nineteen_digits", "nan_value", "nan_label",
        "float_indices", "indptr_short", "indptr_decreasing", "rows_disagree",
        "indptr_not_from_0", "values_short"])
def test_pack_refuses_rows_it_could_not_save_and_read_back(kwargs, fragment):
    # each would be scored as if it were data, or saved as a file that
    # load_libfm refuses or misreads
    with pytest.raises(DataFormatError, match=fragment):
        _pack(**kwargs)


def test_pack_keeps_its_checks_across_rows():
    # the same index in consecutive rows, empty rows, and a row that starts
    # below the one before are all valid
    packed = _pack((1.0, 0.0, 2.0, 3.0), (0, 2, 2, 3, 5), (3, 5, 5, 0, 9), (1.0,) * 5)
    assert len(packed) == 4
    with pytest.raises(DataFormatError, match="duplicate feature index 9"):
        _pack((1.0, 0.0), (0, 1, 3), (4, 9, 9), (1.0,) * 3)


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    instances = []
    for _ in range(50):
        k = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(1000, size=k, replace=False))
        instances.append((
            float(rng.normal()),
            tuple((int(i), float(rng.uniform(-2, 2))) for i in idx),
        ))
    path = tmp_path / "data.libfm"
    save_libfm(packed_rows(instances), path)
    loaded = load_libfm(path)
    assert isinstance(loaded, PackedInstances)
    assert unpack(loaded) == instances
    save_libfm_reference(loaded, tmp_path / "want.libfm")
    assert path.read_bytes() == (tmp_path / "want.libfm").read_bytes()
    # the rows read back write the very same text
    again = tmp_path / "again.libfm"
    save_libfm(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# floats whose spelling a writer could get wrong, and indices of any width a
# pack holds; a row's indices are distinct and sorted, as a pack requires
_WRITER_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.0, -2.5, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_WRITER_INDEX = st.one_of(
    st.integers(0, 40), st.integers(0, 10**18 - 1),
    st.sampled_from([10**17, 10**18 - 1, 0, 9, 10]))
_WRITER_ROWS = st.lists(st.tuples(
    _WRITER_FLOAT, st.dictionaries(_WRITER_INDEX, _WRITER_FLOAT, max_size=5).map(
        lambda entries: sorted(entries.items()))), max_size=12)


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@given(_WRITER_ROWS, st.sampled_from([1, 3, 8192]))
@settings(max_examples=300, deadline=None)
def test_save_libfm_writes_the_line_writer_bytes(writer_dir, rows, chunk_rows):
    # empty rows, signed zeros, NaN, infinities, subnormals, 18-digit and
    # negative indices, zero rows; chunks of 1, 3 and 8192 rows
    packed = packed_rows(rows)
    save_libfm_reference(packed, writer_dir / "want.libfm")
    with mock.patch("gemfm.data._CHUNK_ROWS", chunk_rows):
        save_libfm(packed, writer_dir / "got.libfm")
    assert (writer_dir / "got.libfm").read_bytes() == (writer_dir / "want.libfm").read_bytes()


@given(_WRITER_ROWS)
@settings(max_examples=300, deadline=None)
def test_any_pack_survives_save_then_load_bit_for_bit(writer_dir, rows):
    # zero rows, empty rows, signed zeros, subnormals, the largest float and
    # 18-digit indices: every pack that constructs reads back as it was
    packed = packed_rows(rows)
    save_libfm(packed, writer_dir / "pack.libfm")
    assert packed_equal(load_libfm(writer_dir / "pack.libfm"), packed)


def test_load_packs_chunk_by_chunk(tmp_path, monkeypatch):
    # chunks of 8 characters completed to a line: boundaries fall inside, on
    # and after the skipped lines
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 8)
    lines = ["1 0:1 4:2", "0 1:0.5", "# comment", "2", "", "3 2:1 3:1 9:-1",
             "4 7:1", "5 8:2", "6 0:3"]
    path = tmp_path / "data.libfm"
    path.write_text("\n".join(lines) + "\n")
    expected = packed_rows(row for line in lines if line.split("#")[0].strip()
                           for row in unpack(parse_libfm_line(line)))
    assert packed_equal(load_libfm(path), expected)
    empty = tmp_path / "empty.libfm"
    empty.write_text("# nothing\n")
    assert packed_equal(load_libfm(empty), packed_rows([]))


def test_load_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "data.libfm"
    path.write_text("# header\n\n1.0 0:1\n   \n0.0 1:1 # note\n")
    assert len(load_libfm(path)) == 2


def test_load_error_names_file_and_line(tmp_path):
    path = tmp_path / "bad.libfm"
    path.write_text("1.0 0:1\n1.0 0:1 0:2\n")
    with pytest.raises(DataFormatError, match=r"bad\.libfm.*line 2"):
        load_libfm(path)


_MALFORMED = "want index:value with an index of at most 18 digits"


@pytest.mark.parametrize("fault,message", [
    ("abc 0:1", "bad label 'abc'"),
    ("nan 0:1", "non-finite label"),
    ("1 0:1 0:2", "duplicate feature index 0"),
    ("1 5", f"malformed entry '5': {_MALFORMED}"),
    ("1 1234567890123456789:1", f"malformed entry '1234567890123456789:1': {_MALFORMED}"),
    ("1 \u00b2:1", "non-ASCII character in instance line"),
    ("1 2:x", "non-numeric value in '2:x'"),
    ("1 2:nan", "non-finite value for feature 2"),
], ids=["bad_label", "non_finite_label", "duplicate_index", "malformed_entry",
        "index_over_18_digits", "non_ascii", "non_numeric_value", "non_finite_value"])
def test_load_error_is_the_line_fault_with_file_and_line(tmp_path, fault, message):
    # the comment line counts: line numbers are the file's own
    path = tmp_path / "bad.libfm"
    path.write_text(f"1 0:1 2:1\n# a comment\n{fault}\n0 1:1\n", encoding="utf-8")
    with pytest.raises(DataFormatError) as raised:
        load_libfm(path)
    assert str(raised.value) == f"{path}: {message} (line 3)"


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


def _count_line_parses(monkeypatch):
    """The line texts parse_libfm_line is called with from now on."""
    calls, parse = [], parse_libfm_line
    monkeypatch.setattr("gemfm.data.parse_libfm_line",
                        lambda text: calls.append(text) or parse(text))
    return calls


def test_bulk_reader_re_reads_only_a_faulty_chunk(tmp_path, monkeypatch):
    # time-free work counter: a valid file is parsed without a per-line call,
    # and a bad line costs a line-by-line re-read of its own chunk only
    calls = _count_line_parses(monkeypatch)
    monkeypatch.setattr("gemfm.data._CHUNK_CHARS", 25)   # 10-character lines: 3 a chunk
    # separated by every ASCII byte str.split() splits on
    lines = [f"1{sep}{k}:1 9:1" for k, sep in enumerate(" \t\v\f\x1c\x1d\x1e\x1f ")]
    path = tmp_path / "data.libfm"
    path.write_text("".join(line + "\n" for line in lines))
    assert len(load_libfm(path)) == 9
    assert calls == []
    # comments, non-ASCII ones too, are blanked in bulk, up to a newline and not past it
    commented = "".join(f"{line} #{k} café 5:1\n" for k, line in enumerate(lines))
    path.write_text("# rows\n" + commented, encoding="utf-8")
    assert packed_equal(load_libfm(path), load_libfm_reference(path))
    assert calls == []

    lines[4] = "1 4:1 4:1"   # line 5, the middle of the second chunk
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(DataFormatError, match=r"duplicate feature index 4 \(line 5\)"):
        load_libfm(path)
    assert calls == lines[3:5]


def _assert_loads_like_reference(path):
    """The same arrays, dtypes included, or the same error message; whether
    the file is valid."""
    try:
        expected = load_libfm_reference(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as raised:
            load_libfm(path)
        assert str(raised.value) == str(exc)
        return False
    assert packed_equal(load_libfm(path), expected)
    return True


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


@pytest.mark.parametrize("byte", range(128))
def test_load_splits_where_str_split_does(tmp_path, monkeypatch, byte):
    # the byte between tokens, around them and alone on a line: only the
    # bytes str.split() splits on (and '#') leave the lines valid
    c = chr(byte)
    text = f"1{c}0:1{c}2:1\n{c}0 3:1{c}\n{c}\n"
    starts, ends, first = ascii_tokens(np.frombuffer(text.encode("ascii"), dtype=np.uint8))
    assert [(text[a:b], f) for a, b, f in zip(starts.tolist(), ends.tolist(), first.tolist())] \
        == [(token, k == 0) for line in text.split("\n") for k, token in enumerate(line.split())]
    path = tmp_path / "data.libfm"
    path.write_bytes(text.encode("ascii"))
    calls = _count_line_parses(monkeypatch)
    if _assert_loads_like_reference(path):
        assert calls == []    # read in bulk


def _spelled(width: int, first: str, last: str) -> str:
    """A decimal number spelled in exactly ``width`` characters (``first``
    alone when 1), from ``first`` to its last digit ``last``."""
    return first if width == 1 else (first + "." + "0123456789" * 4)[:width - 1] + last


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 32, 33])
def test_load_reads_numbers_at_the_key_widths(tmp_path, monkeypatch, width):
    # labels and values spelled at the edges of the 8-byte key columns, some
    # apart only in their last digit; equal numbers spelled apart; indices
    # with leading zeros next to 18 digits
    lines = [f"{_spelled(width, str(k % 10), str(k % 3))} {k}:{_spelled(width, '3', str(k % 10))} "
             f"{'9' * 18}:{_spelled(width, '-1' if width > 1 else '5', str(k % 7))}"
             for k in range(40)]
    lines += ["1 007:1 8:1.0 9:1.00 010:0.0 11:-0.0 000000000000000012:-1",
              "1.0 0:0.0 1:-0.0 2:1 3:1.00 4:1.0", "-0.0", "0.0 5:0"]
    path = tmp_path / "data.libfm"
    path.write_text("\n".join(lines) + "\n")
    calls = _count_line_parses(monkeypatch)
    assert _assert_loads_like_reference(path)
    assert (calls == []) == (width <= 32)    # longer numbers go line by line


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


def test_load_reports_the_fault_a_line_by_line_read_meets_first(tmp_path, monkeypatch):
    # a bad line 2 and undecodable bytes after it, 100 kB on or in the next
    # line: the bad line is reported, from a file opened once
    opened = []
    monkeypatch.setattr("gemfm.data.open", lambda *args, **kwargs: opened.append(args)
                        or open(*args, **kwargs), raising=False)
    path = tmp_path / "both.libfm"
    body = "1 0:1\n1 0:1 0:2\n" + "0 1:1\n" * 20_000
    path.write_bytes(body.encode() + b"1 2:1 # caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"both\.libfm.*duplicate feature index 0 \(line 2\)"):
        load_libfm(path)
    assert len(opened) == 1
    _assert_loads_like_reference(path)
    path.write_bytes(b"1 0:1\n1 0:1 0:2\n1 1:1 # caf\xe9\n")
    with pytest.raises(DataFormatError, match=r"both\.libfm.*duplicate feature index 0 \(line 2\)"):
        load_libfm(path)
    path.write_bytes(("0 1:1\n" * 20_000).encode() + b"1 2:1 # caf\xe9\n")
    with pytest.raises(DataFormatError,
                       match=r"both\.libfm: not UTF-8 text \(invalid continuation byte\)"):
        load_libfm(path)
    path.write_bytes(b"1 0:1\n1 2:1 # caf\xc3")    # cut short by the end of the file
    with pytest.raises(DataFormatError, match=r"not UTF-8 text \(unexpected end of data\)"):
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


@pytest.mark.parametrize("name", ["a b", "café", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b",
                                  "a\u2028b", "a\u2029b", "a:b"])
def test_every_field_name_reads_back(name):
    # lines end at "\n" alone, so str.splitlines' other breaks stay in the name
    space = FeatureSpace.from_cardinalities([name, "item"], [2, 3])
    assert load_field_map(format_field_map(space)) == space


@pytest.mark.parametrize("name", ["", " a", "a ", "\u00a0a", "a#c", "a\tc", "a\nc", "a\rc",
                                  "a\r\nc", 3, None])
def test_a_field_name_that_would_not_read_back_is_refused(name):
    with pytest.raises(DataFormatError, match=r"^field name .* must be non-empty text"):
        FeatureSpace((name, "item"), ((0, 2), (2, 5)))


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
    # an empty name: the line is stripped, so it has two columns
    ("\t0\t3\n", "expected name"),
    (" \t0\t3\n", "expected name"),
    ("", "no fields"),
    ("user\t0\t3\nitem\t3\t5\nitem\t5\t8\n", "'item' is named twice"),
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


@pytest.mark.parametrize("make, fragment", [
    (lambda: FeatureSpace(("a",), ((0, 2.5),)), "field 'a' end must be an integer, got 2.5"),
    (lambda: FeatureSpace(("a",), (("0", "2"),)), "field 'a' start must be an integer, got '0'"),
    (lambda: FeatureSpace(("a", "b"), ((0, 2), (2, 5.0))), "field 'b' end .* got 5.0"),
    (lambda: FeatureSpace(("a",), ((False, True),)), "field 'a' start .* got False"),
    (lambda: FeatureSpace.from_cardinalities(["a"], [2.7]), "field 'a' end .* got 2.7"),
    (lambda: FeatureSpace.from_cardinalities(["a", "b"], [2, 3.0]), "field 'b' end .* 5.0"),
])
def test_field_bounds_that_are_not_integers_are_refused(make, fragment):
    with pytest.raises(DataFormatError, match=fragment):
        make()


@pytest.mark.parametrize("names, bounds", [(("a", "b"), ((0, 2),)), (("a",), ((0, 2), (2, 3))),
                                           ((), ())])
def test_field_names_and_bounds_must_align(names, bounds):
    with pytest.raises(DataFormatError,
                       match=r"^field names and bounds must be non-empty and aligned$"):
        FeatureSpace(names, bounds)


def test_field_bounds_may_be_numpy_integers():
    space = FeatureSpace.from_cardinalities(["a", "b"], np.array([2, 3]))
    assert space.field_bounds == ((0, 2), (2, 5)) and space.num_features == 5
    assert FeatureSpace(("a",), ((np.int32(0), np.uint64(4)),)).num_features == 4


def test_field_lookup():
    space = FeatureSpace.from_cardinalities(["a", "b", "c"], [2, 3, 4])
    assert space.num_features == 9
    assert space.field_of_array(np.arange(9)).tolist() == [0, 0, 1, 1, 1, 2, 2, 2, 2]
    assert space.field_range(1) == (2, 5)
    assert space.cardinality(2) == 4
    assert space.field_id("b") == 1
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
    return packed_rows((float(i), ((i, 1.0),)) for i in range(n))


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


def test_split_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        split_dataset(packed_rows([]), (0.8, 0.1, 0.1))
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(_tiny_instances(3), (0.8, 0.1, 0.2))
    with pytest.raises(ValueError, match="positive"):
        split_dataset(_tiny_instances(3), (1.0, 0.0, 0.0))
    # NaN passed both checks, then failed inside math.floor
    with pytest.raises(ValueError, match="finite"):
        split_dataset(_tiny_instances(3), (float("nan"), 0.5, 0.5))
    # a ratio that is no number and ratios that are no sequence were TypeErrors
    with pytest.raises(ConfigError, match="three positive finite"):
        split_dataset(_tiny_instances(3), ("0.8", 0.1, 0.1))
    with pytest.raises(ConfigError, match="three positive finite"):
        split_dataset(_tiny_instances(3), 0.5)


# --- negative sampling ---

def _click(user, item, label=1.0):
    return (label, ((user, 1.0), (item, 1.0)))


def test_negative_sampling_exhausts_small_vocab():
    # 2 users, 3 items; one positive for user 0 on item A leaves items B, C
    space = FeatureSpace.from_cardinalities(["user", "item"], [2, 3])
    positives = packed_rows([_click(0, 2)])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=2, seed=0))
    assert sorted(entries[1][0] for _, entries in negatives) == [3, 4]
    assert all(label == 0.0 for label, _ in negatives)
    assert all(entries[0] == (0, 1.0) for _, entries in negatives)


def test_negative_sampling_excludes_clicked_under_same_context():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 4])
    positives = packed_rows([_click(0, 1), _click(0, 2), _click(0, 3)])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=1, seed=3))
    assert [entries[1][0] for _, entries in negatives] == [4, 4, 4]


def test_negative_sampling_warns_on_shortfall():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 2])
    positives = packed_rows([_click(0, 1)])
    with pytest.warns(RuntimeWarning, match="fewer than 3"):
        negatives = unpack(negative_sample(positives, space, item_field=1, k=3, seed=0))
    assert [entries[1][0] for _, entries in negatives] == [2]


def test_negative_sampling_copies_item_value():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 3])
    positives = packed_rows([(1.0, ((0, 1.0), (1, 0.5)))])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=2, seed=0))
    assert all(entries[1][1] == 0.5 for _, entries in negatives)


def test_negative_sampling_is_deterministic():
    rng = np.random.default_rng(11)
    space = FeatureSpace.from_cardinalities(["user", "item"], [10, 50])
    positives = packed_rows([_click(int(rng.integers(0, 10)), int(10 + rng.integers(0, 50)))
                             for _ in range(40)])
    a = negative_sample(positives, space, item_field=1, k=2, seed=9)
    b = negative_sample(positives, space, item_field=1, k=2, seed=9)
    assert packed_equal(a, b)
    assert len(a) == 80


def test_negative_sampling_is_roughly_uniform():
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 11])
    positives = packed_rows([_click(0, 1)])
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
    positives = packed_rows([
        (1.0, ((0, 1.0), (2, 1.0), (6, 1.0))),
        (1.0, ((0, 1.0), (3, 1.0), (6, 2.0))),   # another value
        (1.0, ((1, 1.0), (4, 0.5))),              # a shorter row
    ])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=3, seed=0))
    by_context = {}
    for label, entries in negatives:   # the pack checked that every row is sorted
        assert label == 0.0
        context = tuple(e for e in entries if not 2 <= e[0] < 6)
        by_context.setdefault(context, []).append(entries[1])
    assert sorted(by_context[((0, 1.0), (6, 1.0))]) == [(3, 1.0), (4, 1.0), (5, 1.0)]
    assert sorted(by_context[((0, 1.0), (6, 2.0))]) == [(2, 1.0), (4, 1.0), (5, 1.0)]
    assert sorted(by_context[((1, 1.0),)]) == [(2, 0.5), (3, 0.5), (5, 0.5)]


def test_negative_sampling_treats_signed_zeros_as_one_context():
    # (6, 0.0) == (6, -0.0), so both positives share a context and its clicks
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [1, 3, 1])
    positives = packed_rows([(1.0, ((0, 1.0), (1, 1.0), (4, 0.0))),
                             (1.0, ((0, 1.0), (2, 1.0), (4, -0.0)))])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=1, seed=0))
    assert [entries[1][0] for _, entries in negatives] == [3, 3]


def test_negative_sampling_tells_an_empty_context_from_zero_valued_entries():
    # (0, 0.0) has all-zero bits, yet it is an entry: the empty context of
    # the first positive is not the context of the second
    space = FeatureSpace.from_cardinalities(["user", "item"], [1, 3])
    positives = packed_rows([(1.0, ((1, 1.0),)), (1.0, ((0, 0.0), (2, 1.0)))])
    negatives = unpack(negative_sample(positives, space, item_field=1, k=2, seed=0))
    assert sorted(entries[-1][0] for _, entries in negatives[:2]) == [2, 3]
    assert sorted(entries[-1][0] for _, entries in negatives[2:]) == [1, 3]


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
        positives.append((1.0, tuple(entries)))
    expected, short = negative_sample_reference(positives, space, 1, k, seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = negative_sample(packed_rows(positives), space, item_field=1, k=k, seed=3)
    assert unpack(got) == expected
    assert [str(w.message) for w in caught] == (
        [f"negative_sample: {short} positives had fewer than {k} eligible items"]
        if short else [])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_negative_sampling_interleaves_pool_and_rejection_rows(k):
    # user 0 clicks 36 of the 40 items, so its rows draw from the pool; the
    # other contexts hold few clicks and rejection-sample between them, using
    # odd and even numbers of candidates
    rng = np.random.default_rng(40 + k)
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [5, 40, 3])
    positives = [(1.0, ((0, 1.0), (5 + item, 1.0))) for item in range(36)]
    for _ in range(150):
        positives.append((1.0, ((int(rng.integers(1, 5)), 1.0),
                                (5 + int(rng.integers(0, 40)), 1.0),
                                (45 + int(rng.integers(0, 3)), 1.0))))
    positives = [positives[i] for i in rng.permutation(len(positives))]
    expected, short = negative_sample_reference(positives, space, 1, k, seed=k)
    assert not short
    got = negative_sample(packed_rows(positives), space, item_field=1, k=k, seed=k)
    assert unpack(got) == expected


class _CountingGenerator:
    """A Generator that records the size of each ``integers`` call."""

    def __init__(self, seed, real):
        self.rng, self.sizes = real(seed), []

    def integers(self, low, high, size=None):
        self.sizes.append(1 if size is None else size)
        return self.rng.integers(low, high, size=size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_negative_sampling_draws_candidates_in_blocks(monkeypatch):
    # every row rejection-samples: the reference calls rng.integers once per
    # candidate, the library once per block, and no block draws a candidate
    # the reference does not
    rng = np.random.default_rng(8)
    space = FeatureSpace.from_cardinalities(["user", "item"], [300, 50])
    positives = [_click(user, 300 + int(rng.integers(0, 50))) for user in range(300)]
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingGenerator(seed, real)) or made[-1])
    expected, _ = negative_sample_reference(positives, space, 1, 2, seed=0)
    got = negative_sample(packed_rows(positives), space, item_field=1, k=2, seed=0)
    assert unpack(got) == expected
    reference, blocked = made[0].sizes, made[1].sizes
    assert set(reference) == {1}
    assert sum(blocked) == len(reference)
    rejected = len(reference) - len(expected)
    assert rejected > 0    # some row needed a second block
    assert len(blocked) <= 1 + rejected


def test_negative_sampling_finishes_refused_rows_one_candidate_at_a_time(monkeypatch):
    # 24 items and k = 2: a context with up to 8 clicks rejection-samples, so
    # up to a third of the candidates are refused; every row is a rejection row
    rng = np.random.default_rng(5)
    space = FeatureSpace.from_cardinalities(["user", "item"], [40, 24])
    positives = [_click(user, 40 + int(item)) for user in range(40)
                 for item in rng.choice(24, size=int(rng.integers(1, 9)), replace=False)]
    positives = [positives[i] for i in rng.permutation(len(positives))]
    made = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(_CountingGenerator(seed, real)) or made[-1])
    expected, short = negative_sample_reference(positives, space, 1, 2, seed=1)
    got = negative_sample(packed_rows(positives), space, item_field=1, k=2, seed=1)
    assert unpack(got) == expected and not short
    reference, blocked = made[0].sizes, made[1].sizes
    assert sum(blocked) == len(reference)
    rejected = len(reference) - len(expected)
    assert len(blocked) <= 1 + rejected
    assert len(blocked) >= 4    # refills happen only while a row is finished one by one


@settings(max_examples=120, deadline=None)
@given(k=st.integers(1, 4), items=st.integers(1, 40), seed=st.integers(0, 2**32),
       contexts=st.lists(st.dictionaries(st.integers(0, 4),
                                         st.sampled_from([1.0, 0.5, 0.0, -0.0]), max_size=4),
                         min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 39)), max_size=80))
def test_negative_sampling_matches_the_reference_fuzz(k, items, seed, contexts, picks):
    # a few contexts of any length (empty included) shared by many rows, so
    # pool, rejection and short rows interleave; 0.0 and -0.0 key one context.
    # Context slots 0-2 are the user field, before the items; 3-4 the ctx field
    space = FeatureSpace.from_cardinalities(["user", "item", "ctx"], [3, items, 2])
    positives = []
    for which, item in picks:
        entries = {slot if slot < 3 else slot + items: value
                   for slot, value in contexts[which % len(contexts)].items()}
        entries[3 + item % items] = 1.0
        positives.append((1.0, tuple(sorted(entries.items()))))
    expected, short = negative_sample_reference(positives, space, 1, k, seed=seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = negative_sample(packed_rows(positives), space, item_field=1, k=k, seed=seed)
    assert unpack(got) == expected
    assert [str(w.message) for w in caught] == (
        [f"negative_sample: {short} positives had fewer than {k} eligible items"]
        if short else [])


@pytest.mark.parametrize("span", [7, 1000, 2**31, 2**33, 2**62])
def test_bulk_integers_are_the_scalar_draws(span):
    # negative_sample relies on a block of n draws being the n scalar draws
    # it replaces, leaving the generator in the same state
    for n in (1, 2, 999, 1000, 1001):
        one, bulk = np.random.default_rng(span + n), np.random.default_rng(span + n)
        scalar = [int(one.integers(5, 5 + span)) for _ in range(n)]
        assert bulk.integers(5, 5 + span, size=n).tolist() == scalar
        assert bulk.bit_generator.state == one.bit_generator.state


def test_negative_sampling_rejects_bad_positives():
    space = FeatureSpace.from_cardinalities(["user", "item"], [2, 3])
    with pytest.raises(ValueError, match="k must be >= 1"):
        negative_sample(packed_rows([_click(0, 2)]), space, item_field=1, k=0)
    two_items = (1.0, ((0, 1.0), (2, 1.0), (3, 1.0)))
    with pytest.raises(ValueError, match="exactly one"):
        negative_sample(packed_rows([two_items]), space, item_field=1, k=1)
    no_item = (1.0, ((0, 1.0),))
    with pytest.raises(ValueError, match="positive 1 has 0 active features"):
        negative_sample(packed_rows([_click(0, 2), no_item]), space, item_field=1, k=1)
    with pytest.raises(ValueError, match="positive 0 has 2 active features"):
        negative_sample(packed_rows([two_items]), space, item_field=1, k=1)


# --- packing ---

def test_packed_instances_layout_and_take():
    instances = [
        (1.0, ((0, 1.0), (4, 2.0))),
        (0.0, ()),
        (2.0, ((2, 3.0),)),
    ]
    packed = PackedInstances.from_instances(packed_rows(instances), num_features=5)
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
        PackedInstances.from_instances(packed_rows([(1.0, ((7, 1.0),))]), num_features=5)


def test_packed_instances_concatenate_and_pass_through():
    instances = [
        (1.0, ((0, 1.0), (4, 2.0))),
        (0.0, ()),
        (2.0, ((2, 3.0),)),
    ]
    head = packed_rows(instances[:1])
    tail = packed_rows(instances[1:])
    both = head + tail
    assert packed_equal(both, packed_rows(instances))
    assert packed_equal(packed_rows([]) + both, both)
    # a PackedInstances is taken as it is, after the range check
    assert PackedInstances.from_instances(both) is both
    assert PackedInstances.from_instances(both, num_features=5) is both
    with pytest.raises(DataFormatError, match="feature index 4 outside"):
        PackedInstances.from_instances(both, num_features=4)
