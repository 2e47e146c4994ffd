"""Sparse transaction data: parsing, field maps, splits, negative sampling.

Instances live on disk in libFM text form (``label idx:value idx:value ...``,
``#`` starts a comment). A separate tab-separated field map assigns contiguous
feature-index ranges to named fields (user, item, context variables), which is
what graph construction and negative sampling key on.

In memory, any number of instances is one PackedInstances (CSR arrays):
reading, generating, splitting, negative sampling, graph building and the
model all produce and take it, and nothing else. Each pack checks its own
rows when it is made, so every pack can be saved and read back.

Files are read a chunk of whole lines at a time (read_libfm), each parsed
with array operations straight into CSR arrays. parse_libfm_line is the
one-line parser and the one diagnosis of errors: a chunk that fails a bulk
check is read again line by line through it, and the file reader adds the
file and line number to the error it raises.
"""

from __future__ import annotations

import io
import math
import warnings
from collections.abc import Iterator, Sized
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataFormatError, check
from .seeding import seeded_rng

# digits an index may have: 10**18 - 1 still fits int64
MAX_INDEX_DIGITS = 18


def parse_index(text: str) -> int | None:
    """The integer ``text`` spells in at most MAX_INDEX_DIGITS ASCII digits, or
    None (int() also takes signs, underscores, spaces and digits such as '٣')."""
    if text.isascii() and text.isdigit() and len(text) <= MAX_INDEX_DIGITS:
        return int(text)
    return None


def parse_libfm_line(text: str) -> PackedInstances:
    """Parse one ``label idx:value ...`` line into a one-row PackedInstances.

    Entries are sorted by index. Malformed tokens raise DataFormatError naming
    the token, and the pack's own checks refuse duplicate indices and
    non-finite numbers; the file reader adds the file and line to the message.
    """
    body = text.split("#", 1)[0].strip()
    if not body:
        raise DataFormatError("empty instance line")
    # str.isdigit and int() also accept non-ASCII digits such as '²'
    if not body.isascii():
        raise DataFormatError("non-ASCII character in instance line")
    tokens = body.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataFormatError(f"bad label {tokens[0]!r}") from None
    entries = []
    for tok in tokens[1:]:
        idx_text, sep, val_text = tok.partition(":")
        index = parse_index(idx_text)
        if not sep or index is None:
            raise DataFormatError(
                f"malformed entry {tok!r}: want index:value with an index of at "
                f"most {MAX_INDEX_DIGITS} digits"
            )
        try:
            entries.append((index, float(val_text)))
        except ValueError:
            raise DataFormatError(f"non-numeric value in {tok!r}") from None
    entries.sort()
    return PackedInstances(np.array([label]), np.array([0, len(entries)], dtype=np.int64),
                           np.array([i for i, _ in entries], dtype=np.int64),
                           np.array([v for _, v in entries], dtype=np.float64))


# rows save_libfm spells per write: bounds its token matrix
_CHUNK_ROWS = 8192
# characters load_libfm reads per chunk, completed to a whole line
_CHUNK_CHARS = 1 << 19
# a longer label or value sends its chunk to the line-by-line parser
_MAX_NUMBER_CHARS = 32


def load_libfm(path) -> PackedInstances:
    """Read a libFM text file, skipping blank and comment-only lines: the
    chunks of read_libfm, concatenated."""
    return _concat([_no_rows(), *read_libfm(path)])


def read_libfm(path) -> Iterator[PackedInstances]:
    """The rows of a libFM text file, one chunk of whole lines at a time, so
    a caller that keeps only what it needs of each holds one chunk.

    The file is read once, a byte that is not UTF-8 as a lone surrogate. Each
    chunk is parsed with array operations straight into CSR arrays. A chunk
    that fails any check is re-read line by line through parse_libfm_line,
    which raises the error naming the file and line, or parses it if valid.
    """
    lineno = 1    # the first line not yet yielded
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            if not chunk.endswith("\n"):
                chunk += fh.readline()
            packed = _parse_chunk(chunk)
            yield _parse_lines(io.StringIO(chunk), lineno, path) if packed is None else packed
            lineno += chunk.count("\n")


def content_lines(lines, start: int = 1) -> Iterator[tuple[int, str]]:
    """(number from ``start``, text before any '#', stripped) of each line with such text."""
    for lineno, line in enumerate(lines, start=start):
        if body := line.split("#", 1)[0].strip():
            yield lineno, body


def _parse_lines(lines, lineno: int, path) -> PackedInstances:
    """The rows of ``lines`` (numbered from ``lineno``) through parse_libfm_line;
    the first line that is not UTF-8 text or not a valid row raises."""
    # a line with its newline decodes as it does within the file
    decoded = (line.encode("utf-8", "surrogateescape").decode("utf-8") for line in lines)
    rows = []
    try:
        for lineno, body in content_lines(decoded, lineno):
            rows.append(parse_libfm_line(body))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc} (line {lineno})") from None
    return _concat([_no_rows(), *rows])


def ascii_tokens(buf: np.ndarray):
    """Start and end of every token of the ASCII bytes ``buf``, split where
    str.split() splits (bytes 9-13, 28-31 and 32), and whether each token is
    the first of its line (``buf`` starts at the start of a line)."""
    space = (buf == 32) | (buf - 9 < 5) | (buf - 28 < 4)    # bytes below 9, 28 wrap
    edges = np.flatnonzero(np.diff(np.r_[True, space, True]))    # start, end, start, ...
    starts, ends = edges[0::2], edges[1::2]
    first = np.zeros(starts.size + 1, dtype=bool)
    first[np.searchsorted(starts, np.flatnonzero(buf == 10))] = True
    first[0] = True
    return starts, ends, first[:-1]


def bulk_bytes(text: str) -> np.ndarray | None:
    """The UTF-8 bytes of ``text`` with each line blanked (to spaces) from its
    first '#' up to its newline: the bytes the bulk parsers take. None when
    ``text`` holds a lone surrogate (an undecodable byte) or a non-ASCII byte
    or a NUL remains (a NUL would vanish from a fixed-width bytes key)."""
    try:
        buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    if "#" in text:
        seen = np.cumsum(buf == 35)    # '#' so far
        buf = np.where(seen > np.maximum.accumulate(np.where(buf == 10, seen, 0)), 32, buf)
    # plain ASCII text skips the array test, in which a NUL wraps to 255
    return buf if (text.isascii() and "\0" not in text) or not np.any(buf - 1 >= 127) else None


def parse_indices(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """parse_index over the spans [starts, ends) of ``buf``, place by place (0 before a span):
    the int64 each spells in 1 to MAX_INDEX_DIGITS ASCII digits, or None if any does not."""
    lengths = ends - starts
    width = int(lengths.max(initial=0))
    if width > MAX_INDEX_DIGITS or lengths.min(initial=1) < 1:
        return None
    value = np.zeros(starts.size, dtype=np.int64)
    for back in range(width, 0, -1):    # the digit ``back`` places before the end
        digit = np.where(lengths >= back, buf.take(ends - back, mode="clip") - 48, 0)
        if digit.max(initial=0) > 9:    # a byte below '0' wraps to > 9
            return None
        value = value * 10 + digit
    return value


def _parse_floats(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """float() of each span of ``buf``, called once per distinct spelling so
    the bits are Python's; None if a span is too long or float() rejects it.
    Spellings are grouped as NUL-padded rows of 8k bytes, a uint64 if k = 1."""
    lengths = ends - starts
    width = int(lengths.max(initial=1))
    if width > _MAX_NUMBER_CHARS:
        return None
    text = np.zeros((starts.size, -(-width // 8) * 8), dtype=np.uint8)
    for column in range(width):
        text[:, column] = np.where(column < lengths, buf.take(starts + column, mode="clip"), 0)
    keys = text.view(f"S{text.shape[1]}").ravel()
    spellings, where = np.unique(keys.view(np.uint64) if width <= 8 else keys, return_inverse=True)
    try:
        table = np.array([float(s) for s in spellings.view(keys.dtype).tolist()], dtype=np.float64)
    except ValueError:
        return None
    return table[where]


def _parse_chunk(text: str) -> PackedInstances | None:
    """The rows of whole libFM lines parsed with array operations, or None
    when a check fails: parse_libfm_line then names the fault."""
    if (buf := bulk_bytes(text)) is None:
        return None
    starts, ends, label = ascii_tokens(buf)
    entry = ~label
    entry_starts, entry_ends = starts[entry], ends[entry]
    # entry k holds the k-th ':' with an index before it and a value after
    # it; with as many ':' as entries, no label and no entry holds another
    colons = np.flatnonzero(buf == 58)
    if colons.size != entry_starts.size or np.any(
            (colons <= entry_starts) | (colons >= entry_ends - 1)):
        return None
    indices = parse_indices(buf, entry_starts, colons)
    numbers = _parse_floats(buf, np.concatenate([starts[label], colons + 1]),
                            np.concatenate([ends[label], entry_ends]))
    if indices is None or numbers is None:
        return None
    num_rows = int(label.sum())
    entry_rows = (np.cumsum(label) - 1)[entry]
    values = numbers[num_rows:]
    if np.any((entry_rows[1:] == entry_rows[:-1]) & (indices[1:] <= indices[:-1])):
        order = np.lexsort((indices, entry_rows))
        indices, values = indices[order], values[order]
    indptr = np.r_[0, np.cumsum(np.bincount(entry_rows, minlength=num_rows))]
    try:    # the pack refuses duplicate indices and non-finite numbers
        return PackedInstances(numbers[:num_rows], indptr, indices, values)
    except DataFormatError:
        return None


def save_libfm(instances: PackedInstances, path) -> None:
    """Write a pack one row per line, ``label idx:value ...`` with every
    number spelled by ``repr`` (so load_libfm reads back the same bits), a
    chunk of rows per write.

    Each chunk is one uint8 matrix with a row per token (a label, or an
    ``index:value`` entry), NUL-padded: index digits by column arithmetic,
    labels and values spelled by ``repr`` once per distinct float64 bit
    pattern (so -0.0 and subnormals keep Python's spelling), each
    token ended by a space or, last in its line, a newline. Dropping the NULs
    leaves the chunk's text.
    """
    packed = PackedInstances.from_instances(instances)
    with open(path, "wb") as fh:
        for lo in range(0, len(packed), _CHUNK_ROWS):
            fh.write(_libfm_bytes(packed.row_range(lo, lo + _CHUNK_ROWS)))


def _libfm_bytes(rows: PackedInstances) -> bytes:
    """The libFM lines of packed rows, as save_libfm describes."""
    labels, indptr, indices = rows.labels, rows.indptr, rows.indices
    digits, spelled = spell_integers(indices), _spell_floats(rows.values)
    spelled_labels = _spell_floats(labels)
    colon = digits.shape[1]
    width = max(spelled_labels.shape[1], colon + 1 + spelled.shape[1]) + 1
    entries = np.zeros((indices.size, width), dtype=np.uint8)
    entries[:, :colon] = digits
    entries[:, colon] = ord(":")
    entries[:, colon + 1:colon + 1 + spelled.shape[1]] = spelled
    # token t of the chunk: row r's label is token indptr[r] + r, its
    # entries the tokens after it
    rows = np.arange(labels.size)
    tokens = np.empty((labels.size + indices.size, width), dtype=np.uint8)
    tokens[np.arange(indices.size) + np.repeat(rows + 1, np.diff(indptr))] = entries
    label_at = indptr[:-1] + rows
    tokens[label_at] = 0
    tokens[label_at, :spelled_labels.shape[1]] = spelled_labels
    tokens[:, -1] = ord(" ")
    tokens[indptr[1:] + rows, -1] = ord("\n")
    return tokens.tobytes().translate(None, b"\0")


def spell_integers(numbers: np.ndarray) -> np.ndarray:
    """The decimal spelling of each non-negative integer, as ``str()`` gives
    it, in the rows of a uint8 matrix: right-aligned, NUL-padded on the left."""
    rest = numbers = np.asarray(numbers, dtype=np.int64)
    places = len(str(int(rest.max(initial=0))))
    if places < 10:    # below 2**32: a narrower division is faster
        rest = rest.astype(np.uint32)
    ten = rest.dtype.type(10)
    text = np.zeros((numbers.size, places), dtype=np.uint8)
    for column in range(places - 1, -1, -1):
        quotient = rest // ten
        digit = (rest - quotient * ten).astype(np.uint8) + np.uint8(48)
        text[:, column] = np.where(rest > 0, digit, np.uint8(0))
        rest = quotient
    text[numbers == 0, -1] = ord("0")
    return text


def _spell_floats(numbers: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 as the NUL-padded rows of a uint8 matrix,
    called once per distinct bit pattern."""
    numbers = np.asarray(numbers, dtype=np.float64)
    patterns, where = np.unique(numbers.view(np.uint64), return_inverse=True)
    spelled = np.array([repr(x) for x in patterns.view(np.float64).tolist()] or [""],
                       dtype=np.bytes_)
    return spelled.view(np.uint8).reshape(-1, spelled.itemsize)[where]


@dataclass(frozen=True)
class FeatureSpace:
    """Feature-index layout: contiguous [start, end) ranges grouped into named fields.

    Ranges must tile [0, num_features) in order with no gaps or overlaps,
    every field must hold at least one feature and no two fields share a name.
    A name must read back from a field map and be nameable on the command
    line: non-empty text with no '#', ',', ':', tab, line break or space at
    either end.
    """

    field_names: tuple[str, ...]
    field_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.field_names or len(self.field_names) != len(self.field_bounds):
            raise DataFormatError("field names and bounds must be non-empty and aligned")
        expected = 0
        for k, (name, (start, end)) in enumerate(zip(self.field_names, self.field_bounds)):
            if (not isinstance(name, str) or not name or name != name.strip()
                    or any(c in name for c in "#,:\t\n\r")):
                raise DataFormatError(f"field name {name!r} must be non-empty text with no '#', "
                                      "',', ':', tab, line break or space at either end")
            if name in self.field_names[:k]:
                raise DataFormatError(f"field {name!r} is named twice")
            check(f"field {name!r} start", start, int, error=DataFormatError)
            check(f"field {name!r} end", end, int, error=DataFormatError)
            if start != expected:
                raise DataFormatError(
                    f"field {name!r} starts at {start}, expected {expected} "
                    f"(ranges must tile [0, m) contiguously)"
                )
            if end <= start:
                raise DataFormatError(f"field {name!r} is empty ([{start}, {end}))")
            expected = end

    @classmethod
    def from_cardinalities(cls, names, sizes) -> "FeatureSpace":
        """Build a space from field names and per-field feature counts, each an integer."""
        bounds, start = [], 0
        for size in sizes:    # a count that is not an integer reaches the bound check
            bounds.append((start, start + size))
            start += size
        return cls(tuple(names), tuple(bounds))

    @property
    def num_features(self) -> int:
        return self.field_bounds[-1][1]

    @property
    def num_fields(self) -> int:
        return len(self.field_names)

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([s for s, _ in self.field_bounds], dtype=np.int64)

    def field_of_array(self, indices: np.ndarray) -> np.ndarray:
        """The field id owning each feature index; the caller guarantees every
        index lies in [0, num_features)."""
        return np.searchsorted(self._starts, indices, side="right") - 1

    def field_id(self, field) -> int:
        """The id of a field given by name or id (ConfigError outside [0, num_fields))."""
        if isinstance(field, str):
            try:
                return self.field_names.index(field)
            except ValueError:
                raise DataFormatError(f"unknown field {field!r}") from None
        return int(check("field id", field, int, 0, below=self.num_fields))

    def field_range(self, field_id: int) -> tuple[int, int]:
        return self.field_bounds[self.field_id(field_id)]

    def cardinality(self, field_id: int) -> int:
        start, end = self.field_range(field_id)
        return end - start


def load_field_map(text: str) -> FeatureSpace:
    """Parse a tab-separated field map (``name<TAB>start<TAB>end`` per ``\\n``-ended line).

    Blank lines and ``#`` comments are ignored. Gaps, overlaps, empty fields,
    and out-of-order ranges raise DataFormatError.
    """
    names, bounds = [], []
    for lineno, body in content_lines(text.split("\n")):
        parts = body.split("\t")
        if len(parts) != 3:
            raise DataFormatError(
                f"field map line {lineno}: expected name<TAB>start<TAB>end, got {body!r}"
            )
        name = parts[0].strip()    # not empty: content_lines strips the line
        start, end = parse_index(parts[1].strip()), parse_index(parts[2].strip())
        if start is None or end is None:
            raise DataFormatError(
                f"field map line {lineno}: non-integer bound in {body!r}"
            )
        names.append(name)
        bounds.append((start, end))
    if not names:
        raise DataFormatError("field map has no fields")
    return FeatureSpace(tuple(names), tuple(bounds))


def format_field_map(space: FeatureSpace) -> str:
    lines = [
        f"{name}\t{start}\t{end}"
        for name, (start, end) in zip(space.field_names, space.field_bounds)
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DatasetSplit:
    train: PackedInstances
    validation: PackedInstances
    test: PackedInstances


def _largest_remainder_sizes(n: int, ratios) -> list[int]:
    # Largest-remainder rounding; ties and leftovers go to earlier parts
    # (train first), so 1 instance at 8:1:1 lands in train.
    exact = [n * r for r in ratios]
    sizes = [int(math.floor(e)) for e in exact]
    leftover = n - sum(sizes)
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(instances, ratios=(0.8, 0.1, 0.1), seed: int = 0) -> DatasetSplit:
    """Shuffle once, then cut into train/validation/test by the given ratios.

    Ratios must be three finite positives summing to 1 (within 1e-9). Sizes
    are rounded by largest remainder, train first, so the parts always cover
    every instance exactly once.
    """
    if not isinstance(ratios, Sized) or len(ratios) != 3:
        raise ConfigError(f"need three positive finite ratios, got {ratios!r}")
    for ratio in ratios:
        check("each of three positive finite ratios", ratio, float, above=0)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {sum(ratios)!r}")
    packed = PackedInstances.from_instances(instances)
    n = len(packed)
    if not n:
        raise ConfigError("cannot split an empty dataset")
    sizes = _largest_remainder_sizes(n, ratios)
    perm = seeded_rng(seed).permutation(n)
    cut1, cut2 = sizes[0], sizes[0] + sizes[1]
    return DatasetSplit(packed.take(perm[:cut1]), packed.take(perm[cut1:cut2]),
                        packed.take(perm[cut2:]))


def negative_sample(positives, space: FeatureSpace, item_field: int, k: int,
                    seed: int = 0) -> PackedInstances:
    """Draw k label-0 instances per positive by swapping in unseen items.

    Each negative copies the positive's context entries verbatim and replaces
    the single item-field entry with an item drawn uniformly, without
    replacement across the k draws, from the item vocabulary minus every item
    that appears with that exact context among the positives. When fewer than
    k eligible items exist, the shortfall is kept (not padded) and a single
    RuntimeWarning reports how many positives came up short.

    A positive with at least 8k eligible items draws candidates until k are
    new (rejection sampling), in blocks of the draws certain to be made before
    the next pool draw; one with fewer draws from its pool of eligible items
    with ``rng.choice``. The rows after a rejection row drawn a candidate at a
    time are checked a window at a time, up to the first that refuses one.
    """
    check("k", k, int, 1)
    rng = seeded_rng(seed)
    start, end = space.field_range(item_field)
    packed = PackedInstances.from_instances(positives)
    in_item = (packed.indices >= start) & (packed.indices < end)
    per_row = np.diff(np.r_[0, np.cumsum(in_item)][packed.indptr])
    bad = np.flatnonzero(per_row != 1)
    if bad.size:
        raise ConfigError(f"positive {bad[0]} has {per_row[bad[0]]} active features in the "
                          f"item field; exactly one is required")
    item_at = np.flatnonzero(in_item)   # one entry per row, in row order
    # a context is the row's other entries; one int64 key row holds their indices
    # + 1 (0 pads) and value bits (+ 0.0 turns -0.0 into 0.0, which compare equal)
    lengths = np.diff(packed.indptr) - 1
    keys = np.zeros((len(packed), 2 * int(lengths.max(initial=1))), dtype=np.int64)
    at = np.arange(lengths.sum()) + np.repeat(
        np.arange(len(packed)) * (keys.shape[1] + 1) - packed.indptr[:-1], lengths)
    keys.ravel()[at] = packed.indices[~in_item] + 1
    values = packed.values[~in_item].astype(np.float64) + 0.0
    keys.ravel()[at + keys.shape[1] // 2] = values.view(np.int64)
    ids: dict[bytes, int] = {}
    context = np.array([ids.setdefault(key, len(ids)) for key in
                        keys.view(f"V{8 * keys.shape[1]}").ravel().tolist()], dtype=np.int64)
    # the distinct (context, item) pairs as sorted keys context * vocab + item - start,
    # and a last key above them all that keeps every search position in range
    vocab = end - start
    pairs = np.r_[np.unique(context * vocab + packed.indices[item_at] - start), 2**63 - 1]
    seg = pairs.searchsorted(np.arange(len(packed) + 1) * vocab)
    eligible = vocab - np.diff(seg)[context]
    takes, pool = np.minimum(k, eligible), eligible < 8 * k
    rows = np.flatnonzero(takes > 0)
    base, pools = context[rows] * vocab - start, np.flatnonzero(pool[rows])
    # rows[i:ends[i]] need the draws certain to be made before the next pool draw;
    # refusals[j] is about how many candidates the rows before rows[j] refuse
    ends = np.r_[pools, rows.size][pools.searchsorted(np.arange(rows.size))]
    refusals = np.r_[0, np.cumsum(k * (vocab - eligible[rows] + k) / vocab)]
    drawn, block, pos, i = [], np.empty(0, dtype=np.int64), 0, 0
    while i < rows.size:
        if pool[rows[i]]:
            free = np.ones(vocab, dtype=bool)
            free[pairs[seg[context[rows[i]]]:seg[context[rows[i]] + 1]] % vocab] = False
            drawn.append(rng.choice(np.flatnonzero(free) + start, size=takes[rows[i]],
                                    replace=False))
            i += 1
            continue
        at, draws = int(base[i]), []    # a candidate at a time
        while len(draws) < k:
            if pos == block.size:
                block, pos = rng.integers(start, end, size=(ends[i] - i) * k - len(draws)), 0
            item, pos = int(block[pos]), pos + 1
            if item not in draws and pairs[pairs.searchsorted(at + item)] != at + item:
                draws.append(item)
        drawn.append(draws)
        i += 1
        # the candidates the block holds (it ends with its run) for the rows
        # expected to refuse two between them, checked at once
        last = min(int(refusals.searchsorted(refusals[i] + 2)), i + (block.size - pos) // k)
        window = block[pos:pos + (last - i) * k].reshape(-1, k)
        wanted = base[i:last, None] + window
        refused = pairs[pairs.searchsorted(wanted)] == wanted
        for lag in range(1, k):    # a repeat within its row
            refused[:, lag:] |= window[:, lag:] == window[:, :-lag]
        kept = int(np.count_nonzero(np.cumsum(refused.any(axis=1)) == 0))    # refuse none
        drawn.append(window[:kept].ravel())
        pos, i = pos + kept * k, i + kept
    short = int(np.count_nonzero(takes < k))
    if short:
        warnings.warn(f"negative_sample: {short} positives had fewer than {k} eligible items",
                      RuntimeWarning, stacklevel=2)
    # the item field is one contiguous range with one entry per row, so
    # swapping that entry's index leaves every row sorted
    rows_taken = np.repeat(np.arange(len(packed)), takes)
    out = packed.take(rows_taken)
    offsets = (item_at - packed.indptr[:-1])[rows_taken]
    out.indices[out.indptr[:-1] + offsets] = np.concatenate(drawn or [[]])
    return PackedInstances(np.zeros(len(out)), out.indptr, out.indices, out.values)


@dataclass(frozen=True, eq=False)
class PackedInstances:
    """Instances in CSR form: row r has label ``labels[r]`` and the entries
    ``indices[indptr[r]:indptr[r + 1]]`` with their ``values``; the one
    in-memory form of any number of instances. Making one checks its rows
    (DataFormatError): 1-d float64 labels and values, int64 indptr and indices;
    indptr rises from 0 to the number of indices and values, one entry per row
    plus one; each row's indices increase strictly within [0, 10**18); all finite."""

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        arrays = (self.labels, self.indptr, self.indices, self.values)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == kind for a, kind
                   in zip(arrays, (np.float64, np.int64, np.int64, np.float64))):
            raise DataFormatError("need 1-d float64 labels and values, int64 indptr and indices")
        labels, indptr, indices, values = arrays
        n = indices.size
        if (indptr.size != labels.size + 1 or indptr[0] != 0 or indptr[-1] != n
                or values.size != n or np.any(indptr[1:] < indptr[:-1])):
            raise DataFormatError(f"indptr must rise from 0 to the {n} indices and values, "
                                  f"in one entry per row plus one")
        first = np.zeros(n + 1, dtype=bool)    # where a row starts
        first[indptr] = True
        limit = 10**MAX_INDEX_DIGITS    # a longer index would not read back
        wrong = indices.view(np.uint64) >= limit    # a negative index wraps past it
        wrong[1:] |= (indices[1:] <= indices[:-1]) & ~first[1:-1]
        wrong |= ~np.isfinite(values)
        if wrong.any():
            at = int(wrong.argmax())
            index, before = int(indices[at]), -1 if first[at] else int(indices[at - 1])
            raise DataFormatError(
                f"negative feature index {index}" if index < 0 else
                f"feature index {index} over {MAX_INDEX_DIGITS} digits" if index >= limit else
                f"duplicate feature index {index}" if index == before else
                f"unsorted feature index {index} after {before}" if index < before else
                f"non-finite value for feature {index}")
        if not np.isfinite(labels).all():
            raise DataFormatError("non-finite label")

    def __len__(self) -> int:
        return len(self.labels)

    def __add__(self, other: PackedInstances) -> PackedInstances:
        """The rows of ``self`` followed by the rows of the pack ``other``."""
        return _concat([self, PackedInstances.from_instances(other)])

    @classmethod
    def from_instances(cls, instances, num_features: int | None = None) -> PackedInstances:
        """``instances`` as it is, if it is a PackedInstances (else ConfigError) with,
        given ``num_features``, no index past ``num_features - 1`` (else DataFormatError)."""
        if not isinstance(instances, PackedInstances):
            raise ConfigError(f"instances must be a PackedInstances, got "
                              f"{type(instances).__name__}")
        if num_features is not None and instances.indices.size:
            top = int(instances.indices.max())
            if top >= num_features:
                raise DataFormatError(f"feature index {top} outside [0, {num_features})")
        return instances

    def row_range(self, lo: int, hi: int) -> "PackedInstances":
        """Rows lo up to hi (clipped to the last), as views of these arrays
        but for the rebased indptr."""
        indptr = self.indptr[lo:hi + 1]
        a, b = indptr[0], indptr[-1]
        return _taken(self.labels[lo:hi], indptr - a, self.indices[a:b], self.values[a:b])

    def take(self, selection) -> "PackedInstances":
        """Sub-pack holding the given instance rows, in the given order."""
        sel = np.asarray(selection, dtype=np.int64)
        out_lengths = np.diff(self.indptr)[sel]
        out_indptr = np.r_[0, np.cumsum(out_lengths)]
        source = np.arange(out_indptr[-1]) + np.repeat(self.indptr[sel] - out_indptr[:-1],
                                                       out_lengths)
        return _taken(self.labels[sel], out_indptr, self.indices[source], self.values[source])


def _no_rows() -> PackedInstances:
    return PackedInstances(np.zeros(0), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                           np.zeros(0))


def _concat(parts: list[PackedInstances]) -> PackedInstances:
    lengths = np.concatenate([np.diff(p.indptr) for p in parts])
    return _taken(np.concatenate([p.labels for p in parts]), np.r_[0, np.cumsum(lengths)],
                  np.concatenate([p.indices for p in parts]),
                  np.concatenate([p.values for p in parts]))


def _taken(labels, indptr, indices, values) -> PackedInstances:
    """A pack of whole rows of packs checked when made, so not checked again."""
    packed = object.__new__(PackedInstances)
    packed.__dict__.update(labels=labels, indptr=indptr, indices=indices, values=values)
    return packed
