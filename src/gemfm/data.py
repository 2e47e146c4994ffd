"""Sparse transaction data: parsing, field maps, splits, negative sampling.

Instances live on disk in libFM text form (``label idx:value idx:value ...``,
``#`` starts a comment). A separate tab-separated field map assigns contiguous
feature-index ranges to named fields (user, item, context variables), which is
what graph construction and negative sampling key on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataFormatError

# digits an index may have: 10**18 - 1 still fits int64
MAX_INDEX_DIGITS = 18


@dataclass(frozen=True)
class SparseInstance:
    """One labeled transaction: (feature index, value) pairs sorted by index."""

    label: float
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        prev = -1
        for idx, value in self.entries:
            if idx <= prev:
                raise DataFormatError(
                    f"feature indices must be strictly increasing and non-negative, "
                    f"got {idx} after {prev}"
                )
            if not math.isfinite(value):
                raise DataFormatError(f"non-finite value for feature {idx}")
            prev = idx
        if not math.isfinite(self.label):
            raise DataFormatError("non-finite label")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)


def parse_libfm_line(text: str, lineno: int | None = None) -> SparseInstance:
    """Parse one ``label idx:value ...`` line.

    Entries are sorted by index; duplicate indices, malformed tokens, and
    non-finite numbers raise DataFormatError naming the offending token
    (and the line number when given).
    """
    where = f" (line {lineno})" if lineno is not None else ""
    body = text.split("#", 1)[0].strip()
    if not body:
        raise DataFormatError(f"empty instance line{where}")
    # str.isdigit and int() also accept non-ASCII digits such as '²'
    if not body.isascii():
        raise DataFormatError(f"non-ASCII character in instance line{where}")
    tokens = body.split()
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataFormatError(f"bad label {tokens[0]!r}{where}") from None
    if not math.isfinite(label):
        raise DataFormatError(f"non-finite label {tokens[0]!r}{where}")
    entries = []
    for tok in tokens[1:]:
        idx_text, sep, val_text = tok.partition(":")
        # isdigit keeps signs, exponents, and underscores out of the index
        if not sep or not idx_text.isdigit() or len(idx_text) > MAX_INDEX_DIGITS:
            raise DataFormatError(
                f"malformed entry {tok!r}: want index:value with an index of at "
                f"most {MAX_INDEX_DIGITS} digits{where}"
            )
        try:
            value = float(val_text)
        except ValueError:
            raise DataFormatError(f"non-numeric value in {tok!r}{where}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite value in {tok!r}{where}")
        entries.append((int(idx_text), value))
    entries.sort()
    for (a, _), (b, _) in zip(entries, entries[1:]):
        if a == b:
            raise DataFormatError(f"duplicate feature index {a}{where}")
    return SparseInstance(label, tuple(entries))


def format_libfm_line(instance: SparseInstance) -> str:
    """Serialize an instance so that parse_libfm_line round-trips it exactly."""
    parts = [repr(float(instance.label))]
    parts += [f"{i}:{float(v)!r}" for i, v in instance.entries]
    return " ".join(parts)


def load_libfm(path) -> list[SparseInstance]:
    """Read a libFM text file, skipping blank and comment-only lines."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.split("#", 1)[0].strip():
                    continue
                try:
                    out.append(parse_libfm_line(line, lineno))
                except DataFormatError as exc:
                    raise DataFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out


def save_libfm(instances, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(format_libfm_line(inst) + "\n")


@dataclass(frozen=True)
class FeatureSpace:
    """Feature-index layout: contiguous [start, end) ranges grouped into named fields.

    Ranges must tile [0, num_features) in order with no gaps or overlaps and
    every field must hold at least one feature.
    """

    field_names: tuple[str, ...]
    field_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.field_names or len(self.field_names) != len(self.field_bounds):
            raise DataFormatError("field names and bounds must be non-empty and aligned")
        expected = 0
        for name, (start, end) in zip(self.field_names, self.field_bounds):
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
        """Build a space from field names and per-field feature counts."""
        bounds = []
        start = 0
        for size in sizes:
            bounds.append((start, start + int(size)))
            start += int(size)
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

    def field_of(self, index: int) -> int:
        """Field id owning a feature index."""
        if not 0 <= index < self.num_features:
            raise DataFormatError(
                f"feature index {index} outside [0, {self.num_features})"
            )
        return int(np.searchsorted(self._starts, index, side="right") - 1)

    def field_of_array(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized field_of; caller guarantees indices are in range."""
        return np.searchsorted(self._starts, indices, side="right") - 1

    def field_id(self, name: str) -> int:
        try:
            return self.field_names.index(name)
        except ValueError:
            raise DataFormatError(f"unknown field {name!r}") from None

    def field_range(self, field_id: int) -> tuple[int, int]:
        return self.field_bounds[field_id]

    def cardinality(self, field_id: int) -> int:
        start, end = self.field_bounds[field_id]
        return end - start


def load_field_map(text: str) -> FeatureSpace:
    """Parse a tab-separated field map (``name<TAB>start<TAB>end`` per line).

    Blank lines and ``#`` comments are ignored. Gaps, overlaps, empty fields,
    and out-of-order ranges raise DataFormatError.
    """
    names, bounds = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split("\t")
        if len(parts) != 3:
            raise DataFormatError(
                f"field map line {lineno}: expected name<TAB>start<TAB>end, got {body!r}"
            )
        name = parts[0].strip()
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise DataFormatError(
                f"field map line {lineno}: non-integer bound in {body!r}"
            ) from None
        if not name:
            raise DataFormatError(f"field map line {lineno}: empty field name")
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
    train: list[SparseInstance]
    validation: list[SparseInstance]
    test: list[SparseInstance]


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

    Ratios must be three positives summing to 1 (within 1e-9). Sizes are
    rounded by largest remainder, train first, so the parts always cover
    every instance exactly once.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)!r}")
    if not instances:
        raise ValueError("cannot split an empty dataset")
    n = len(instances)
    sizes = _largest_remainder_sizes(n, ratios)
    perm = np.random.default_rng(seed).permutation(n)
    cut1, cut2 = sizes[0], sizes[0] + sizes[1]
    return DatasetSplit(
        train=[instances[i] for i in perm[:cut1]],
        validation=[instances[i] for i in perm[cut1:cut2]],
        test=[instances[i] for i in perm[cut2:]],
    )


def negative_sample(positives, space: FeatureSpace, item_field: int, k: int,
                    seed: int = 0) -> list[SparseInstance]:
    """Draw k label-0 instances per positive by swapping in unseen items.

    Each negative copies the positive's context entries verbatim and replaces
    the single item-field entry with an item drawn uniformly, without
    replacement across the k draws, from the item vocabulary minus every item
    that appears with that exact context among the positives. When fewer than
    k eligible items exist, the shortfall is kept (not padded) and a single
    RuntimeWarning reports how many positives came up short.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    start, end = space.field_range(item_field)
    contexts = []
    clicked: dict[tuple, set[int]] = {}
    for pos, inst in enumerate(positives):
        item_entries = [(i, v) for i, v in inst.entries if start <= i < end]
        if len(item_entries) != 1:
            raise ValueError(
                f"positive {pos} has {len(item_entries)} active features in the "
                f"item field; exactly one is required"
            )
        context = tuple(e for e in inst.entries if not (start <= e[0] < end))
        contexts.append((context, item_entries[0]))
        clicked.setdefault(context, set()).add(item_entries[0][0])

    rng = np.random.default_rng(seed)
    vocab = end - start
    negatives = []
    short = 0
    for context, (_, item_value) in contexts:
        taken = clicked[context]
        eligible = vocab - len(taken)
        take = min(k, eligible)
        if take < k:
            short += 1
        if take == 0:
            continue
        if eligible >= 8 * k:
            # rejection sampling; sequential distinct draws stay uniform
            # without replacement and avoid materializing the pool
            draws: list[int] = []
            seen: set[int] = set()
            while len(draws) < take:
                candidate = int(rng.integers(start, end))
                if candidate in taken or candidate in seen:
                    continue
                seen.add(candidate)
                draws.append(candidate)
        else:
            pool = np.setdiff1d(np.arange(start, end, dtype=np.int64),
                                np.fromiter(taken, dtype=np.int64))
            draws = [int(d) for d in rng.choice(pool, size=take, replace=False)]
        for drawn in draws:
            entries = sorted(context + ((drawn, item_value),))
            negatives.append(SparseInstance(0.0, tuple(entries)))
    if short:
        warnings.warn(
            f"negative_sample: {short} positives had fewer than {k} eligible items",
            RuntimeWarning,
            stacklevel=2,
        )
    return negatives


@dataclass(frozen=True, eq=False)
class PackedInstances:
    """Columnar (CSR-style) form of an instance list for vectorized scoring."""

    labels: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def from_instances(cls, instances, num_features: int | None = None) -> "PackedInstances":
        n = len(instances)
        lengths = np.fromiter((len(p.entries) for p in instances), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.array(
            [i for p in instances for i, _ in p.entries], dtype=np.int64
        )
        values = np.array(
            [v for p in instances for _, v in p.entries], dtype=np.float64
        )
        labels = np.array([p.label for p in instances], dtype=np.float64)
        if num_features is not None and indices.size:
            top = int(indices.max())
            if top >= num_features:
                raise DataFormatError(
                    f"feature index {top} outside feature space of size {num_features}"
                )
        return cls(labels, indptr, indices, values)

    def take(self, selection) -> "PackedInstances":
        """Sub-pack holding the given instance rows, in the given order."""
        sel = np.asarray(selection, dtype=np.int64)
        lengths = np.diff(self.indptr)
        out_lengths = lengths[sel]
        out_indptr = np.zeros(sel.size + 1, dtype=np.int64)
        np.cumsum(out_lengths, out=out_indptr[1:])
        total = int(out_indptr[-1])
        if total:
            offsets = np.arange(total, dtype=np.int64) - np.repeat(out_indptr[:-1], out_lengths)
            source = np.repeat(self.indptr[sel], out_lengths) + offsets
        else:
            source = np.empty(0, dtype=np.int64)
        return PackedInstances(
            self.labels[sel], out_indptr, self.indices[source], self.values[source]
        )
