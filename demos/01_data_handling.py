"""Data plumbing: libFM lines, field maps, splits, negative sampling.

Run: python demos/01_data_handling.py
"""

import tempfile
from pathlib import Path

import numpy as np

from gemfm import (DataFormatError, FeatureSpace, PackedInstances, load_libfm,
                   negative_sample, parse_libfm_line, save_libfm, split_dataset)


def main():
    # a libFM line is "label index:value ...", indices global over all fields;
    # parsed, it is a one-row PackedInstances
    line = "1.0 3:1 17:1 208:1"
    inst = parse_libfm_line(line)
    print(f"parsed  {line!r}")
    print(f"  label={inst.labels[0]} entries={row(inst, 0)}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "one.libfm"
        save_libfm(inst, path)
        print(f"  saved as {path.read_text()!r}, read back as {row(load_libfm(path), 0)}")

    # the field map says which slice of the index range belongs to each field
    space = FeatureSpace.from_cardinalities(
        ["user", "item", "city"], [10, 190, 50])
    print(f"\nfeature space: {space.num_features} features,"
          f" fields {space.field_names}")
    indices = np.array([3, 17, 208])
    for index, fid in zip(indices.tolist(), space.field_of_array(indices).tolist()):
        lo, hi = space.field_range(fid)
        print(f"  index {index} -> field {space.field_names[fid]!r} [{lo}, {hi})")

    # in memory, many instances are one PackedInstances: CSR arrays whose
    # row r is indices/values[indptr[r]:indptr[r + 1]] with labels[r]
    rng = np.random.default_rng(0)
    indices = []
    for _ in range(250):
        u = int(rng.integers(0, 10))
        i = 10 + int(rng.integers(0, 190))
        c = 200 + int(rng.integers(0, 50))
        indices += [u, i, c]
    transactions = PackedInstances(np.ones(250), np.arange(0, 751, 3), np.array(indices),
                                   np.ones(750))
    print(f"\n250 transactions packed: indptr {transactions.indptr[:4]}..., "
          f"indices {transactions.indices[:6]}..., labels {transactions.labels[:3]}...")
    # a pack checks its rows as it is made, so it can always be saved and read back
    try:
        PackedInstances(np.ones(1), np.array([0, 2]), np.array([5, 5]), np.ones(2))
    except DataFormatError as exc:
        print(f"  a row holding index 5 twice is refused: {exc}")

    # deterministic shuffled split with largest-remainder rounding
    split = split_dataset(transactions, (0.8, 0.1, 0.1), seed=7)
    print(f"split 250 transactions 8:1:1 -> "
          f"{len(split.train)}/{len(split.validation)}/{len(split.test)}")

    # each positive spawns k label-0 copies with the item swapped for one the
    # same context never clicked
    negatives = negative_sample(split.train, space, item_field=1, k=2, seed=7)
    print(f"negative sampling: {len(split.train)} positives -> "
          f"{len(negatives)} negatives")
    print(f"  positive items stay put:  {row(split.train, 0)[1]}")
    print(f"  negative swaps the item:  {row(negatives, 0)[1]} "
          f"(label {negatives.labels[0]})")


def row(packed, r):
    """Row r of a PackedInstances as (index, value) pairs."""
    lo, hi = packed.indptr[r], packed.indptr[r + 1]
    return list(zip(packed.indices[lo:hi].tolist(), packed.values[lo:hi].tolist()))


if __name__ == "__main__":
    main()
