"""Data plumbing: libFM lines, field maps, splits, negative sampling.

Run: python demos/01_data_handling.py
"""

import numpy as np

from gemfm import (FeatureSpace, SparseInstance, format_libfm_line,
                   negative_sample, parse_libfm_line, split_dataset)


def main():
    # a libFM line is "label index:value ...", indices global over all fields
    line = "1.0 3:1 17:1 208:1"
    inst = parse_libfm_line(line)
    print(f"parsed  {line!r}")
    print(f"  label={inst.label} entries={inst.entries}")
    print(f"  round-trips: {parse_libfm_line(format_libfm_line(inst)) == inst}")

    # the field map says which slice of the index range belongs to each field
    space = FeatureSpace.from_cardinalities(
        ["user", "item", "city"], [10, 190, 50])
    print(f"\nfeature space: {space.num_features} features,"
          f" fields {space.field_names}")
    indices = np.array([3, 17, 208])
    for index, fid in zip(indices.tolist(), space.field_of_array(indices).tolist()):
        lo, hi = space.field_range(fid)
        print(f"  index {index} -> field {space.field_names[fid]!r} [{lo}, {hi})")

    # deterministic shuffled split with largest-remainder rounding
    rng = np.random.default_rng(0)
    transactions = []
    for _ in range(250):
        u = int(rng.integers(0, 10))
        i = 10 + int(rng.integers(0, 190))
        c = 200 + int(rng.integers(0, 50))
        transactions.append(
            SparseInstance(1.0, ((u, 1.0), (i, 1.0), (c, 1.0))))
    split = split_dataset(transactions, (0.8, 0.1, 0.1), seed=7)
    print(f"\nsplit 250 transactions 8:1:1 -> "
          f"{len(split.train)}/{len(split.validation)}/{len(split.test)}")

    # in memory, many instances are one PackedInstances: CSR arrays whose
    # row r is indices/values[indptr[r]:indptr[r + 1]] with labels[r]
    train = split.train
    print(f"  train is packed: indptr {train.indptr[:4]}..., "
          f"indices {train.indices[:6]}..., labels {train.labels[:3]}...")

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
