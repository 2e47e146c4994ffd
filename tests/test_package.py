"""Package hygiene: the public names resolve, the source keeps its line width, and scalar
arguments, '#' comments, the bytes the bulk readers take and scipy's private sparse
kernels are each handled in one place."""

from pathlib import Path

import gemfm

SRC = Path(gemfm.__file__).resolve().parent
MAX_COLUMNS = 100


def test_every_public_name_resolves():
    missing = [name for name in gemfm.__all__ if not hasattr(gemfm, name)]
    assert missing == []
    assert len(set(gemfm.__all__)) == len(gemfm.__all__)


def test_no_source_line_is_wider_than_the_convention():
    wide = [f"{path.name}:{lineno}: {len(line)} columns"
            for path in sorted(SRC.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert wide == []


def test_scalar_arguments_are_checked_only_by_errors_check():
    # an argument check written by hand names numbers.Integral or numbers.Real;
    # errors.check is the one function that may
    by_hand = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
               and any(kind in path.read_text(encoding="utf-8")
                       for kind in ("numbers.Integral", "numbers.Real"))]
    assert by_hand == []


def test_comments_are_stripped_only_by_data():
    # data.content_lines is the one comment and blank-line rule of the line readers
    by_hand = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "data.py"
               and 'split("#"' in path.read_text(encoding="utf-8")]
    assert by_hand == []


def test_bulk_bytes_are_chosen_only_by_data():
    # data.bulk_bytes is the one rule of which bytes the bulk parsers take
    by_hand = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "data.py"
               and any(call in path.read_text(encoding="utf-8")
                       for call in (".isascii()", 'encode("ascii")'))]
    assert by_hand == []


def test_scipy_private_kernels_are_called_only_by_model():
    # model._csr_dense is the one caller of scipy.sparse._sparsetools, a private module;
    # test_model's bitwise test of it against scipy's own product guards each upgrade
    by_hand = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
               and "_sparsetools" in path.read_text(encoding="utf-8")]
    assert by_hand == []
