"""The verification table, one test per criterion, at the stated time budgets.

Shares one AcceptanceContext across the module, as ``subdepth reproduce``
does, so the expensive objects (each wreath product S4 wr C_n, shared by the
series A and B members at that n, and its exact character table) are built
once; each criterion's stated wall-clock budget covers the work it triggers,
including any shared objects it is the first to request.  Every criterion
runs once, and its detail line must equal the one in
``golden/reproduce_details.json``.
"""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from subdepth import chartab
from subdepth.reproduce import CRITERIA, AcceptanceContext

_BUDGETS = {1: 1.0, 2: 1.0, 3: 1.0, 4: 30.0, 5: 30.0, 6: 30.0, 7: 30.0}
GOLDEN = Path(__file__).parent / "golden" / "reproduce_details.json"
_DETAILS = {}  # criterion number -> its result, as stored in GOLDEN


@pytest.fixture(scope="module")
def built():
    """Table constructions by kind while this module's criteria run."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("dixon_character_table", "direct_product_table"):
            def counted(*args, _build=getattr(chartab, name), _name=name, **kwargs):
                counts[_name] += 1
                return _build(*args, **kwargs)
            mp.setattr(chartab, name, counted)
        yield counts


@pytest.fixture(scope="module")
def actx(built):
    return AcceptanceContext()


def _run(actx, number):
    desc, fn = next((d, f) for num, d, f in CRITERIA if num == number)
    t0 = time.time()
    passed, detail = fn(actx)
    elapsed = time.time() - t0
    _DETAILS[number] = {"criterion": number, "passed": passed, "detail": detail}
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {desc}: {detail} "
          f"({elapsed:.1f}s)")
    assert passed, f"criterion {number} failed: {detail}"
    budget = _BUDGETS.get(number)
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    return detail


def test_criterion_01_klein_in_s4(actx):
    assert "depth = 2" in _run(actx, 1)


def test_criterion_02_dihedral_in_s4(actx):
    assert "depth = 4" in _run(actx, 2)


def test_criterion_03_point_stabiliser_in_s4(actx):
    assert "depth = 5" in _run(actx, 3)


def test_criterion_04_series_a_two_blocks(actx):
    assert "depth = 4" in _run(actx, 4)


def test_criterion_05_series_b_two_blocks(actx):
    assert "depth = 8" in _run(actx, 5)


def test_criterion_06_series_a_three_blocks(actx):
    assert "depth = 6" in _run(actx, 6)


def test_criterion_07_series_b_three_blocks(actx):
    assert "depth = 12" in _run(actx, 7)


def test_criterion_08_seed_structure_checks(actx):
    detail = _run(actx, 8)
    assert "n=2: all five parts pass" in detail
    assert "n=3: all five parts pass" in detail


def test_criterion_09_matrix_agreement(actx):
    assert "all 7 pairs" in _run(actx, 9)


def test_criterion_10_core_bound_tightness(actx):
    detail = _run(actx, 10)
    assert "n=2: m=2, bound=4, depth=4" in detail
    assert "n=3: m=3, bound=6, depth=6" in detail
    assert "shift-power witnesses=True" in detail


def test_criterion_11_property_suites(actx):
    detail = _run(actx, 11)
    assert "orthogonality revalidated on 12 tables" in detail
    assert "Frobenius" in detail
    assert "oracle" in detail
    assert "distances add" in detail


def test_series_a_and_b_share_their_ambient_group(actx):
    for n in (2, 3):
        assert actx.family("A", n).ambient is actx.family("B", n).ambient


def _run_the_rest(actx):
    # the criteria above share one context, as `subdepth reproduce` does
    for number, _, _ in CRITERIA:
        if number not in _DETAILS:
            _run(actx, number)


def test_reproduce_builds_no_table_twice(actx, built):
    _run_the_rest(actx)
    # groups hold their tables weakly: whoever needs one keeps it (the
    # context, reports, product tables their factors).  The lemma reads its
    # tables from the family member's report and the subgroup's factors.
    # Series A and B share S4 wr C_n, so it has one table per n, and every
    # member shares the base groups: S4, V4, D8, S3 and S4 wr C2, C3.
    assert built["dixon_character_table"] <= 6
    assert built["direct_product_table"] <= 6


def test_reproduce_details_match_the_golden(actx):
    _run_the_rest(actx)
    assert [_DETAILS[n] for n in sorted(_DETAILS)] == json.loads(GOLDEN.read_text())
