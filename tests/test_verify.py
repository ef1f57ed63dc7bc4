import pytest

from adiclab.digits import BASE4
from adiclab.verify import CHECKS, MODULES, enumerated_prefixes, report_dict, run_checks


def test_enumerated_prefixes_are_base4_counters():
    prefixes = enumerated_prefixes(BASE4, 6)
    assert [p.digits for p in prefixes] == [(1,), (2,), (3,), (1, 0), (1, 1), (1, 2)]


def test_run_checks_subset_and_order():
    results = run_checks(["entropy"])
    assert results and all(r.module == "entropy" for r in results)
    names = [r.name for r in results]
    assert names == sorted(names)


def test_unknown_module_rejected():
    with pytest.raises(ValueError, match="unknown module"):
        run_checks(["numerology"])


def test_full_battery_passes():
    results = run_checks()
    assert {r.module for r in results} == set(MODULES)
    assert [r.name for r in results] == sorted(CHECKS)
    failing = [r.name for r in results if not r.passed]
    assert failing == [], f"failing checks: {failing}"
    report = report_dict(results)
    assert report["failed"] == 0
    assert report["passed"] == len(results)
