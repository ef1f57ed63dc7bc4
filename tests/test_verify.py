import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

from adiclab import verify
from adiclab.cli import main
from adiclab.digits import BASE4
from adiclab.verify import CHECKS, MODULES, enumerated_prefixes, run_checks

# The digits checks that expand every p/q in [0, 1] up to a denominator:
# their parameters and their expand calls, sum(q + 1 for q <= max). A
# faster battery must not come from checking fewer values.
EXPAND_SWEEPS = {
    "digits/period_length_bound": ({"max_denominator": 500}, 125_750),
    "digits/expand_roundtrip": ({"max_denominator": 200, "prefix_length": 64}, 20_300),
}
# sha256 of the stdout of `adiclab verify`, written when the `--mean` vector
# took the floors-and-one-run rule (`construct/mean_target_exact` reports
# its deficits and denominators).
GOLDEN_REPORT = "22bc6dbd12efc9f5017f6d7326ff03987bb60b7788de6c9f590dd80b4a7017ae"


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


def test_full_battery_passes(monkeypatch):
    running: list[str] = []
    calls: Counter = Counter()

    def counted(name, run):
        def check():
            running.append(name)
            return run()

        return check

    def expand(*args, **kwargs):
        calls[running[-1]] += 1
        return real_expand(*args, **kwargs)

    real_expand = verify.expand
    monkeypatch.setattr(verify, "expand", expand)
    for name, run in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, counted(name, run))

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN_REPORT
    report = json.loads(out.getvalue())
    results = report["checks"]
    assert {r["module"] for r in results} == set(MODULES)
    assert [r["name"] for r in results] == sorted(CHECKS)
    failing = [r["name"] for r in results if not r["passed"]]
    assert failing == [], f"failing checks: {failing}"
    assert report["failed"] == 0
    assert report["passed"] == len(results)
    by_name = {r["name"]: r for r in results}
    for name, (params, expand_calls) in EXPAND_SWEEPS.items():
        assert by_name[name]["params"] == params
        assert calls[name] == expand_calls, name
