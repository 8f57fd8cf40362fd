"""The package namespace: each module's ``__all__`` is its public API, and
``skewlab`` re-exports it, with numcore's ``Tolerance`` and ``DEFAULT_TOL``
and none of its kernels."""

from itertools import combinations

import skewlab
from skewlab import distributions, divisibility, errors, mechanisms, montecarlo, numcore

MODULES = (distributions, divisibility, errors, mechanisms, montecarlo)


def test_all_is_the_union_of_the_modules_lists():
    for a, b in combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(skewlab, name) is getattr(module, name), (module.__name__, name)
    assert skewlab.DEFAULT_TOL is numcore.DEFAULT_TOL and skewlab.Tolerance is numcore.Tolerance
    assert skewlab.__all__ == sorted(set(skewlab.__all__))
    declared = {name for module in MODULES for name in module.__all__}
    assert set(skewlab.__all__) == declared | {"DEFAULT_TOL", "Tolerance"}
    assert not hasattr(skewlab, "normal_cdf")  # numcore's kernels stay in numcore


def test_rows_of_the_theorem_checks_are_exported():
    assert skewlab.BoundCheckRow is divisibility.BoundCheckRow
    assert skewlab.ChainRow is divisibility.ChainRow
    assert {"BoundCheckRow", "ChainRow"} <= set(skewlab.__all__)
