import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `--hypothesis-profile=ci` prints the reproduction blob of a failing
# example, so a failure seen in CI can be replayed with @reproduce_failure.
settings.register_profile("ci", print_blob=True)

from skewlab import (
    MarshallOlkin,
    OrderStatistics,
    SkewSymmetric,
    StandardNormal,
    TwoPiece,
)

ALPHAS = (0.5, 1.0, 3.0)
MO_GAMMAS = (0.25, 0.5, 2.0, 4.0)
OS_SHAPES = ((2.0, 2.0), (1.5, 3.0), (5.0, 1.2))
TP_GAMMAS = (-0.5, 0.3)


def shipped_instances():
    """The 12 mechanism instances every acceptance suite runs over."""
    out = [(f"azzalini-{a}", SkewSymmetric.azzalini(a)) for a in ALPHAS]
    out += [(f"marshall-olkin-{g}", MarshallOlkin(g)) for g in MO_GAMMAS]
    out += [(f"orderstats-{p1}-{p2}", OrderStatistics(p1, p2)) for p1, p2 in OS_SHAPES]
    out += [(f"twopiece-eps-{g}", TwoPiece.epsilon_skew(g)) for g in TP_GAMMAS]
    return out


def bounded_instances():
    return [(n, m) for n, m in shipped_instances() if not isinstance(m, TwoPiece)]


@pytest.fixture(scope="session")
def std():
    return StandardNormal()
