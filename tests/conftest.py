import sys
from pathlib import Path

import pytest

# make `import oracles` work from any rootdir
sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def empty_held_table(monkeypatch):
    """render's table of held-object rasters, empty for this test and put
    back after it: a test that counts rasters, Regions or hulls must not
    depend on which objects earlier tests put in the gripper."""
    from tableplan import render

    table = {}
    monkeypatch.setattr(render, "_HELD", table)
    return table


@pytest.fixture
def hull_builds(monkeypatch, empty_held_table):
    """The shape of every hull built, in order."""
    from tableplan import region as region_mod

    builds = []
    real = region_mod.containment_hull

    def counting(crop):
        hull = real(crop)
        builds.append(hull.shape)
        return hull

    monkeypatch.setattr(region_mod, "containment_hull", counting)
    return builds
