import pytest

from subdepth import perm
from subdepth.chartab import character_table
from subdepth.constructions import base_groups


@pytest.fixture(scope="session")
def bg():
    return base_groups()


@pytest.fixture(scope="session")
def s4_table(bg):
    return character_table(bg.s4)


@pytest.fixture(scope="session")
def v4_table(bg):
    return character_table(bg.v4)


@pytest.fixture(scope="session")
def d8_table(bg):
    return character_table(bg.d8)


@pytest.fixture
def core_enumerations(monkeypatch):
    """A list that grows by one each time the conjugates of a subgroup are
    enumerated (the single enumeration behind every core computation)."""
    calls = []
    enumerate_once = perm._conjugates_and_core

    def counting(ambient, sub):
        calls.append(sub)
        return enumerate_once(ambient, sub)

    monkeypatch.setattr(perm, "_conjugates_and_core", counting)
    return calls
