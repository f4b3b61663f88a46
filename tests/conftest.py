import numpy as np
import pytest

from cealg.fields import field_make
from cealg.groups import FiniteGroup


@pytest.fixture(scope="session")
def f2():
    return field_make(2)


@pytest.fixture(scope="session")
def f3():
    return field_make(3)


@pytest.fixture(scope="session")
def f4():
    return field_make(2, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def validated_orders(monkeypatch):
    """The order of every table that FiniteGroup validates, in call order."""
    orders = []
    validate = FiniteGroup._validate

    def counting(self):
        orders.append(self.n)
        validate(self)

    monkeypatch.setattr(FiniteGroup, "_validate", counting)
    return orders


@pytest.fixture
def inherited_orders(monkeypatch):
    """The order of every group that FiniteGroup._inherited builds, in call
    order: the constructor path that skips validation."""
    orders = []
    inherited = FiniteGroup._inherited.__func__

    def counting(cls, table, *args, **kwargs):
        orders.append(int(table.shape[0]))
        return inherited(cls, table, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "_inherited", classmethod(counting))
    return orders
