from dataclasses import replace

import pytest

from hibilab.binomials import ORDER_KINDS
from hibilab.reports import CorpusSpec, generate_corpus


@pytest.fixture(scope="session")
def corpus():
    """Deterministic shared corpus; big enough for the sweep-style checks."""
    return generate_corpus(CorpusSpec(seed=7, count=40, max_m=5, max_n=4))


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(CorpusSpec(seed=3, count=18, max_m=4, max_n=4))


@pytest.fixture
def no_qualifying_order(monkeypatch):
    """The order search under auto, as if no candidate order gave a quadratic
    basis: the linear-relatedness oracle's search (WindowIdeal.quadratic_gb),
    and a window's own under auto.  A single kind searches as it does."""
    import hibilab.binomials as binomials_mod

    real = binomials_mod.order_search

    def search(ring, pairs, kinds="auto"):
        ideal = real(ring, pairs, kinds)
        if kinds != "auto":
            return ideal
        return replace(ideal, gb=replace(ideal.gb, quadratic=False), orders_tried=ORDER_KINDS)

    monkeypatch.setattr(binomials_mod, "order_search", search)
