import functools
import math

import pytest

from symentropy import estimators
from symentropy.estimators import Estimate
from symentropy.mixtures import GaussianMixture
from symentropy.streams import CHUNK_SIZE, split_seed


class StreamAudit:
    """Stands in for ``estimators._mc_estimate`` and records every call.

    ``calls`` holds (method, count, seed, estimate) in call order.  With
    ``draw`` False nothing is drawn: each call returns value 0 with stderr
    1/sqrt(count), so a huge budget costs nothing.
    """

    def __init__(self, estimate):
        self.estimate = estimate
        self.draw = True
        self.calls = []

    def __call__(self, law, count, seed, statistic, method, *rest):
        if self.draw:
            est = self.estimate(law, count, seed, statistic, method, *rest)
        else:
            est = Estimate(0.0, 1.0 / math.sqrt(count), method, count)
        self.calls.append((method, count, seed, est))
        return est

    def streams(self, method=None):
        """The stream of every chunk drawn, by calls of ``method`` or by all."""
        return [
            split_seed(seed, i)
            for m, count, seed, _ in self.calls
            if method in (None, m)
            for i in range(-(-count // CHUNK_SIZE))
        ]


@pytest.fixture
def stream_audit(monkeypatch):
    audit = StreamAudit(estimators._mc_estimate)
    monkeypatch.setattr(estimators, "_mc_estimate", audit)
    return audit


@pytest.fixture
def kernel_builds(monkeypatch):
    """The laws whose density kernel is built while the fixture is active, one entry per build."""
    built = []
    build = GaussianMixture._kernel.func

    def counting(mix):
        built.append(mix)
        return build(mix)

    spy = functools.cached_property(counting)
    spy.__set_name__(GaussianMixture, "_kernel")
    monkeypatch.setattr(GaussianMixture, "_kernel", spy)
    return built
