import numpy as np
import pytest

import jostspec as js
from jostspec.errors import DegenerateBranchError, NoAdmissibleIntervalError


@pytest.fixture(scope="session")
def free_block():
    return js.periodic_block(1, [1.0], [0.0])


@pytest.fixture(scope="session")
def free_model(free_block):
    return js.make_model(free_block)


def random_block(rng, q):
    return js.periodic_block(q, rng.uniform(0.7, 1.6, q), rng.uniform(-0.6, 0.6, q))


def random_suite(seed=20250808, count=20, margin=0.2, min_width=0.5, max_support=30):
    """Deterministic randomized model suite: cycling periods 1..3, random
    backgrounds with a usable admissible interval, random finite
    perturbations of bounded support."""
    rng = np.random.default_rng(seed)
    suite = []
    while len(suite) < count:
        q = 1 + len(suite) % 3
        try:
            block = random_block(rng, q)
            intervals = js.admissible_intervals(block, margin=margin)
        except (NoAdmissibleIntervalError, DegenerateBranchError):
            continue
        interval = js.widest_interval(intervals)
        if interval.width < min_width:
            continue
        support = int(rng.integers(5, max_support + 1))
        alpha = rng.uniform(-0.08, 0.08, support) * min(block.a_bg)
        beta = rng.uniform(-0.12, 0.12, support)
        model = js.make_model(block, js.PerturbationSpec.finite(alpha, beta))
        n_trunc = (support + q - 1) // q + 3
        suite.append((model, interval, n_trunc))
    return suite


@pytest.fixture(scope="session")
def acceptance_suite():
    return random_suite()
