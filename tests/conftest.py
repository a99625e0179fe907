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


def identity_start_products(a, b, zeta, q, n_blocks):
    """The entries (p11, p12, p21, p22) of transfer._period_products' blocks
    from the identity matrix, with t11 a complex division by the real a[k]."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=np.complex128))
    shape = (n_blocks, zeta.shape[0])
    p11, p12 = np.ones(shape, dtype=np.complex128), np.zeros(shape, dtype=np.complex128)
    p21, p22 = np.zeros(shape, dtype=np.complex128), np.ones(shape, dtype=np.complex128)
    top = n_blocks * q
    for j in range(1, q + 1):
        a_k = a[j : top + 1 : q, None]
        t11 = (zeta - b[j : top + 1 : q, None]) / a_k
        t12 = -a[j - 1 : top : q, None] / a_k
        p11, p12, p21, p22 = t11 * p11 + t12 * p21, t11 * p12 + t12 * p22, p11, p12
    return p11, p12, p21, p22


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
            interval = js.interval_constants(block, js.widest_trimmed_band(block, margin))
        except (NoAdmissibleIntervalError, DegenerateBranchError):
            continue
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
