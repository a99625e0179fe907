import numpy as np
import pytest

import jostspec as js
from jostspec.errors import CoefficientError, ValidationError
from jostspec.transfer import connection_matrices


def test_periodic_block_free():
    block = js.periodic_block(1, [1.0], [0.0])
    assert block.q == 1
    assert block.a(0) == 1.0 and block.a(5) == 1.0
    assert block.b(7) == 0.0


def test_periodic_block_two_periodic():
    block = js.periodic_block(2, [1.0, 2.0], [0.0, 0.0])
    # a°_0 is identified with a°_q
    assert block.a(0) == 2.0
    assert block.a(1) == 1.0 and block.a(2) == 2.0 and block.a(3) == 1.0


def test_periodic_block_rejects_nonpositive_a():
    with pytest.raises(ValidationError):
        js.periodic_block(2, [1.0, -1.0], [0.0, 0.0])


def test_periodic_block_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        js.periodic_block(2, [1.0], [0.0, 0.0])
    with pytest.raises(ValidationError):
        js.periodic_block(0, [], [])


def test_make_model_free_zero(free_model):
    for n in range(1, 20):
        assert free_model.a(n) == 1.0
        assert free_model.b(n) == 0.0
    assert free_model.a(0) == 1.0


def test_make_model_finite_list(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(beta=[0.5]))
    assert model.b(1) == 0.5
    assert model.b(2) == 0.0


def test_make_model_power_decay(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    assert model.b(4) == pytest.approx(np.cos(2.0) / 4**0.2, abs=1e-15)


def test_model_rejects_indices_below_its_range(free_block):
    # target both perturbs a(64), the last entry of the cached array, which a
    # negative index would otherwise read
    model = js.make_model(free_block, js.PerturbationSpec.power(c=0.5, s=0.5, gamma=0.2, target="both"))
    assert model.a(64) != free_block.a(64)
    with pytest.raises(ValidationError, match=r"a\(n\) is defined for n >= 0"):
        model.a(-1)
    with pytest.raises(ValidationError, match=r"b\(n\) is defined for n >= 1"):
        model.b(0)


def test_coefficient_error_on_nonpositive_a(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(alpha=[-2.0]))
    with pytest.raises(CoefficientError):
        model.a(1)


def test_truncate_zero_perturbation_is_inert(free_model):
    trunc = js.truncate(free_model, 7)
    for n in range(0, 30):
        assert trunc.a(n) == free_model.a(n)
        if n >= 1:
            assert trunc.b(n) == free_model.b(n)


def test_truncate_idempotent(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(beta=[0.1, 0.2, 0.3]))
    once = js.truncate(model, 5)
    twice = js.truncate(once, 5)
    assert twice is once
    a1, b1 = once.coefficient_arrays(40)
    a2, b2 = twice.coefficient_arrays(40)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_truncate_tail_is_bitexact_background():
    block = js.periodic_block(2, [1.1, 0.9], [0.3, -0.2])
    pert = js.PerturbationSpec.finite(alpha=[0.05] * 12, beta=[-0.07] * 12)
    model = js.truncate(js.make_model(block, pert), 4)
    n0 = (4 - 1) * 2
    # a from (N-1)q on, b strictly beyond, equal background bit for bit
    for n in range(n0, n0 + 10):
        assert model.a(n) == block.a(n)
    for n in range(n0 + 1, n0 + 10):
        assert model.b(n) == block.b(n)
    assert model.a(n0) == block.a_bg[1]  # a°_0-indexed value
    assert model.a(4 * 2) == block.a(0)


def test_truncate_rejects_bad_index(free_model):
    with pytest.raises(ValidationError):
        js.truncate(free_model, 0)


def test_truncate_rejects_a_non_integral_index():
    # flooring N = 10.5 would certify the pair N = 10, 21 and give N = 10's entropy
    model = js.make_model(js.periodic_block(2, (1.0, 1.4), (0.1, -0.2)), js.PerturbationSpec.power(0.8, 0.5, 0.2))
    iv = js.interval_constants(model.block, js.widest_trimmed_band(model.block, 0.1))
    for N in (10.5, np.float64(10.5), float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="must be an integer"):
            js.truncate(model, N)
        with pytest.raises(ValidationError, match="must be an integer"):
            js.check_harmonic_hypotheses(model, N, iv)
        with pytest.raises(ValidationError, match="must be an integer"):
            js.entropy_integrals(model, N, iv, (8,))
    assert js.truncate(model, 10.0) == js.truncate(model, np.int64(10)) == js.truncate(model, 10)


def test_q_variation_zero_perturbation(free_model):
    assert js.q_variation_norm(free_model, 50) == 0.0


def test_q_variation_saturates_beyond_support(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.finite(beta=[0.4, -0.3, 0.2]))
    sat = js.q_variation_norm(model, 3 + free_block.q)
    assert js.q_variation_norm(model, 200) == sat


def test_q_variation_monotone(free_block):
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    norms = [js.q_variation_norm(model, n) for n in (10, 100, 1000, 5000)]
    assert all(b >= a for a, b in zip(norms[:-1], norms[1:]))


def test_oscillatory_family_is_cauchy(free_block):
    # beta_n = cos(sqrt n)/n^0.2: square-summable q-variation family
    model = js.make_model(free_block, js.PerturbationSpec.power(c=1.0, s=0.5, gamma=0.2))
    norms = [js.q_variation_norm(model, n) for n in (10**3, 10**4, 10**5)]
    assert abs(norms[1] - norms[0]) < 0.05
    assert abs(norms[2] - norms[1]) < 0.05


def test_diagonal_shift_moves_b_by_constant():
    block = js.periodic_block(2, [1.0, 1.5], [0.2, -0.4])
    shifted = js.periodic_block(2, [1.0, 1.5], [0.2 + 0.7, -0.4 + 0.7])
    m0 = js.make_model(block)
    m1 = js.make_model(shifted)
    for n in range(1, 12):
        assert m1.b(n) - m0.b(n) == pytest.approx(0.7, abs=1e-12)


def _baseline():
    model = js.make_model(js.periodic_block(2, (1.0, 1.4), (0.1, -0.2)), js.PerturbationSpec.power(0.8, 0.5, 0.2))
    return model, js.interval_constants(model.block, js.widest_trimmed_band(model.block, 0.1))


# (argument named in the error, call with the count, lowest valid count); each
# call returns something np.testing.assert_equal compares
COUNT_ARGUMENTS = {
    "periodic_block": ("q", lambda m, iv, q: js.periodic_block(q, [1.0] * 10, [0.0] * 10), 1),
    "truncate": ("N", lambda m, iv, N: js.truncate(m, N), 1),
    "coefficient_arrays": ("n_top", lambda m, iv, n: m.coefficient_arrays(n), 0),
    "q_variation_norm": ("n_max", lambda m, iv, n: js.q_variation_norm(m, n), 1),
    "density_curve": ("grid_points", lambda m, iv, g: js.density_curve(m, 6, iv, g).values, 2),
    "entropy_integrals": ("quad_order", lambda m, iv, o: js.entropy_integrals(m, 6, iv, (8, o)), 4),
    "moment_k": ("k", lambda m, iv, k: js.moment(m, None, k, 14), 0),
    "moment_depth": ("depth", lambda m, iv, d: js.moment(m, 3, 2, d), 4),
    "connection_matrices": ("n_blocks", lambda m, iv, n: connection_matrices(m, n, [0.4 + 0.05j]), 1),
    "check_diagonal_products": ("n_blocks", lambda m, iv, n: js.check_diagonal_products(m, iv, n).measured, 6),
    "check_w_summability": ("n_grid", lambda m, iv, n: js.check_w_summability(m, 0.4 + 0.05j, (n, 2 * n)).measured, 1),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ARGUMENTS))
def test_every_count_argument_is_an_integer_never_floored(entry):
    name, call, low = COUNT_ARGUMENTS[entry]
    model, iv = _baseline()
    for bad in (2.5, np.float64(2.5), float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=rf"\b{name}\b.* must be an integer"):
            call(model, iv, bad)
    with pytest.raises(ValidationError, match=rf"\b{name}\b"):
        call(model, iv, low - 1)
    expected = call(model, iv, 10)
    for same in (np.int64(10), 10.0):
        np.testing.assert_equal(call(model, iv, same), expected)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "pert",
    [
        js.PerturbationSpec.zero(),
        js.PerturbationSpec.finite([0.05, 0.0, -0.03] * 3, [0.1, -0.08] * 5),
        js.PerturbationSpec.power(0.3, 0.5, 0.2, target="a"),
        js.PerturbationSpec.power(0.3, 0.5, 0.2, target="b"),
        js.PerturbationSpec.power(0.3, 0.5, 0.2, target="both"),
    ],
    ids=["zero", "finite_list", "power-a", "power-b", "power-both"],
)
def test_truncation_keeps_a_below_the_cut_and_b_up_to_it(q, pert):
    block = js.periodic_block(q, 1.0 + 0.1 * np.arange(q), -0.2 + 0.15 * np.arange(q))
    model = js.make_model(block, pert)
    for N in range(1, 7):
        n0 = (N - 1) * q
        for n_top in sorted({max(n0 - 1, 0), n0, n0 + 1, n0 + 2 * q + 3}):
            a, b = js.truncate(model, N).coefficient_arrays(n_top)
            full_a, full_b = model.coefficient_arrays(n_top)
            bg_a, bg_b = js.make_model(block).coefficient_arrays(n_top)
            assert a.size == b.size == n_top + 1
            assert a[0] == block.a_bg[q - 1]
            assert np.array_equal(a[1:n0], full_a[1:n0]) and np.array_equal(a[n0:], bg_a[n0:])
            assert np.array_equal(b[1 : n0 + 1], full_b[1 : n0 + 1]) and np.array_equal(b[n0 + 1 :], bg_b[n0 + 1 :])
