import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nematic_hydro.constants import GAP_FLOOR
from nematic_hydro.gci.equilibrium import make_equilibrium
from nematic_hydro.qtensor import (
    DegenerateLeadingEigenvalue,
    leading_direction,
    leading_directions,
    qtensor_from_orientations,
)


def random_orientations(rng, n, d):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_qtensor_is_traceless_symmetric(rng):
    omega = random_orientations(rng, 200, 3)
    q = qtensor_from_orientations(omega)
    assert abs(np.trace(q)) < 1e-14
    assert np.abs(q - q.T).max() == 0.0


def test_aligned_cloud_recovers_axis(rng):
    axis = np.array([0.6, 0.0, 0.8])
    omega = axis + 0.05 * rng.standard_normal((500, 3))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    # randomize head-tail signs: the estimate must not care
    omega *= rng.choice([-1.0, 1.0], size=(500, 1))
    info = leading_direction(qtensor_from_orientations(omega))
    assert abs(abs(info.direction @ axis) - 1.0) < 1e-3
    assert info.leading_eigenvalue > 0.5


@settings(max_examples=30, deadline=None)
@given(
    flips=arrays(np.int8, 40, elements=st.sampled_from([-1, 1])),
    seed=st.integers(0, 2**31 - 1),
)
def test_qtensor_invariant_under_head_tail_flips(flips, seed):
    """The estimator sees lines, not arrows: sign flips change nothing."""
    omega = random_orientations(np.random.default_rng(seed), 40, 3)
    q1 = qtensor_from_orientations(omega)
    q2 = qtensor_from_orientations(omega * flips.astype(float)[:, None])
    assert np.array_equal(q1, q2)


@pytest.mark.parametrize("d", [2, 3])
def test_qtensor_independent_of_memory_layout(rng, d):
    # C- and Fortran-order copies of the same rows reach the matrix product
    # alike, so the Q-tensor is a function of the values alone
    omega = rng.standard_normal((100_000, d))
    fortran = np.asfortranarray(omega)
    assert np.array_equal(qtensor_from_orientations(omega), qtensor_from_orientations(fortran))


def test_weights_must_be_usable(rng):
    omega = random_orientations(rng, 10, 2)
    with pytest.raises(ValueError):
        qtensor_from_orientations(omega[:0])


def test_leading_direction_deterministic_sign(rng):
    omega = random_orientations(rng, 100, 3)
    q = qtensor_from_orientations(omega)
    d1 = leading_direction(q).direction
    d2 = leading_direction(q).direction
    assert np.array_equal(d1, d2)
    # first nonzero component is positive by convention
    nz = d1[np.abs(d1) > 0][0]
    assert nz > 0


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateLeadingEigenvalue):
        leading_direction(np.zeros((3, 3)))


@pytest.mark.parametrize("d", [2, 3])
def test_leading_directions_flag_degenerate_row_and_match_single_solve(rng, d):
    batch = np.stack(
        [qtensor_from_orientations(random_orientations(rng, 50, d)) for _ in range(5)]
    )
    batch[2] = 0.0
    lam, dirs, ok = leading_directions(batch)
    assert lam.shape == ok.shape == (5,) and dirs.shape == (5, d)
    assert ok.tolist() == [True, True, False, True, True]
    for q, lam_i, dir_i, ok_i in zip(batch, lam, dirs, ok):
        if not ok_i:
            continue
        info = leading_direction(q)
        assert info.leading_eigenvalue == lam_i
        assert abs(abs(info.direction @ dir_i) - 1.0) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0])
def test_equilibrium_eigenvalue_pair(kappa, d):
    eq = make_equilibrium(kappa, d)
    lam_par = eq.average(eq.nodes**2) - 1.0 / d
    lam_perp = -lam_par / (d - 1)
    assert lam_par > 0
    assert abs(lam_perp + lam_par / (d - 1)) < 1e-12


def test_equilibrium_eigenvalues_frozen_values():
    eq = make_equilibrium(4.0, 2)
    lam_par = eq.average(eq.nodes**2) - 1.0 / 2
    assert abs(lam_par - 2.231949829483e-01) < 1e-11
    eq = make_equilibrium(2.0, 3)
    lam_par = eq.average(eq.nodes**2) - 1.0 / 3
    assert abs(lam_par - 9.589737249442e-02) < 1e-11


def _two_by_two_cases():
    """Symmetric 2x2 matrices: random ones with nonzero trace, 0 and c I,
    gaps just above and just below GAP_FLOOR, and Q12 = +-0 with Q11 < Q22."""
    rng = np.random.default_rng(20)
    cases = [a + a.T for a in rng.standard_normal((200, 2, 2))]
    cases += [np.zeros((2, 2)), 3.7 * np.eye(2), -0.4 * np.eye(2)]
    for gap in (1.001 * GAP_FLOOR, 0.999 * GAP_FLOOR):
        for angle, mean in ((0.0, 0.2), (0.3, -0.1), (2.0, 0.0)):
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            cases.append(rot @ np.diag([mean + 0.5 * gap, mean - 0.5 * gap]) @ rot.T)
    cases += [np.array([[0.1, 0.0], [0.0, 0.3]]), np.array([[0.1, -0.0], [-0.0, 0.3]])]
    return np.array([0.5 * (q + q.T) for q in cases])


def test_closed_form_2x2_matches_eigh():
    cases = _two_by_two_cases()
    lam, vec, ok = leading_directions(cases)
    assert lam.shape == ok.shape == (len(cases),) and vec.shape == (len(cases), 2)
    assert (vec[:, 0] > 0.0).all()  # the half angle lies in [-pi/2, pi/2]
    for q, lam_c, v_c, ok_c in zip(cases, lam, vec, ok):
        w, v = np.linalg.eigh(q)
        assert ok_c == (w[1] - w[0] >= GAP_FLOOR)
        scale = np.abs(q).max()
        assert abs(lam_c - w[1]) <= 1e-15 * scale
        if ok_c:
            # an eigenvector moves by about rounding / gap
            err = min(np.abs(v_c - v[:, 1]).max(), np.abs(v_c + v[:, 1]).max())
            assert err <= 1e-15 * scale / (w[1] - w[0])


def test_closed_form_flags_the_gaps_around_the_floor():
    ok = leading_directions(_two_by_two_cases())[2]
    assert ok[200:203].tolist() == [False] * 3  # 0 and c I
    assert ok[203:209].tolist() == [True] * 3 + [False] * 3
    assert ok[209:].tolist() == [True, True]


def test_leading_direction_sign_convention_on_2x2_cases():
    for q in _two_by_two_cases():
        w, v = np.linalg.eigh(q)
        if w[1] - w[0] < GAP_FLOOR:
            with pytest.raises(DegenerateLeadingEigenvalue):
                leading_direction(q)
            continue
        u = leading_direction(q).direction
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
        assert u[np.abs(u) > 1e-14][0] > 0
        assert min(np.abs(u - v[:, 1]).max(), np.abs(u + v[:, 1]).max()) <= 1e-6


@pytest.mark.parametrize("off", [0.0, -0.0])
def test_closed_form_vertical_axis_for_signed_zero_coupling(off):
    # atan2(+-0, negative) = +-pi, so the half angle is +-pi/2
    q = np.array([[0.1, off], [off, 0.3]])
    lam, v, ok = leading_directions(q)
    assert ok and lam == 0.3
    assert abs(v[0]) < 1e-16 and abs(v[1]) == 1.0
    assert np.array_equal(leading_direction(q).direction, [v[0] * np.sign(v[1]), 1.0])
