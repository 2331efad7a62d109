import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from nematic_hydro import ibm
from nematic_hydro.constants import GAP_FLOOR, step_count, stream
from nematic_hydro.ibm import (
    IbmConfig,
    ParticleState,
    _drift,
    _kernel_weights,
    _local_moments,
    _mean_directions,
    _min_image,
    _normalize,
    _qtensors,
    _squared_lengths,
    _wrap,
    coarse_grain,
    initial_state,
    run,
    step,
)
from nematic_hydro.qtensor import (
    DegenerateLeadingEigenvalue,
    leading_direction,
    qtensor_from_orientations,
)


def base_config(**overrides) -> IbmConfig:
    kw = dict(N=100, d=2, nu=1.0, D=0.5, R=0.1, box_length=1.0, dt=1e-3, seed=0)
    kw.update(overrides)
    return IbmConfig(**kw)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"N": 0},
            {"d": 1},
            {"nu": -1.0},
            {"D": -0.1},
            {"R": 0.0},
            {"kernel": "gaussian"},
            {"box_length": 0.0},
            {"dt": 0.0},
            {"dt": 0.5, "nu": 1.0},  # dt * nu too coarse
            {"R": 0.6},  # must stay below half the box
            {"seed": -1},
            {"N": 50.0},  # whole-valued floats and bools are not integers
            {"N": True},
            {"d": 3.0},
            {"seed": 3.0},
            {"seed": True},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            base_config(**bad)

    def test_accepts_numpy_integers(self):
        base_config(N=np.int64(10), d=np.int32(3), seed=np.uint64(2**64 - 1))

    def test_accepts_kernels(self):
        for kernel in ("indicator", "smooth-bump", "global"):
            base_config(kernel=kernel)

    def test_global_kernel_ignores_radius(self):
        # the half-box bound protects minimum-image neighbourhoods, which
        # the global kernel never forms
        base_config(kernel="global", R=0.6)


def test_two_particles_align_monotonically():
    cfg = base_config(N=2, nu=1.0, D=0.0, R=0.4, dt=0.01, seed=1)
    th = np.array([0.3, 1.5])
    state = ParticleState(
        np.array([[0.5, 0.5], [0.55, 0.5]]), np.stack([np.cos(th), np.sin(th)], 1)
    )
    angles = []
    for t in range(600):
        o = state.orientations
        angles.append(math.acos(min(1.0, abs(float(o[0] @ o[1])))))
        state = step(state, cfg, stream(cfg.seed, t))
    assert all(b <= a + 1e-12 for a, b in zip(angles, angles[1:]))
    # self-propulsion carries the pair in and out of interaction range, so
    # only substantial decay is guaranteed, not a fixed rate
    assert angles[-1] < angles[0] / 6


def test_drift_even_in_mean_direction(rng):
    omega = np.asfortranarray(rng.standard_normal((50, 3)))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    dirs = np.asfortranarray(rng.standard_normal((50, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for obar in (dirs, dirs[0]):  # per-particle columns, and one shared direction
        assert np.array_equal(
            _drift(omega, obar, 2.0, np.empty_like(omega)),
            _drift(omega, -obar, 2.0, np.empty_like(omega)),
        )


def test_perpendicular_mean_direction_gives_zero_drift():
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    assert np.array_equal(_drift(e1, e2, 3.0, np.empty((1, 2))), np.zeros((1, 2)))
    assert np.array_equal(_drift(e1, e2[0], 3.0, np.empty((1, 2))), np.zeros((1, 2)))


def test_single_particle_moves_at_unit_speed():
    cfg = base_config(N=1, d=3, nu=2.0, D=0.5, R=0.1, dt=1e-3, seed=9)
    prev = initial_state(cfg)
    for t in range(150):
        nxt = step(prev, cfg, stream(cfg.seed, t))
        dx = nxt.positions - prev.positions
        dx -= np.round(dx)  # undo the periodic wrap
        assert abs(np.linalg.norm(dx) / cfg.dt - 1.0) < 1e-12
        prev = nxt
    assert abs(np.linalg.norm(prev.orientations[0]) - 1.0) < 1e-9


def test_stream_is_philox_keyed_seed_and_index():
    # the key layout the benchmark's particle-step check rebuilds on its own
    for seed, index in ((0, 0), (7, 12), (3, 2**64 - 1)):
        ref = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        draws = stream(seed, index).standard_normal((5, 3))
        assert np.array_equal(draws, ref.standard_normal((5, 3)))


def test_run_is_deterministic():
    cfg = base_config(N=300, nu=2.0, D=0.3, R=0.2, kernel="indicator", dt=5e-3, seed=42)
    obs_a, _ = run(cfg, T=0.25, observe_every=10)
    obs_b, _ = run(cfg, T=0.25, observe_every=10)
    assert len(obs_a) == len(obs_b) > 1
    for a, b in zip(obs_a, obs_b):
        assert a.time == b.time
        assert a.order_parameter == b.order_parameter
        assert np.array_equal(a.qtensor, b.qtensor)


def test_run_argument_validation(monkeypatch):
    """Bad arguments are rejected before the first particle step."""

    def no_step(*args):
        raise AssertionError("run stepped before checking its arguments")

    monkeypatch.setattr(ibm, "step", no_step)
    cfg = base_config()
    with pytest.raises(ValueError):
        run(cfg, T=0.0)
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match="observe_every"):
            run(cfg, T=1.0, observe_every=bad)


def test_coarse_grid_accepts_numpy_integers():
    rho, u = coarse_grain(initial_state(base_config(N=10)), np.int64(4), 0.0, 1.0)
    assert rho.shape == (4, 4) and u.shape == (4, 4, 2)


@pytest.mark.parametrize("kernel", ["indicator", "smooth-bump"])
@pytest.mark.parametrize(
    "box_length,R", [(1.0, 0.11), (1.0, 0.4)], ids=["wide-box", "small-box"]
)
def test_tree_matches_dense_moments_2d(box_length, R, kernel):
    cfg = base_config(
        N=400, nu=1.0, D=0.1, R=R, kernel=kernel, box_length=box_length, dt=1e-3, seed=5
    )
    st = initial_state(cfg)
    m1, w1 = _local_moments(st.positions, st.orientations, cfg)
    m2, w2 = _local_moments_dense(st.positions, st.orientations, cfg)
    assert np.abs(m1 - m2).max() < 1e-12
    assert np.abs(w1 - w2).max() < 1e-12


@pytest.mark.parametrize("kernel", ["indicator", "smooth-bump"])
def test_tree_matches_dense_moments_3d(kernel):
    cfg = base_config(N=500, d=3, nu=1.0, D=0.1, R=0.15, kernel=kernel, dt=1e-3, seed=6)
    st = initial_state(cfg)
    m1, w1 = _local_moments(st.positions, st.orientations, cfg)
    m2, w2 = _local_moments_dense(st.positions, st.orientations, cfg)
    assert np.abs(m1 - m2).max() < 1e-12
    assert np.abs(w1 - w2).max() < 1e-12


def test_tree_keeps_a_pair_at_the_kernel_radius():
    # this pair sits at distance R up to rounding; the indicator kernel
    # counts it, while cKDTree's own distance test at radius R drops it
    cfg = base_config(N=2, d=3, R=0.27501292362521723)
    positions = np.array([
        [0.47614707196875306, 0.8637862410970849, 0.7015685660618728],
        [0.32579322912834663, 0.775211512802811, 0.4890118733617663],
    ])
    omega = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    m1, w1 = _local_moments(positions, omega, cfg)
    m2, w2 = _local_moments_dense(positions, omega, cfg)
    assert np.array_equal(w2, [2.0, 2.0])
    assert np.array_equal(w1, w2)
    assert np.abs(m1 - m2).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qtensors_complete_the_last_diagonal(rng, d):
    # the missing moment is the weight sum minus the other diagonal moments,
    # so _qtensors matches the Q-tensor of the full weighted second moment
    omega = rng.standard_normal((300, d))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    w = rng.random((40, 300))
    full = np.einsum("pj,ja,jb->pab", w, omega, omega)
    upper = [(a, b) for a in range(d) for b in range(a, d)][:-1]
    moments = np.array([full[:, a, b] for a, b in upper])
    Q = _qtensors(moments, w.sum(axis=1), d)
    expected = full / w.sum(axis=1)[:, None, None] - np.eye(d) / d
    assert np.abs(Q - expected).max() < 1e-14
    assert np.array_equal(Q, Q.transpose(0, 2, 1))
    assert np.abs(np.trace(Q, axis1=1, axis2=2)).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_coarse_grain_directions_match_per_cell_eigensolve(d):
    cfg = base_config(N=3000, d=d, seed=17)
    st = initial_state(cfg)
    grid_n = 3
    _, u = coarse_grain(st, grid_n, 0.0, 1.0)
    cells = np.minimum((st.positions * grid_n).astype(int), grid_n - 1)
    for cell in np.ndindex(*(grid_n,) * d):
        members = st.orientations[(cells == cell).all(axis=1)]
        lam, vec = np.linalg.eigh(members.T @ members / len(members) - np.eye(d) / d)
        assert lam[-1] - lam[-2] >= GAP_FLOOR
        assert abs(abs(float(vec[:, -1] @ u[cell])) - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_squared_lengths_add_even_and_odd_components_apart(rng, d):
    # every neighbour path decides membership at the kernel radius from this
    # one summation order, written out here for each row
    disp = rng.standard_normal((200, d))
    expected = []
    for row in disp.tolist():
        even = odd = None
        for k, x in enumerate(row):
            if k % 2:
                odd = x * x if odd is None else odd + x * x
            else:
                even = x * x if even is None else even + x * x
        expected.append(even + odd)
    assert np.array_equal(_squared_lengths(disp.T), expected)


@pytest.mark.parametrize(
    "positions,orientations,match",
    [
        ([[0.5, math.nan]], [[math.nan, 0.0]], "orientation"),
        ([[0.5, 0.5]], [[math.nan, 0.0]], "orientation"),
        ([[0.5, math.nan]], [[1.0, 0.0]], "positions"),
        ([[math.nan, math.nan]], [[0.0, 1.0]], "positions"),
    ],
)
def test_validate_rejects_nan(positions, orientations, match):
    with pytest.raises(ValueError, match=match):
        ParticleState(positions, orientations).validate(1.0)


def test_normalize_rejects_nan_rows():
    with pytest.raises(ArithmeticError):
        _normalize(np.array([[1.0, 0.0], [math.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_normalize_rejects_infinite_rows():
    with pytest.raises(ArithmeticError, match="not finite"):
        _normalize(np.array([[math.inf, 0.0], [1.0, 0.0]]))
    with pytest.raises(ArithmeticError, match="collapsed to the origin"):
        _normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad_row", [[math.nan, 0.0], [math.inf, 0.0], [0.0, 0.0]])
@pytest.mark.parametrize("kernel", ["global", "indicator"])
def test_step_blames_a_bad_input_state_not_the_noise(bad_row, kernel):
    # no noise is drawn at D = 0, so only the input can be at fault
    cfg = base_config(N=2, nu=0.0, D=0.0, kernel=kernel)
    st = ParticleState([[0.2, 0.3], [0.7, 0.1]], [bad_row, [1.0, 0.0]])
    with pytest.raises(ArithmeticError, match="input state has a non-finite or non-unit"):
        step(st, cfg, stream(cfg.seed, 0))


def test_step_from_a_nan_orientation_raises():
    cfg = base_config(N=2, nu=0.0, D=0.5)
    st = ParticleState([[0.2, 0.3], [0.7, 0.1]], [[math.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(ArithmeticError):
        step(st, cfg, stream(cfg.seed, 0))


def test_wrap_keeps_tiny_negative_coordinates_inside_the_box():
    box = math.sqrt(50.0)
    wrapped = _wrap(np.array([[-1e-17, 0.5]]), box)
    assert np.array_equal(wrapped, np.array([[0.0, 0.5]]))
    ParticleState(wrapped, np.array([[1.0, 0.0]])).validate(box)


@pytest.mark.parametrize("kernel", ["indicator", "smooth-bump"])
def test_batched_directions_match_reference(kernel):
    cfg = base_config(N=400, nu=1.0, D=0.1, R=0.11, kernel=kernel, dt=1e-3, seed=5)
    st = initial_state(cfg)
    dirs, ok = _mean_directions(st.positions, st.orientations, cfg)
    for i in range(0, 400, 23):
        ref = local_mean_direction(st, cfg, i)
        if ref is None:
            assert not ok[i]
            continue
        assert ok[i]
        assert abs(abs(float(ref @ dirs[i])) - 1.0) < 1e-10


def test_isolated_particle_keeps_own_axis():
    st = ParticleState(
        np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    cfg = base_config(N=2, nu=1.0, D=0.0, R=0.05, dt=1e-3, seed=0)
    d0 = local_mean_direction(st, cfg, 0)
    assert abs(abs(float(d0 @ np.array([1.0, 0.0]))) - 1.0) < 1e-12


def test_invariants_hold_along_trajectory():
    cfg = base_config(N=200, kernel="global", nu=1.0, D=0.25, dt=4e-3, seed=11)
    st = initial_state(cfg)
    for t in range(50):
        st = step(st, cfg, stream(cfg.seed, t))
    st.validate(cfg.box_length)
    assert st.time == pytest.approx(50 * cfg.dt)


def test_noise_only_relaxes_to_uniform_marginal():
    cfg = base_config(N=5000, nu=0.0, D=1.0, R=0.1, dt=1e-2, seed=3)
    st = initial_state(cfg)
    st = ParticleState(st.positions, np.tile(np.array([1.0, 0.0]), (cfg.N, 1)))
    # the slowest angular mode decays like exp(-D t); T = 6 leaves only
    # sampling noise at N = 5000
    for t in range(600):
        st = step(st, cfg, stream(cfg.seed, t))
    ks = kstest(
        st.orientations[:, 0],
        lambda v: 1.0 - np.arccos(np.clip(v, -1, 1)) / np.pi,
    ).statistic
    assert ks < 0.03


class TestCoarseGrain:
    def test_single_cell_counts_all_particles(self):
        cfg = base_config(N=5000, box_length=2.0, seed=13)
        st = initial_state(cfg)
        rho, u = coarse_grain(st, 1, 0.0, 2.0)
        assert rho.shape == (1, 1)
        assert u.shape == (1, 1, 2)
        assert float(rho[0, 0]) == pytest.approx(5000 / 4.0)

    def test_smoothed_mass_integrates_to_count(self):
        cfg = base_config(N=5000, box_length=2.0, seed=13)
        st = initial_state(cfg)
        rho, u = coarse_grain(st, 16, 0.08, 2.0)
        assert rho.sum() * (2.0 / 16) ** 2 == pytest.approx(5000, rel=1e-10)
        finite = ~np.isnan(u[..., 0])
        norms = np.linalg.norm(u[finite], axis=-1)
        assert np.abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("bandwidth", [1e300, np.float64(1e300)], ids=["float", "float64"])
    def test_bandwidth_with_overflowing_square_keeps_the_mean(self, bandwidth):
        # bandwidth**2 overflows: only the k = 0 mode of the filter is left
        cfg = base_config(N=500, box_length=1.0, seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, _ = coarse_grain(initial_state(cfg), 3, bandwidth, 1.0)
        assert rho.shape == (3, 3)
        assert np.allclose(rho, 500.0, rtol=1e-14, atol=0.0)

    def test_empty_cells_masked_with_nan(self):
        st = ParticleState(
            np.array([[0.05, 0.05], [1.95, 1.95]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        rho, u = coarse_grain(st, 8, 0.0, 2.0)
        assert rho[4, 4] == 0.0
        assert np.isnan(u[4, 4]).all()
        assert np.isfinite(u[0, 0]).all()

    def test_argument_validation(self):
        st = initial_state(base_config(N=10))
        with pytest.raises(ValueError, match="grid_n"):
            coarse_grain(st, 0, 0.0, 1.0)
        for not_an_int in (8.0, True, "8", np.float64(8.0)):
            with pytest.raises(ValueError, match="grid_n"):
                coarse_grain(st, not_an_int, 0.0, 1.0)
        for bad_bandwidth in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                coarse_grain(st, 4, bad_bandwidth, 1.0)


def test_run_returns_the_final_state_of_the_seeded_march():
    cfg = base_config(N=500, dt=5e-3, seed=8)
    obs, final = run(cfg, T=0.05, observe_every=4)
    state = initial_state(cfg)
    for t in range(10):
        state = step(state, cfg, stream(cfg.seed, t))
    assert final.time == state.time == obs[-1].time
    assert np.array_equal(final.positions, state.positions)
    assert np.array_equal(final.orientations, state.orientations)
    assert [ob.time for ob in obs] == pytest.approx([0.0, 0.02, 0.04, 0.05])
    assert np.array_equal(obs[-1].qtensor, qtensor_from_orientations(final.orientations))


# ---------------------------------------------------------------------------
# Reference paths for the neighbour moments and the local directions: every
# pair by brute force, and one particle's weighted Q-tensor at a time.


def _local_moments_dense(positions, orientations, config):
    """All-pairs reference for _local_moments, chunked over rows to bound memory.

    Forms every (N, d, d) moment sum and returns the ones _local_moments
    returns: the upper triangle row by row without its last entry, as (k, N)
    rows, and the weight sums.
    """
    n = positions.shape[0]
    d = positions.shape[1]
    moments = np.empty((n, d, d))
    wsum = np.empty(n)
    block = max(1, int(2**22 // max(n, 1)))
    for s in range(0, n, block):
        e = min(n, s + block)
        disp = _min_image(positions[s:e, None, :] - positions[None, :, :], config.box_length)
        w = _kernel_weights(_squared_lengths(disp.transpose(2, 0, 1)), config)
        moments[s:e] = np.einsum("pj,ja,jb->pab", w, orientations, orientations)
        wsum[s:e] = w.sum(axis=1)
    upper = [(a, b) for a in range(d) for b in range(a, d)][:-1]
    return np.array([moments[:, a, b] for a, b in upper]), wsum


def local_mean_direction(state, config, i):
    """Leading eigenvector of particle i's kernel-weighted Q-tensor, or None
    when its spectral gap falls below GAP_FLOOR.

    Includes the particle itself, so an isolated particle sees its own
    orientation (up to sign).  The Q-tensor is formed and solved here, with
    no code of qtensor's.
    """
    disp = _min_image(state.positions - state.positions[i], config.box_length)
    w = _kernel_weights(_squared_lengths(disp.T), config)
    omega = np.asfortranarray(state.orientations)
    d = omega.shape[1]
    second = (omega.T * (w / w.sum())) @ omega
    lam, vec = np.linalg.eigh(0.5 * (second + second.T) - np.eye(d) / d)
    if lam[-1] - lam[-2] < GAP_FLOOR:
        return None
    return vec[:, -1]


# ---------------------------------------------------------------------------
# The stepper against a row-form copy of the Heun update.  The copy keeps
# every operation of the row-form step in its order: per-particle dot
# products over the rows, the global mean direction broadcast to one row
# per particle, and fresh arrays for every stage.  Local directions come
# from the per-particle reference path, local_mean_direction.


def _ref_row_dots(a, b):
    out = a[:, 0] * b[:, 0]
    for i in range(1, a.shape[1]):
        out += a[:, i] * b[:, i]
    return out


def _ref_unit_rows(vectors):
    norms = np.sqrt(_ref_row_dots(vectors, vectors))[:, None]
    assert norms.min() >= 1e-6
    return vectors / norms


def _ref_alignment_drift(omega, dirs, nu):
    c = _ref_row_dots(omega, dirs)[:, None]
    return nu * c * (dirs - c * omega)


def _ref_tangent_rows(omega, vectors):
    return vectors - _ref_row_dots(omega, vectors)[:, None] * omega


def _ref_mean_directions(state, config):
    omega = state.orientations
    if config.kernel == "global":
        try:
            info = leading_direction(qtensor_from_orientations(omega))
        except DegenerateLeadingEigenvalue:
            return np.zeros_like(omega)
        return np.broadcast_to(info.direction, omega.shape)
    dirs = np.zeros_like(omega)
    for i in range(state.n_particles):
        ref = local_mean_direction(state, config, i)
        if ref is not None:
            dirs[i] = ref
    return dirs


def _reference_step(state, config, rng):
    omega = state.orientations
    if config.nu == 0.0:
        dirs = np.zeros_like(omega)
    else:
        dirs = _ref_mean_directions(state, config)
    noise = rng.standard_normal(omega.shape) * math.sqrt(2.0 * config.D * config.dt)

    drift0 = _ref_alignment_drift(omega, dirs, config.nu)
    noise0 = _ref_tangent_rows(omega, noise)
    stage = _ref_unit_rows(omega + config.dt * drift0 + noise0)
    drift1 = _ref_alignment_drift(stage, dirs, config.nu)
    combined = (
        omega
        + 0.5 * config.dt * (drift0 + drift1)
        + 0.5 * (noise0 + _ref_tangent_rows(stage, noise))
    )
    new_omega = _ref_unit_rows(combined)
    new_pos = _wrap(state.positions + config.dt * omega, config.box_length)
    return ParticleState(new_pos, new_omega, state.time + config.dt)


# Per-step differences of the prototype were at most 6e-16; this bound was
# fixed before the comparison was run.
STEP_REFERENCE_TOL = 1e-14


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kernel", ["global", "indicator", "smooth-bump"])
def test_step_matches_row_form_reference(kernel, d):
    cfg = base_config(N=300, d=d, nu=2.0, D=0.5, R=0.15, kernel=kernel, dt=1e-2, seed=21)
    st = initial_state(cfg)
    for t in range(3):
        # both steppers start each step from the same state
        ref = _reference_step(st, cfg, stream(cfg.seed, t))
        new = step(st, cfg, stream(cfg.seed, t))
        assert np.array_equal(new.positions, ref.positions)
        assert np.abs(new.orientations - ref.orientations).max() <= STEP_REFERENCE_TOL
        assert new.time == ref.time
        st = new
    assert st.orientations.flags.f_contiguous and st.positions.flags.f_contiguous


def test_degenerate_global_qtensor_gives_no_drift():
    # two orthogonal particles: Q = 0, so there is no mean direction
    st = ParticleState(np.array([[0.2, 0.3], [0.7, 0.1]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    quiet = base_config(N=2, nu=1.0, D=0.0, kernel="global", seed=4)
    new = step(st, quiet, stream(quiet.seed, 0))
    assert np.array_equal(new.orientations, st.orientations)
    assert np.array_equal(new.orientations, _reference_step(st, quiet, stream(4, 0)).orientations)
    # with noise the step is the pure-diffusion step of the same draws
    noisy = base_config(N=2, nu=1.0, D=0.5, kernel="global", seed=4)
    free = base_config(N=2, nu=0.0, D=0.5, kernel="global", seed=4)
    a = step(st, noisy, stream(4, 0))
    b = step(st, free, stream(4, 0))
    assert np.array_equal(a.orientations, b.orientations)
    ref = _reference_step(st, noisy, stream(4, 0))
    assert np.abs(a.orientations - ref.orientations).max() <= STEP_REFERENCE_TOL


@pytest.mark.parametrize("kernel", ["global", "indicator", "smooth-bump"])
def test_step_leaves_its_input_untouched(kernel):
    cfg = base_config(N=200, d=2, nu=2.0, D=0.5, R=0.15, kernel=kernel, dt=1e-2, seed=2)
    first = initial_state(cfg)  # Fortran columns copied from C-order draws
    second = step(first, cfg, stream(cfg.seed, 0))  # step's own Fortran columns
    for t, st in enumerate((first, second), start=1):
        pos, omega = st.positions.copy(), st.orientations.copy()
        new = step(st, cfg, stream(cfg.seed, t))
        assert np.array_equal(st.positions, pos)
        assert np.array_equal(st.orientations, omega)
        for a in (st.positions, st.orientations):
            for b in (new.positions, new.orientations):
                assert not np.shares_memory(a, b)


def test_state_holds_fortran_order_columns():
    gen = np.random.default_rng(4)
    rows, omega_rows = gen.random((30, 3)), gen.standard_normal((30, 3))
    st = ParticleState(rows, omega_rows)
    for held, given in ((st.positions, rows), (st.orientations, omega_rows)):
        assert held.flags.f_contiguous and held.dtype == float
        assert np.array_equal(held, given)
    cols, omega_cols = np.asfortranarray(rows), np.asfortranarray(omega_rows)
    kept = ParticleState(cols, omega_cols)
    assert kept.positions is cols and kept.orientations is omega_cols


def test_horizon_shorter_than_one_step_is_rejected():
    cfg = base_config(dt=1e-2)
    with pytest.raises(ValueError, match="shorter than one step"):
        run(cfg, T=0.004)
    assert len(run(cfg, T=0.006)[0]) == 2  # rounds to one step


def test_horizon_without_a_finite_step_count_is_rejected():
    with pytest.raises(ValueError, match="not a finite step count"):
        run(base_config(), T=math.inf)
    with pytest.raises(ValueError, match="not a finite step count"):
        step_count(1e300, 1e-300)  # the quotient overflows
