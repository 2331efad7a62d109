import numpy as np
import pytest
from scipy.stats import kstest

from nematic_hydro import validation
from nematic_hydro.ibm import IbmConfig
from nematic_hydro.sphere import build_quadrature
from nematic_hydro.validation import (
    AlignedPerturbation,
    aligned_marginal_cdf,
    eps_expansion_study,
    gci_orthogonality_report,
    ibm_equilibrium_statistics,
    particle_vs_macro,
)

U3 = np.array([0.0, 0.0, 1.0])


class TestEpsExpansionStudy:
    def test_constant_density_has_no_eps_dependence(self):
        # at kappa = 0 the angular density is constant and Q vanishes everywhere
        rep = eps_expansion_study(0.0, [0.2, 0.1])
        assert rep.errors.max() < 1e-14
        assert np.isnan(rep.slope)

    def test_rotating_family_expands_at_second_order(self):
        rep = eps_expansion_study(2.0, [0.2, 0.1, 0.05, 0.025])
        assert 1.8 <= rep.slope <= 2.2
        assert np.all(np.diff(rep.errors) < 0)

    def test_asymmetric_kernel_degrades_to_first_order(self):
        rep = eps_expansion_study(
            2.0, [0.1, 0.05, 0.025, 0.0125], asymmetry=0.5
        )
        assert 0.8 <= rep.slope <= 1.2

    def test_needs_two_eps_values(self):
        with pytest.raises(ValueError):
            eps_expansion_study(2.0, [0.1])
        with pytest.raises(ValueError, match="distinct"):
            eps_expansion_study(2.0, [0.1, 0.1])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_q_moment_matches_the_outer_product_sum(d, rng):
    quad = build_quadrature(d, np.eye(d)[-1], 12)
    values = rng.random((3, quad.nodes.shape[0]))
    outer = np.einsum("mi,mj->mij", quad.nodes, quad.nodes) - np.eye(d) / d
    reference = np.einsum("m,bm,mij->bij", quad.weights, values, outer)
    batched = validation._q_moment(quad.weights, values, quad.nodes)
    single = validation._q_moment(quad.weights, values[0], quad.nodes)
    # relative to the mass, the size of the terms whose difference Q is
    scale = float(quad.weights @ values.max(axis=0))
    assert batched.shape == (3, d, d) and single.shape == (d, d)
    assert np.abs(batched - reference).max() <= 1e-14 * scale
    assert np.abs(single - reference[0]).max() <= 1e-14 * scale


class TestOrthogonality:
    def test_collision_operator_vanishes_on_equilibrium(self):
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        field = AlignedPerturbation(kappa=2.0, axis=axis)
        quad = build_quadrature(3, axis, 60)
        gamma = field.collision_values(quad.nodes, axis, 2.0, 1.0)
        assert np.abs(gamma).max() < 1e-12

    def test_randomized_fields_annihilate_vector_invariant(self, bundle_k2d3, rng):
        worst_orth = worst_mass = 0.0
        for _ in range(2):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            w = rng.standard_normal((2, 3))
            field = AlignedPerturbation(
                kappa=2.0, axis=v, amplitudes=(0.4, -0.2), vectors=w, shift=0.3
            )
            rep = gci_orthogonality_report(field, bundle_k2d3["h"], 1.0)
            worst_orth = max(worst_orth, rep["orthogonality"])
            worst_mass = max(worst_mass, rep["mass"])
        assert worst_orth < 1e-6
        assert worst_mass < 1e-10

    def test_check_requires_matching_profile(self, bundle_k2d3):
        field = AlignedPerturbation(kappa=2.0, axis=U3)
        with pytest.raises(ValueError, match="needs the h profile"):
            gci_orthogonality_report(field, bundle_k2d3["a"], 1.0)
        for kappa, axis in ((7.0, U3), (2.0, np.array([0.0, 1.0]))):
            with pytest.raises(ValueError, match="disagree"):
                gci_orthogonality_report(
                    AlignedPerturbation(kappa=kappa, axis=axis), bundle_k2d3["h"], 1.0
                )

    def test_perturbation_validates_inputs(self):
        with pytest.raises(ValueError):
            AlignedPerturbation(kappa=2.0, axis=2 * U3)
        with pytest.raises(ValueError):
            AlignedPerturbation(
                kappa=2.0, axis=U3, amplitudes=(0.1, 0.2), vectors=np.eye(3)[:1]
            )

    def test_perturbation_rejects_zero_and_misdimensioned_vectors(self):
        with pytest.raises(ValueError, match="nonzero"):
            AlignedPerturbation(kappa=2.0, axis=U3, amplitudes=(0.3,), vectors=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dimension"):
            AlignedPerturbation(
                kappa=2.0, axis=U3, amplitudes=(0.3,), vectors=np.array([[0.6, 0.8]])
            )

    def test_perturbation_dimension_is_the_axis_dimension(self):
        assert AlignedPerturbation(kappa=2.0, axis=U3).d == 3
        assert AlignedPerturbation(kappa=2.0, axis=np.array([0.6, 0.8])).d == 2

    def test_check_returns_orthogonality_scalar(self, bundle_k2d3):
        field = AlignedPerturbation(
            kappa=2.0, axis=U3, amplitudes=(0.5,), vectors=np.eye(3)[:1], shift=0.2
        )
        rep = gci_orthogonality_report(field, bundle_k2d3["h"], 1.0)
        assert 0.0 <= rep["orthogonality"] < 1e-6
        assert rep["mass"] <= 1e-8


class TestEquilibriumStatistics:
    def test_pure_diffusion_matches_uniform_marginal(self):
        cfg = IbmConfig(
            N=10_000, d=2, nu=0.0, D=0.25, R=0.4, kernel="global", dt=2e-3, seed=3
        )
        stats = ibm_equilibrium_statistics(cfg, T=0.5)
        assert stats.ks_statistic < 0.02
        assert stats.n_samples == 10_000
        assert stats.sample_sufficient
        assert abs(stats.ks_critical - 1.36 / np.sqrt(10_000)) < 1e-12

    def test_requires_global_kernel_and_noise(self):
        with pytest.raises(ValueError):
            ibm_equilibrium_statistics(
                IbmConfig(N=100, d=2, nu=1.0, D=1.0, R=0.1, kernel="indicator"), T=0.1
            )
        with pytest.raises(ValueError):
            ibm_equilibrium_statistics(
                IbmConfig(N=100, d=2, nu=1.0, D=0.0, R=0.1, kernel="global"), T=0.1
            )

    def test_horizon_shorter_than_one_step_is_rejected(self):
        cfg = IbmConfig(N=100, d=2, nu=1.0, D=1.0, R=0.1, kernel="global", dt=1e-2)
        with pytest.raises(ValueError, match="shorter than one step"):
            ibm_equilibrium_statistics(cfg, T=0.004)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kappa", [0.0, 1.3, 4.0])
    @pytest.mark.parametrize(
        "n, decimals", [(1, None), (20_000, None), (500, 1)], ids=["one", "many", "repeated"]
    )
    def test_ks_distance_is_the_kstest_statistic(self, n, decimals, kappa, d):
        # samples crowd toward +-1 as aligned orientations do; one decimal
        # leaves at most 21 distinct values, so the sample holds ties
        gen = np.random.default_rng(n)
        samples = np.cos(np.pi * gen.random(n) ** 2) * gen.choice([-1.0, 1.0], n)
        if decimals is not None:
            samples = np.round(samples, decimals)
            assert np.unique(samples).size <= 21
        cdf = aligned_marginal_cdf(kappa, d)
        assert validation._ks_distance(samples, cdf) == kstest(samples, cdf).statistic

    def test_marginal_cdf_closed_form_at_zero_coupling(self):
        cdf = aligned_marginal_cdf(0.0, 2)
        xs = np.array([-1.0, -0.3, 0.0, 0.5, 1.0])
        ref = 1.0 - np.arccos(xs) / np.pi
        assert np.abs(cdf(xs) - ref).max() < 1e-6

    def test_marginal_cdf_monotone_normalized(self):
        cdf = aligned_marginal_cdf(4.0, 2)
        xs = np.linspace(-1.0, 1.0, 401)
        vals = cdf(xs)
        assert abs(vals[0]) < 1e-12 and abs(vals[-1] - 1.0) < 1e-12
        assert np.all(np.diff(vals) >= 0)


class TestCrossScale:
    def test_report_structure_and_rough_agreement(self):
        cfg = IbmConfig(
            N=8000,
            d=2,
            nu=4.0,
            D=1.0,
            R=0.2,
            kernel="indicator",
            box_length=5.0,
            dt=0.02,
            seed=10,
        )
        rep = particle_vs_macro(cfg, eps=0.2, T_macro=0.02, grid_n=12)
        assert rep.eps == 0.2
        assert len(rep.times) == len(rep.density_distances) == 4
        assert np.all(np.diff(rep.times) > 0)
        assert rep.final_density_distance == rep.density_distances[-1]
        assert rep.final_density_distance < 0.8
        assert np.all(np.asarray(rep.direction_distances) < np.pi / 4)

    def test_checkpoints_distinct_when_continuum_march_is_coarser(self):
        # 10 particle steps against 2 continuum steps: each checkpoint is its
        # own step on both marches
        cfg = IbmConfig(N=2000, d=2, nu=4.0, D=1.0, R=0.1, box_length=10.0, dt=0.002)
        rep = particle_vs_macro(cfg, eps=0.1, T_macro=2e-4, grid_n=32)
        assert len(rep.times) == 2
        assert np.all(np.diff(rep.times) > 0)

    def test_argument_validation(self):
        cfg = IbmConfig(N=100, d=2, nu=4.0, D=1.0, R=0.2, box_length=5.0, dt=0.02)
        with pytest.raises(ValueError):
            particle_vs_macro(cfg, eps=1.5, T_macro=0.01)

    def test_horizons_shorter_than_one_step_are_rejected(self):
        cfg = IbmConfig(N=100, d=2, nu=4.0, D=1.0, R=0.2, box_length=5.0, dt=0.02)
        # micro horizon D T / eps^2 = 2.5e-4, under half a particle step
        with pytest.raises(ValueError, match="shorter than one step"):
            particle_vs_macro(cfg, eps=0.2, T_macro=1e-5, grid_n=12)
        # one particle step (5e-3), but under half of the continuum step,
        # which is 6.3e-4 on this grid
        fine = IbmConfig(N=100, d=2, nu=4.0, D=1.0, R=0.2, box_length=5.0, dt=5e-3)
        with pytest.raises(ValueError, match="shorter than one step"):
            particle_vs_macro(fine, eps=0.2, T_macro=2e-4, grid_n=12)
