"""Tests for the reach calculators and the GHZ design optimizer."""

import dataclasses
import math

import numpy as np
import pytest

from edsim.constants import C_LIGHT, DESIGN_MAX_GRID_AXIS, PLANCK_TIME
from edsim.sensitivity import (
    SpeciesParams,
    cosmic_bound,
    default_design_grids,
    distance_reach,
    ghz_design,
    ghz_design_grid,
    matterwave_bound,
    single_atom_reach,
    validate_species,
)

SR = SpeciesParams(gamma_sp=1e-3, delta_e=1.0, kappa=1e-17, k3=1e-41)
NA_MASS = 22.98976928 * 1.66053906660e-27


class TestSingleAtomReach:
    def test_linear_in_rate(self):
        assert abs(single_atom_reach(1e-1, 1.0) / single_atom_reach(1e-3, 1.0) - 100.0) <= 1e-12

    def test_inverse_square_in_gap(self):
        assert abs(single_atom_reach(1e-3, 10.0) / single_atom_reach(1e-3, 1.0) - 0.01) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            single_atom_reach(0.0, 1.0)


class TestGhzDesign:
    def test_paper_point(self):
        res = ghz_design(SR)
        assert abs(res.n_opt / 1e5 - 1.0) <= 1e-12
        assert abs(res.v_opt / 1e-14 - 1.0) <= 1e-12
        assert abs(res.gamma_min / 1e-8 - 1.0) <= 1e-12
        assert 1e-39 <= res.sigma_min <= 1e-38
        assert abs(res.creation_time / 1e-2 - 1.0) <= 1e-12

    def test_competing_rates_cross_at_optimum(self):
        res = ghz_design(SR)
        assert abs(res.rates.spontaneous / res.gamma_min - 1.0) <= 1e-12
        assert abs(res.rates.three_body / res.gamma_min - 1.0) <= 1e-12
        assert res.creation_constraint_ok
        assert abs(res.creation_margin - 1.0) <= 1e-12

    def test_three_body_scaling(self):
        res = ghz_design(SR)
        worse = ghz_design(
            SpeciesParams(SR.gamma_sp, SR.delta_e, SR.kappa, 100.0 * SR.k3)
        )
        assert abs(worse.gamma_min / res.gamma_min - 10.0) <= 1e-12
        assert abs(worse.n_opt / res.n_opt - 0.1) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ghz_design(SpeciesParams(0.0, 1.0, 1e-17, 1e-41))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["gamma_sp", "delta_e", "kappa", "k3"])
    def test_rejects_non_finite(self, field, value):
        p = dataclasses.replace(SR, **{field: value})
        for check in (validate_species, ghz_design, ghz_design_grid):
            with pytest.raises(ValueError, match="finite"):
                check(p)


class TestGhzDesignGrid:
    def test_oracle_agrees_at_paper_point(self):
        grid = ghz_design_grid(SR)
        assert abs(grid.gamma_min / 1e-8 - 1.0) <= 0.05

    def test_degenerate_grid_containing_optimum(self):
        closed = ghz_design(SR)
        res = ghz_design_grid(SR, np.array([closed.n_opt]), np.array([closed.v_opt]))
        assert res.gamma_min == closed.gamma_min
        assert res.n_opt == closed.n_opt and res.v_opt == closed.v_opt

    def test_infeasible_grid(self):
        tiny_kappa = SpeciesParams(1e-3, 1.0, 1e-30, 1e-41)
        with pytest.raises(ValueError):
            ghz_design_grid(tiny_kappa, np.array([1e5]), np.array([1e-14]))

    def test_random_species_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = SpeciesParams(
                gamma_sp=10.0 ** rng.uniform(-6, 0),
                delta_e=1.0,
                kappa=10.0 ** rng.uniform(-20, -14),
                k3=10.0 ** rng.uniform(-44, -38),
            )
            closed = ghz_design(p)
            grid = ghz_design_grid(p)
            assert abs(closed.gamma_min / grid.gamma_min - 1.0) <= 0.05

    def test_default_grids_span_and_center(self):
        n_grid, v_grid = default_design_grids(SR)
        closed = ghz_design(SR)
        assert len(n_grid) == 301 and len(v_grid) == 301
        assert math.isclose(n_grid[150], closed.n_opt, rel_tol=1e-9)
        assert math.isclose(v_grid[-1] / v_grid[0], 1e6, rel_tol=1e-6)

    def test_oversized_caller_grid_refused(self):
        # one point over the per-axis limit, refused before any cost array
        # (the default grids are checked through the CLI in test_cli)
        closed = ghz_design(SR)
        long_axis = np.full(DESIGN_MAX_GRID_AXIS + 1, closed.n_opt)
        with pytest.raises(ValueError, match="exceeds the limit"):
            ghz_design_grid(SR, long_axis, np.array([closed.v_opt]))


class TestMatterWave:
    def test_sodium_at_planck_benchmark(self):
        res = matterwave_bound(NA_MASS, 3000.0, 20e-6, PLANCK_TIME)
        assert 3e7 <= res.rate <= 1.5e8
        assert 20e-6 <= res.decoherence_length <= 100e-6
        assert res.excluded

    def test_sigma_zero_sentinel(self):
        res = matterwave_bound(NA_MASS, 3000.0, 20e-6, 0.0)
        assert res.rate == 0.0
        assert math.isinf(res.decoherence_length)
        assert not res.excluded

    def test_short_flight_not_excluded(self):
        res = matterwave_bound(NA_MASS, 3000.0, 20e-6, PLANCK_TIME, flight_path=1e-5)
        assert not res.excluded


class TestDistanceReach:
    def test_laser_limited(self):
        res = distance_reach(0.0, 1e-3, 1.0)
        assert res.l_laser == C_LIGHT
        assert res.l_max == res.l_laser
        assert math.isinf(res.l_decoherence)

    def test_dephasing_limited(self):
        res = distance_reach(1e-8, 1e-3, 1.0)
        assert abs(res.l_decoherence - C_LIGHT * 1e-2) <= 1e-6
        assert abs(res.l_decoherence / 3e6 - 1.0) <= 0.01
        assert res.l_max == res.l_decoherence

    def test_one_second_coherence(self):
        assert abs(distance_reach(0.0, 0.0, 1.0).l_laser / 2.998e8 - 1.0) <= 1e-3


class TestCosmicBound:
    def test_age_scaling(self):
        base = cosmic_bound(PLANCK_TIME, 1e17)
        assert abs(cosmic_bound(PLANCK_TIME, 4e17) / base - 0.5) <= 1e-12

    def test_sigma_scaling(self):
        base = cosmic_bound(1e-44, 1e17)
        assert abs(cosmic_bound(1e-42, 1e17) / base - 0.1) <= 1e-12


class TestScaleCovariance:
    def test_design_rescales_with_time_unit(self):
        # expressing all rates in a unit s times smaller multiplies every
        # 1/time output by s and leaves the volume untouched
        s = 7.3
        scaled = SpeciesParams(SR.gamma_sp * s, SR.delta_e, SR.kappa * s, SR.k3 * s)
        base = ghz_design(SR)
        res = ghz_design(scaled)
        assert abs(res.gamma_min / (base.gamma_min * s) - 1.0) <= 1e-12
        assert abs(res.v_opt / base.v_opt - 1.0) <= 1e-12
        assert abs(res.n_opt / base.n_opt - 1.0) <= 1e-12
        assert abs(res.creation_time / (base.creation_time / s) - 1.0) <= 1e-12

    def test_matterwave_rate_linear_in_sigma(self):
        a = matterwave_bound(NA_MASS, 3000.0, 20e-6, 1e-44)
        b = matterwave_bound(NA_MASS, 3000.0, 20e-6, 1e-43)
        assert abs(b.rate / a.rate - 10.0) <= 1e-12
