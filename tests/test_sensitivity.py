"""Tests for the reach calculators and the GHZ design optimizer."""

import dataclasses
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from dense_oracles import design_grid_dense
from edsim.constants import C_LIGHT, DESIGN_MAX_GRID_AXIS, PLANCK_TIME
from edsim.sensitivity import (
    _GRID_BLOCK_CELLS,
    SpeciesParams,
    cosmic_bound,
    default_design_grids,
    distance_reach,
    ghz_design,
    ghz_design_grid,
    matterwave_bound,
    single_atom_reach,
)

SR = SpeciesParams(gamma_sp=1e-3, delta_e=1.0, kappa=1e-17, k3=1e-41)
NA_MASS = 22.98976928 * 1.66053906660e-27
NON_FINITE = [math.nan, math.inf]


class TestSingleAtomReach:
    def test_linear_in_rate(self):
        assert abs(single_atom_reach(1e-1, 1.0) / single_atom_reach(1e-3, 1.0) - 100.0) <= 1e-12

    def test_inverse_square_in_gap(self):
        assert abs(single_atom_reach(1e-3, 10.0) / single_atom_reach(1e-3, 1.0) - 0.01) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            single_atom_reach(0.0, 1.0)

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("at", range(2))
    def test_rejects_non_finite(self, at, value):
        args = [1e-3, 1.0]
        args[at] = value
        with pytest.raises(ValueError, match="finite"):
            single_atom_reach(*args)


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

    def test_tiny_gamma_sp(self):
        # gamma_sp**3 underflows, gamma_min = 10**-183.5 does not
        res = ghz_design(SpeciesParams(1e-120, 1.0, 1e-17, 1e-41))
        assert math.isclose(res.gamma_min, 10**-183.5, rel_tol=1e-14)
        assert math.isclose(res.rates.three_body, res.gamma_min, rel_tol=1e-12)
        with pytest.raises(ValueError, match=r"gamma_sp\*k3 underflows"):
            ghz_design(SpeciesParams(1e-200, 1.0, 1e-17, 1e-200))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["gamma_sp", "delta_e", "kappa", "k3"])
    def test_rejects_non_finite(self, field, value):
        # the species is checked when built, before any design can use it
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(SR, **{field: value})

    @pytest.mark.parametrize("field", ["gamma_sp", "delta_e", "kappa", "k3"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(SR, **{field: -1.0})


class TestGhzDesignGrid:
    def test_oracle_agrees_at_paper_point(self):
        grid = ghz_design_grid(SR, *default_design_grids(SR))
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
            grid = ghz_design_grid(p, *default_design_grids(p))
            assert abs(closed.gamma_min / grid.gamma_min - 1.0) <= 0.05

    def test_default_grids_span_and_center(self):
        n_grid, v_grid = default_design_grids(SR)
        closed = ghz_design(SR)
        assert len(n_grid) == 301 and len(v_grid) == 301
        assert math.isclose(n_grid[150], closed.n_opt, rel_tol=1e-9)
        assert math.isclose(v_grid[-1] / v_grid[0], 1e6, rel_tol=1e-6)

    @pytest.mark.parametrize("decades, per_decade, key", [
        (-5.0, 50, "decades"), (6.0, -1, "points_per_decade"), (math.nan, 50, "decades"),
    ])
    def test_default_grids_reject_negative_sizes(self, decades, per_decade, key):
        with pytest.raises(ValueError, match=f"^{key} must be non-negative"):
            default_design_grids(SR, decades, per_decade)

    @pytest.mark.parametrize("field", ["gamma_sp", "kappa", "k3", "delta_e"])
    def test_rejects_what_the_closed_form_rejects(self, field):
        # with explicit grids, gamma_sp = 0 and delta_e = 0 used to divide
        # by zero and k3 = 0 returned a design the closed form refuses
        p = dataclasses.replace(SR, **{field: 0.0})
        with pytest.raises(ValueError, match="must be positive"):
            ghz_design(p)
        with pytest.raises(ValueError, match="must be positive"):
            ghz_design_grid(p, np.logspace(3.0, 7.0, 9), np.logspace(-16.0, -12.0, 9))

    @pytest.mark.parametrize("decades, per_decade", [(1e308, 10), (math.inf, 1), (math.inf, 0)])
    def test_default_grids_refuse_an_overflowing_span(self, decades, per_decade):
        # decades*points_per_decade is inf (or inf*0 = nan): refused, not OverflowError
        with pytest.raises(ValueError, match=f"exceeds the limit {DESIGN_MAX_GRID_AXIS}$"):
            default_design_grids(SR, decades, per_decade)

    @pytest.mark.parametrize("bad", [
        [1e5, 0.0], [1e5, -1e5], [1e5, math.nan], [1e5, math.inf], [[1e5, 2e5]], 1e5,
    ], ids=["zero", "negative", "nan", "inf", "2-D", "0-D"])
    @pytest.mark.parametrize("name", ["n_grid", "v_grid"])
    def test_grids_must_be_finite_positive_1d(self, name, bad):
        # checked before any cell: a 0 or NaN would otherwise warn, and a
        # negative N could win the argmin
        grids = {"n_grid": np.array([1e5]), "v_grid": np.array([1e-14]), name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a 1-D array of finite positive"):
            ghz_design_grid(SR, **grids)

    @pytest.mark.parametrize("n_grid, v_grid", [([], [1e-14]), ([1e5], np.empty((0, 2)))])
    def test_empty_grid_message_unchanged(self, n_grid, v_grid):
        with pytest.raises(ValueError, match="^grids must be non-empty$"):
            ghz_design_grid(SR, n_grid, v_grid)

    def test_underflowing_divisor_at_design_point(self):
        # n*v underflows to 0 at this feasible grid point, and at the closed
        # form of an extreme species: a ValueError naming it, not ZeroDivisionError
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^n\*v underflows to 0"):
            ghz_design_grid(SR, [1e-320], [1e-10])
        with pytest.raises(ValueError, match=r"^n\*v underflows to 0"):
            ghz_design(SpeciesParams(1e300, 1.0, 1e-300, 1e300))

    def test_overflowing_optimum_is_refused(self):
        # the only feasible cell has gamma_sp/N = kappa/(N*V) = inf: its cost
        # is refused by name, not by single_atom_reach's generic message
        p = SpeciesParams(gamma_sp=1.0, delta_e=1.0, kappa=1.0, k3=1e-41)
        for search in (ghz_design_grid, design_grid_dense):
            with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^gamma_min is not finite \(inf\)"):
                search(p, np.array([1e-310, 1e5]), np.array([10.0]))

    def test_blocked_scan_matches_whole_grid(self):
        # the row-block scan returns exactly the whole-grid argmin cell,
        # or the same error, over seeded grids that cover one-point axes,
        # a partial last block (rows - 1, rows, rows + 1 N points), ties
        # from repeated values, infeasible grids and costs that overflow
        # to inf or turn NaN
        rng = np.random.default_rng(20)
        outcomes = {"result": 0, "error": 0}
        for case in range(600):
            p = SpeciesParams(
                gamma_sp=10.0 ** rng.uniform(-6.0, 0.0),
                delta_e=1.0,
                kappa=10.0 ** rng.uniform(-20.0, -14.0),
                k3=10.0 ** rng.uniform(-44.0, -38.0),
            )
            closed = ghz_design(p)
            kind = case % 6
            v_len = 1 if kind == 0 else int(rng.integers(5, 400))
            rows = max(1, _GRID_BLOCK_CELLS // v_len)
            if kind == 0:
                n_len = 1
            elif kind in (1, 2, 3):
                n_len = rows + int(rng.integers(-1, 2))
            else:
                n_len = int(rng.integers(1, 300))

            def log_axis(centre, size):
                # off-centre and truncated: a random shift and span in decades
                offset, span = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 4.0)
                return centre * 10.0 ** (offset + span * np.linspace(-0.5, 0.5, size))

            n_axis, v_axis = log_axis(closed.n_opt, n_len), log_axis(closed.v_opt, v_len)
            if kind == 2:  # ties: a few values repeated across rows and blocks
                n_axis = rng.choice(n_axis[:: max(1, n_len // 4)], n_len)
                v_axis = rng.choice(v_axis[:: max(1, v_len // 4)], v_len)
            elif kind == 3:  # no feasible cell: far above the optimum in N and V
                n_axis, v_axis = n_axis * 1e6, v_axis * 1e6
            elif kind == 4:  # gamma_sp/N, V*V and N*V overflow; k3*N/V**2 turns 0/0 = NaN
                n_axis = np.where(rng.random(n_len) < 0.3, 10.0 ** rng.uniform(-320, -290, n_len), n_axis)
                v_axis = np.where(rng.random(v_len) < 0.3, 10.0 ** rng.choice([-200.0, 200.0], v_len), v_axis)
            elif kind == 5:  # equal costs on a fully repeated axis
                n_axis = np.full(n_len, n_axis[0])
            with np.errstate(all="ignore"):
                try:
                    want = design_grid_dense(p, n_axis, v_axis)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        ghz_design_grid(p, n_axis, v_axis)
                    outcomes["error"] += 1
                    continue
                got = ghz_design_grid(p, n_axis, v_axis)
            assert (got.n_opt, got.v_opt, got.gamma_min) == (want.n_opt, want.v_opt, want.gamma_min), case
            outcomes["result"] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_axis_limit_grid_memory(self):
        # a DESIGN_MAX_GRID_AXIS**2 grid used to hold several count**2 float
        # temporaries (~400 MB); the row-block scan holds a few blocks
        n_grid, v_grid = default_design_grids(SR, 1.0, DESIGN_MAX_GRID_AXIS - 1)
        assert n_grid.size == v_grid.size == DESIGN_MAX_GRID_AXIS
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = ghz_design_grid(SR, n_grid, v_grid)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.gamma_min == ghz_design(SR).gamma_min
        assert peak < 16e6, peak
        assert elapsed < 1.0, elapsed

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

    def test_underflowing_rate_is_refused(self):
        # a nonzero sigma used to read as sigma = 0: rate 0, unbounded, not excluded
        with pytest.raises(ValueError, match=r"sigma\*\(m\*c\*\*2/hbar\)\*\*2 underflows"):
            matterwave_bound(1e-300, 1.0, 1.0, 1e-40)
        assert math.isinf(matterwave_bound(1e-300, 1.0, 1.0, 0.0).decoherence_length)

    def test_short_flight_not_excluded(self):
        res = matterwave_bound(NA_MASS, 3000.0, 20e-6, PLANCK_TIME, flight_path=1e-5)
        assert not res.excluded

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("at", range(5))
    def test_rejects_non_finite(self, at, value):
        # a NaN sigma used to give excluded=False, an infinite one excluded=True
        args = [NA_MASS, 3000.0, 20e-6, PLANCK_TIME, 1.0]
        args[at] = value
        with pytest.raises(ValueError, match="finite"):
            matterwave_bound(*args)


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

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("at", range(3))
    def test_rejects_non_finite(self, at, value):
        # a NaN gamma used to fall through to the laser limit
        args = [1e-8, 1e-3, 1.0]
        args[at] = value
        with pytest.raises(ValueError, match="finite"):
            distance_reach(*args)


class TestCosmicBound:
    def test_age_scaling(self):
        base = cosmic_bound(PLANCK_TIME, 1e17)
        assert abs(cosmic_bound(PLANCK_TIME, 4e17) / base - 0.5) <= 1e-12

    def test_sigma_scaling(self):
        base = cosmic_bound(1e-44, 1e17)
        assert abs(cosmic_bound(1e-42, 1e17) / base - 0.1) <= 1e-12

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
    @pytest.mark.parametrize("at", range(2))
    def test_rejects_non_finite(self, at, value):
        # an infinite sigma or age used to give a 0 eV bound
        args = [PLANCK_TIME, 1e17]
        args[at] = value
        with pytest.raises(ValueError, match="finite"):
            cosmic_bound(*args)


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
