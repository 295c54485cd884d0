"""Unit tests for domain types, schedules and configuration validation."""

import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbstab import (ControllerConfig, HSchedule, HybridState,
                    HybridTrajectory, InvalidGains, ObserverGains,
                    PlantParams, SolverConfig, derive_control_gain, g_of,
                    t_lmin_asymptote)
from xbstab.cli import _csv_columns
from xbstab.engine import initial_cycle

from arcs import arc


def make_cfg(**kw):
    base = dict(z_star_init=75.0, k_prime=1.0, epsilon=0.01, R=1.0,
                R_tilde=0.5, h_schedule=HSchedule.paper_v(), max_cycles=9)
    base.update(kw)
    return ControllerConfig(**base)


class TestPlantParams:
    def test_floor_and_output(self):
        p = PlantParams(a=375.0, c=24.0, d=12.5)
        assert p.z2_floor == pytest.approx(-12.5 / 24.0)

    @pytest.mark.parametrize("bad", [dict(a=0.0, c=1, d=1),
                                     dict(a=1, c=-2, d=1),
                                     dict(a=1, c=1, d=0.0)])
    def test_positivity_enforced(self, bad):
        with pytest.raises(ValueError):
            PlantParams(**bad)

    @pytest.mark.parametrize("name", ["a", "c", "d"])
    def test_infinity_refused(self, name):
        """An infinity passes the positivity test; it is refused by name,
        as the CLI refuses it."""
        kw = dict(a=375.0, c=24.0, d=12.5)
        kw[name] = math.inf
        with pytest.raises(ValueError, match=f"finite.*{name}=inf"):
            PlantParams(**kw)


class TestObserverGains:
    def test_mode_matrices(self, sv_gains):
        assert np.allclose(sv_gains.A1, [[-40.0, -375.0], [3.0, 24.0]])
        assert np.allclose(sv_gains.A2, [[8.0, 375.0], [-0.952, -24.0]])

    def test_injection_switches_on_sign(self, sv_gains):
        assert sv_gains.injection(1.0) == (40.0, -3.0)
        assert sv_gains.injection(-1.0) == (8.0, -0.952)
        assert sv_gains.injection(0.0) == (0.0, 0.0)

    def test_hurwitz_inequalities_enforced(self, sv_params):
        with pytest.raises(InvalidGains):
            ObserverGains(params=sv_params, k1_plus=20.0, k2_plus=-3.0,
                          k1_minus=8.0, k2_minus=-0.952)
        with pytest.raises(InvalidGains):
            ObserverGains(params=sv_params, k1_plus=40.0, k2_plus=-1.0,
                          k1_minus=8.0, k2_minus=-0.952)


class TestHSchedule:
    def test_paper_v_rule(self):
        s = HSchedule.paper_v()
        for i in range(1, 9):
            assert s.h(i) == pytest.approx(1.0 / (1.0 + 4.0 ** -i))
        assert s.h(9) == 0.5
        assert s.h(100) == 0.5

    def test_explicit_repeats_last(self):
        s = HSchedule.explicit([0.3, 0.6])
        assert s.h(1) == 0.3 and s.h(2) == 0.6 and s.h(7) == 0.6

    def test_power_rule(self):
        s = HSchedule.power(4.0)
        assert s.h(3) == pytest.approx(1.0 / (1.0 + 4.0 ** -3))
        assert s.h(50) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [
        lambda: HSchedule.constant(0.0),
        lambda: HSchedule.constant(1.0),
        lambda: HSchedule.explicit([]),
        lambda: HSchedule.explicit([0.5, 1.2]),
        lambda: HSchedule.power(1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_h_defined_from_one(self):
        with pytest.raises(ValueError):
            HSchedule.paper_v().h(0)

    @given(st.sampled_from(["constant", "paper_v", "power"]),
           st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.01, max_value=0.99))
    def test_h_always_in_unit_interval(self, kind, i, v):
        s = {"constant": lambda: HSchedule.constant(v),
             "paper_v": HSchedule.paper_v,
             "power": lambda: HSchedule.power(2.0 + 10.0 * v)}[kind]()
        assert 0.0 < s.h(i) < 1.0

    @pytest.mark.parametrize("base, cycles", [(4.0, range(27, 80)),
                                              (1e16, range(1, 5)),
                                              (1e300, range(1, 5))])
    def test_power_rounding_to_one_gives_the_double_below(self, base,
                                                           cycles):
        """1/(1 + b^-i) rounds to 1.0 for these cycles; h(i) is the largest
        double below 1 there instead."""
        s = HSchedule.power(base)
        for i in cycles:
            assert 1.0 / (1.0 + base ** -i) == 1.0
            assert s.h(i) == math.nextafter(1.0, 0.0)


class TestControllerConfig:
    def test_h0_gating(self, sv_cert):
        cfg = make_cfg()
        h0 = cfg.h0(sv_cert.gamma)
        assert h0 == pytest.approx(0.01 / (sv_cert.gamma * 0.5))
        assert cfg.h_of(0, sv_cert.gamma) == h0
        assert cfg.h_of(3, sv_cert.gamma) == cfg.h_schedule.h(3)

    def test_exact_estimate_needs_no_initialization(self):
        assert make_cfg(R_tilde=0.0).h0(gamma=29.31) == 1.0

    @pytest.mark.parametrize("kw", [dict(z_star_init=-1.0),
                                    dict(k_prime=0.0),
                                    dict(epsilon=0.0),
                                    dict(R=-0.1),
                                    dict(max_cycles=0)]
                             + [{name: math.nan} for name in (
                                 "z_star_init", "k_prime", "epsilon", "R",
                                 "R_tilde")])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            make_cfg(**kw)

    @pytest.mark.parametrize("name", ["z_star_init", "k_prime", "epsilon",
                                      "R", "R_tilde", "max_cycles"])
    def test_infinity_refused(self, name):
        """An infinity passes every sign test; it is refused by name."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make_cfg(**{name: math.inf})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "3", np.float64(3.0),
                                     np.int64(0)])
    def test_max_cycles_must_be_an_integer(self, bad):
        """A fraction, an integral float, a bool or a string is refused by
        name: simulate would call range() on it and raise a bare
        TypeError."""
        with pytest.raises(ValueError, match="^max_cycles must be finite, "
                                             "an integer and at least 1"):
            make_cfg(max_cycles=bad)

    @pytest.mark.parametrize("good", [1, 3, np.int64(3), np.int32(2)])
    def test_max_cycles_integers_accepted(self, good, sv_cert):
        """Python's and NumPy's integers are counts."""
        cfg = make_cfg(max_cycles=good)
        assert cfg.max_cycles == good
        assert 0 <= initial_cycle(cfg, sv_cert.gamma) <= good


class TestScheduleHelpers:
    def test_g_is_cumulative_product(self):
        cfg = make_cfg()
        assert g_of(cfg, 0) == 1.0
        expected = 1.0
        for i in range(1, 12):
            expected *= cfg.h_schedule.h(i)
            assert g_of(cfg, i) == pytest.approx(expected)

    def test_t_lmin_asymptote(self, sv_params):
        cfg = make_cfg()
        assert t_lmin_asymptote(sv_params, cfg) == pytest.approx(
            (12.5 / 24.0 - 0.01) / (12.5 * 75.0))
        with pytest.raises(ValueError):
            t_lmin_asymptote(sv_params, make_cfg(epsilon=0.6))

    def test_derived_gain_dominates_every_bound(self, sv_params):
        cfg = make_cfg()
        gamma = 29.31
        k = derive_control_gain(sv_params, cfg, gamma)
        a, eps = sv_params.a, cfg.epsilon
        t_lmin = t_lmin_asymptote(sv_params, cfg)
        k_prime = k - gamma * a * cfg.R_tilde
        assert k_prime >= 16.0 * a * a * cfg.R_tilde ** 2
        assert k_prime >= 4.0 * a * a * eps * eps
        assert k_prime >= 10.0 * math.log(2.0) / t_lmin
        with pytest.raises(ValueError):
            derive_control_gain(sv_params, cfg, gamma=0.5)


# fields that construct each config; every other field takes its default
_VALID = {PlantParams: dict(a=375.0, c=24.0, d=12.5),
          ControllerConfig: dict(z_star_init=75.0, epsilon=0.01, R=1.0,
                                 R_tilde=0.5),
          SolverConfig: {}, HSchedule: dict(base=4.0)}
# wrong types, bools, fractions for the integer fields, signed zeros,
# infinities, nan and extremes, beside any float or integer
_ODD = st.one_of(
    st.sampled_from([True, False, np.True_, None, "1", b"1", [1.0], (1.0,),
                     1j, Fraction(1, 2), Decimal("0.5"), 0.0, -0.0, 2.5,
                     -2.5, math.inf, -math.inf, math.nan, 1e308, -1e308,
                     np.float64(3.0), np.int64(3), 10 ** 400]),
    st.floats(), st.integers())


@settings(max_examples=600, deadline=None)
@given(cls=st.sampled_from(list(_VALID)), data=st.data(), value=_ODD)
def test_odd_field_values_refused_by_name(cls, data, value):
    """Any value of any field of the four configs either constructs the
    config, as a finite number that is not a bool, or is refused with a
    ValueError naming the field. 600 examples, about 1 s."""
    name = data.draw(st.sampled_from([f.name for f in fields(cls)]))
    kw = dict(_VALID[cls])
    if cls is HSchedule and name == "values":
        kw = dict(values=(value,))
    else:
        kw[name] = value
    try:
        cls(**kw)
    except ValueError as exc:
        assert name in str(exc)
    else:
        assert not isinstance(value, bool) and math.isfinite(value)


class TestHybridState:
    def test_z_hat_and_replace(self):
        s = HybridState(tau=0.1, cycle=2, z=[1.0, 2.0], z_tilde=[0.5, -0.5],
                        z_star=18.75, phi=np.eye(2))
        assert np.allclose(s.z + s.z_tilde, [1.5, 1.5])
        s2 = s.replace(z_star=-18.75)
        assert s2.z_star == -18.75 and s2.cycle == 2
        assert np.array_equal(s2.z, s.z)

    @pytest.mark.parametrize("kw", [dict(tau=-1.0), dict(cycle=-1),
                                    dict(z=[1.0]),
                                    dict(phi=np.zeros((3, 2)))])
    def test_validation(self, kw):
        base = dict(tau=0.0, cycle=0, z=[0.0, 0.0], z_tilde=[0.0, 0.0],
                    z_star=75.0, phi=np.eye(2))
        base.update(kw)
        with pytest.raises(ValueError):
            HybridState(**base)


def _tiny_traj(t, j, cycle=None):
    n = len(t)
    return arc(
        t=np.asarray(t, dtype=float), j=np.asarray(j, dtype=np.int64),
        cycle=np.zeros(n, dtype=np.int64) if cycle is None
        else np.asarray(cycle, dtype=np.int64), tau=np.zeros(n),
        z1=np.zeros(n), z2=np.zeros(n), z_tilde1=np.zeros(n),
        z_tilde2=np.zeros(n), z_star=np.ones(n),
        phi=np.tile(np.eye(2).ravel(), (n, 1)), jumps=[])


class TestHybridTrajectory:
    def test_domain_validation(self):
        _tiny_traj([0.0, 1.0, 1.0, 2.0], [0, 0, 1, 1]).validate_domain()
        with pytest.raises(ValueError):
            _tiny_traj([0.0, 1.0, 0.5], [0, 0, 0]).validate_domain()
        with pytest.raises(ValueError):
            _tiny_traj([0.0, 1.0], [1, 0]).validate_domain()
        with pytest.raises(ValueError):
            _tiny_traj([0.0, 1.0], [0, 2]).validate_domain()
        # the cycle index moves forward only, and only across a jump
        _tiny_traj([0.0, 1.0, 1.0, 2.0], [0, 0, 1, 1],
                   [0, 0, 1, 1]).validate_domain()
        with pytest.raises(ValueError):
            _tiny_traj([0.0, 1.0, 1.0], [0, 0, 1], [1, 1, 0]).validate_domain()
        with pytest.raises(ValueError):
            _tiny_traj([0.0, 1.0, 2.0], [0, 0, 0], [0, 0, 1]).validate_domain()

    def test_column_length_consistency(self):
        """The marks are arrays of one length, one entry per mark, whose
        first rows start at row 0."""
        tr = _tiny_traj([0.0, 1.0, 1.0], [0, 0, 1])
        first, j, cycle, z_star = tr.marks
        for marks in [(first, j[:1], cycle, z_star), (first + 1, j, cycle,
                                                      z_star)]:
            with pytest.raises(ValueError):
                HybridTrajectory(tr.flow, marks, tr.closed)
        with pytest.raises(ValueError):
            arc(t=np.zeros(3), j=np.zeros(2, dtype=np.int64),
                cycle=np.zeros(3, dtype=np.int64), tau=np.zeros(3),
                z1=np.zeros(3), z2=np.zeros(3), z_tilde1=np.zeros(3),
                z_tilde2=np.zeros(3), z_star=np.zeros(3),
                phi=np.zeros((3, 4)))

    def test_estimate_and_control_columns(self, sv_params):
        """The CSV's estimates and control input, which the arc does not
        keep, are derived from its columns."""
        n = 2
        tr = arc(t=[0.0, 1.0], j=np.zeros(n, dtype=np.int64),
                 cycle=np.zeros(n, dtype=np.int64), tau=np.zeros(n),
                 z1=[1.0, -1.0], z2=np.zeros(n), z_tilde1=[0.5, 0.0],
                 z_tilde2=np.full(n, 0.25), z_star=np.ones(n),
                 phi=np.zeros((n, 4)))
        c = _csv_columns(tr, (sv_params, 500.0))(0, n)
        z1, z_star = np.asarray(tr.z1), np.asarray(tr.z_star)
        expected = sv_params.a * z1 * (np.asarray(tr.z2) + 0.25) \
            - 500.0 * (z1 - z_star)
        assert np.allclose(c["u"], expected)
        assert np.allclose(c["z2_hat"], 0.25)
        assert c["z1_hat"].tolist() == [1.5, -1.0]
        assert c["i"].tolist() == [0, 0]


class TestSolverConfig:
    def test_defaults_and_validation(self):
        s = SolverConfig()
        assert s.record_interval == 0.0 and s.tau_budget_rel == 2e-7
        nan = [{name: math.nan} for name in (
            "rel_tol", "abs_tol", "event_tol", "max_step", "t_end",
            "zeno_window", "record_interval", "tau_budget_rel")]
        for kw in [dict(rel_tol=0.0), dict(t_end=-1.0),
                   dict(zeno_max_jumps=1), dict(record_interval=-1e-3),
                   dict(tau_budget_rel=0.0)] + nan:
            with pytest.raises(ValueError):
                SolverConfig(**kw)

    @pytest.mark.parametrize("name", [
        "rel_tol", "abs_tol", "event_tol", "max_step", "t_end",
        "zeno_window", "zeno_max_jumps", "record_interval",
        "tau_budget_rel"])
    def test_infinity_refused(self, name):
        """SolverConfig(t_end=inf, rel_tol=inf) constructed, though the
        CLI refuses both: every field's infinity is refused by name."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SolverConfig(**{name: math.inf})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "3", np.float64(4.0),
                                     np.int64(1)])
    def test_zeno_max_jumps_must_be_an_integer(self, bad):
        """A jump count is refused by name unless it is an integer of at
        least 2, not a bool or a float."""
        with pytest.raises(ValueError, match="^zeno_max_jumps must be "
                                             "finite, an integer and at "
                                             "least 2"):
            SolverConfig(zeno_max_jumps=bad)

    @pytest.mark.parametrize("good", [2, 4000, np.int64(5), np.int16(3)])
    def test_zeno_max_jumps_integers_accepted(self, good):
        assert SolverConfig(zeno_max_jumps=good).zeno_max_jumps == good
