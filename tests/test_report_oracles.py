"""The one-pass cycle index, the within-cycle jump pairing, the as_dict
serializers and the passes that read the arc in blocks of rows against
their earlier implementations in report_oracles.py: same slices, same
verdicts, same dicts, for any block size."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracles as old
from xbstab import model
from xbstab.analysis import (_within_cycle_period, check_dwell_lower_bound,
                             check_envelope, check_phi_oracle,
                             check_vobs_monotone, cycle_slice, cycle_slices,
                             extract_dwell, overshoot_comparison,
                             verify_bounds)
from xbstab.cli import _sanitize
from xbstab.errors import CycleNotFound, NoExcitation
from xbstab.lyapunov import (decay_certificate, dwell_certificate,
                             dwell_time_lower_bound)
from xbstab.model import JumpKind, JumpRecord

from arcs import arc
from test_analysis import _fake_decay, make_traj
from test_model import make_cfg

_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_CYCLES = st.lists(st.integers(-2, 4) | _INT64, max_size=60)
# rows per block of the passes: from one row to several blocks per arc
_ROWS = st.integers(1, 9) | st.just(model._BLOCK_ROWS)


@settings(max_examples=300, deadline=None)
@given(col=_CYCLES, ordered=st.booleans(), rows=_ROWS)
def test_cycle_slices_match_flatnonzero(col, ordered, rows):
    cyc = np.array(sorted(col) if ordered else col, dtype=np.int64)
    traj = make_traj(np.zeros(cyc.size), np.zeros(cyc.size), cycle=cyc)
    expect = [(i, old.cycle_slice(traj, i)) for i in np.unique(cyc).tolist()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", rows)
        assert list(cycle_slices(traj).items()) == expect
        for i, sl in expect:
            assert cycle_slice(traj, i) == sl
        absent = max(col, default=0) + 1
        if absent < 2 ** 63:
            with pytest.raises(CycleNotFound):
                cycle_slice(traj, absent)


# a jump log sorted by j with distinct j: a j gap of 1 makes two jumps
# successive, and mostly WithinCycle kinds make most of those a pair
_JUMPS = st.lists(st.tuples(st.sampled_from([1, 1, 1, 2]),
                            st.floats(0.0, 1.0),
                            st.sampled_from([JumpKind.WITHIN_CYCLE] * 3
                                            + [JumpKind.NEW_CYCLE])),
                  max_size=40)


def _jump_log(draws, sort_t):
    """JumpRecords from (j gap, t, kind) draws; with sort_t the times
    rise with j, as in a simulated jump log."""
    ts = [t for _, t, _ in draws]
    if sort_t:
        ts.sort()
    jumps, j = [], 0
    for (gap, _, kind), t in zip(draws, ts):
        j += gap
        jumps.append(JumpRecord(t=t, j=j, kind=kind))
    return jumps


@settings(max_examples=200, deadline=None)
@given(draws=_JUMPS, cycles=st.lists(st.integers(0, 3), min_size=2,
                                     max_size=60),
       z1=st.floats(0.0, 400.0), ordered=st.booleans(),
       sort_t=st.booleans(), rows=_ROWS)
def test_within_cycle_pairs_match_oracle(sv_params, draws, cycles, z1,
                                         ordered, sort_t, rows):
    n = len(cycles)
    cyc = np.array(sorted(cycles) if ordered else cycles, dtype=np.int64)
    # |z1| falls over the run, so each cycle enters its invariant set
    # |z1| <= z_bar_i at a different row, or never
    traj = make_traj(np.linspace(0.0, 1.0, n),
                     z1 * np.linspace(1.0, 0.0, n) ** 2, cycle=cyc,
                     jumps=_jump_log(draws, sort_t))
    cfg = make_cfg()
    assert _within_cycle_period(traj.jumps) == old._within_cycle_period(traj)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", rows)
        assert (check_dwell_lower_bound(traj, sv_params, cfg)
                == old.check_dwell_lower_bound(traj, sv_params, cfg))


def _arc(seed: int, n: int, cycles: int):
    """n rows of an arc with duplicated jump rows, excitation runs that
    the reference |z*| halving per cycle opens and closes, |z1| that
    leaves and enters the invariant sets of cycles 1 and 2, and an
    estimation error that shrinks, stalls and grows."""
    rng = np.random.default_rng(seed)
    dt = rng.choice([0.0, 1e-3, 2e-3, 0.1], n - 1, p=[0.2, 0.4, 0.3, 0.1])
    t = np.concatenate([[0.0], np.cumsum(dt)])
    cyc = np.sort(rng.integers(0, cycles, n))
    z_star = 75.0 / 2.0 ** cyc * rng.choice([-1.0, 1.0])
    z1 = (rng.choice([0.0, 10.0, 30.0, 60.0, 200.0], n)
          * rng.choice([-1, 1], n))
    zt = (rng.standard_normal((n, 2))
          * np.exp(rng.uniform(-3.0, 3.0) * np.sin(t * rng.uniform(1, 9)))
          [:, None])
    phi = 1.0 + 1e-3 * rng.standard_normal((n, 4))
    jumps = [JumpRecord(t=float(t[k]), j=m + 1, kind=JumpKind.WITHIN_CYCLE)
             for m, k in enumerate(np.flatnonzero(dt == 0.0))]
    return make_traj(t, z1, z_tilde=zt, z_star=z_star, cycle=cyc, phi=phi,
                     jumps=jumps)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 60),
       cycles=st.integers(1, 3), rows=_ROWS,
       kappa=st.sampled_from([0.5, 1.0, 2.0]),
       rate=st.sampled_from([0.0, 1.0, 30.0]))
def test_blocked_passes_match_whole_columns(sv_params, sv_cert, seed, n,
                                            cycles, rows, kappa, rate):
    """extract_dwell and the per-sample checks equal their whole-column
    versions for every block size: the same dicts and floats, bit for bit."""
    traj = _arc(seed, n, cycles)
    decay = _fake_decay(kappa, rate, 1.0)

    def dwell(extract):
        try:
            return extract(traj).to_dict()
        except NoExcitation as exc:
            return str(exc)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", rows)
        assert dwell(extract_dwell) == dwell(old.extract_dwell)
        assert (check_vobs_monotone(traj, sv_cert)
                == old.check_vobs_monotone(traj, sv_cert))
        assert check_phi_oracle(traj) == old.check_phi_oracle(traj)
        assert (check_dwell_lower_bound(traj, sv_params, make_cfg())
                == old.check_dwell_lower_bound(traj, sv_params, make_cfg()))
        for i in np.unique(traj.cycle).tolist():
            assert (check_envelope(traj, decay, i)
                    == old.check_envelope(traj, decay, i))


def _marked_arc(seed: int, n_marks: int):
    """An arc kept as simulate keeps it: j, cycle and z_star as marks,
    one per flow interval, each mark's first row the post-jump copy of
    the row before it. Within-cycle jumps flip z*,
    cycle jumps halve it; the cycle column repeats its value over the
    marks of one cycle, as the engine's does."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 12, n_marks)
    n = int(counts.sum())
    first = np.concatenate(([0], np.cumsum(counts[:-1])))
    new_cycle = rng.random(n_marks) < 0.3
    new_cycle[0] = False
    cyc = np.cumsum(new_cycle)
    sign = np.cumprod(np.where(new_cycle, 1.0, -1.0))
    z_star = 75.0 / 2.0 ** cyc * sign
    dt = rng.choice([1e-3, 2e-3, 0.1], n - 1, p=[0.5, 0.4, 0.1])
    dt[first[1:] - 1] = 0.0
    t = np.concatenate([[0.0], np.cumsum(dt)])
    z1 = (rng.choice([0.0, 10.0, 30.0, 60.0, 200.0], n)
          * rng.choice([-1, 1], n))
    zt = (rng.standard_normal((n, 2))
          * np.exp(rng.uniform(-3.0, 3.0) * np.sin(t * rng.uniform(1, 9)))
          [:, None])
    traj = arc(
        t=t, j=np.repeat(np.arange(n_marks), counts),
        cycle=np.repeat(cyc, counts), tau=np.zeros(n), z1=z1,
        z2=rng.uniform(-0.5, 1.0, n), z_tilde1=zt[:, 0], z_tilde2=zt[:, 1],
        z_star=np.repeat(z_star, counts),
        phi=1.0 + 1e-3 * rng.standard_normal((n, 4)),
        jumps=[JumpRecord(t=float(t[r]), j=k,
                          kind=(JumpKind.NEW_CYCLE if new_cycle[k + 1]
                                else JumpKind.WITHIN_CYCLE))
               for k, r in enumerate(first[1:].tolist())])
    assert np.array_equal(traj.marks[0], first)
    return traj


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_marks=st.integers(1, 12),
       rows=_ROWS, kappa=st.sampled_from([0.5, 1.0, 2.0]),
       rate=st.sampled_from([0.0, 1.0, 30.0]))
def test_marks_backed_arc_matches_whole_columns(sv_params, sv_cert, seed,
                                                n_marks, rows, kappa, rate):
    """cycle_slices, extract_dwell and verify_bounds on an arc whose j,
    cycle and z_star are per-jump marks equal the whole-column oracles,
    for every block size."""
    traj = _marked_arc(seed, n_marks)
    traj.validate_domain()
    decay = _fake_decay(kappa, rate, 1.0)
    cfg = make_cfg()

    def dwell(extract):
        try:
            return extract(traj).to_dict()
        except NoExcitation as exc:
            return str(exc)

    cycles = np.unique(traj.cycle).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", rows)
        assert list(cycle_slices(traj).items()) == [
            (i, old.cycle_slice(traj, i)) for i in cycles]
        assert dwell(extract_dwell) == dwell(old.extract_dwell)
        for i in cycles:
            rep = verify_bounds(traj, sv_params, cfg, sv_cert, decay, i)
            env = old.check_envelope(traj, decay, i)
            assert ((rep.vobs_monotone, rep.vobs_worst_violation)
                    == old.check_vobs_monotone(traj, sv_cert))
            assert ((rep.envelope_ok, rep.envelope_T, rep.envelope_margin)
                    == (env["envelope_ok"], env["T"], env["margin"]))
            assert rep.phi_oracle_max_err == old.check_phi_oracle(traj)
            assert ((rep.dwell_ok, rep.dwell_min_ratio)
                    == old.check_dwell_lower_bound(traj, sv_params, cfg))
            assert rep.z2_floor_margin == float(
                np.min(np.asarray(traj.z2) - sv_params.z2_floor)
                / -sv_params.z2_floor)


def test_within_cycle_pairs_match_oracle_on_golden_run(golden_run, sv_params,
                                                       sv_cfg):
    assert _within_cycle_period(golden_run.jumps) > 0.0
    assert (_within_cycle_period(golden_run.jumps)
            == old._within_cycle_period(golden_run))
    ok, ratio = check_dwell_lower_bound(golden_run, sv_params, sv_cfg)
    assert math.isfinite(ratio)
    assert (ok, ratio) == old.check_dwell_lower_bound(golden_run, sv_params,
                                                      sv_cfg)
    assert list(cycle_slices(golden_run).items()) == [
        (i, old.cycle_slice(golden_run, i))
        for i in np.unique(golden_run.cycle).tolist()]


def _assert_same_bits(new, expect):
    for a, b in zip(new, expect, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("rows", [7, None])
@pytest.mark.parametrize("i_star", [1, 2])
def test_overshoot_rows_match_masks_on_golden_run(golden_run, sv_params,
                                                  sv_cfg, i_star, rows):
    """overshoot_comparison finds its last row by a search of t, a block at
    a time: (ts, z2, bound) are the whole-column masks' bit for bit."""
    expect = old.overshoot_comparison(golden_run, sv_params, sv_cfg, i_star)
    assert expect[0].size > 100
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(model, "_BLOCK_ROWS", rows)
        _assert_same_bits(overshoot_comparison(golden_run, sv_params, sv_cfg,
                                               i_star), expect)


@pytest.mark.parametrize("rows", [1, 2, 3, model._BLOCK_ROWS])
def test_overshoot_rows_run_past_a_short_cycle(sv_params, sv_cfg, rows):
    """A cycle shorter than T_lmin: the rows of the next cycle up to
    t_c + T_lmin are selected too, a repeated t at that end included, as
    the masks select them."""
    _, _, t_lmin = dwell_time_lower_bound(sv_params, sv_cfg, 1)
    t = np.arange(40) * 5e-5
    t[20:22] = t[10] + t_lmin               # the end, at a jump's two rows
    cycle = np.array([0] * 10 + [1] * 4 + [2] * 26)
    traj = make_traj(t, np.linspace(1.0, 2.0, 40), cycle=cycle)
    expect = old.overshoot_comparison(traj, sv_params, sv_cfg, 1)
    assert expect[0].size == 12
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_BLOCK_ROWS", rows)
        _assert_same_bits(overshoot_comparison(traj, sv_params, sv_cfg, 1),
                          expect)


@pytest.fixture(scope="module")
def golden_reports(golden_run, sv_params, sv_cfg, sv_cert, sv_gains):
    """Every serialized report and certificate type, from the golden run."""
    dwell = extract_dwell(golden_run)
    decay = decay_certificate(
        sv_gains, sv_cert, (dwell.tau_d, dwell.tau_s, dwell.z_under))
    bounds = verify_bounds(golden_run, sv_params, sv_cfg, sv_cert, decay,
                           from_cycle=0)
    return [
        (dwell, old.dwell_report_to_dict),
        (bounds, old.bound_report_to_dict),
        (sv_cert, old.lyapunov_certificate_to_dict),
        (decay, old.decay_certificate_to_dict),
        # kappa1 overflows to inf for long windows; the report spells it out
        (dataclasses.replace(decay, rho=0.0, kappa1=math.inf),
         old.decay_certificate_to_dict),
    ] + [(dwell_certificate(sv_params, sv_cfg, i),
          old.dwell_time_certificate_to_dict) for i in (1, 2, 3)]


def test_as_dict_matches_written_serializers(golden_reports):
    for obj, to_dict in golden_reports:
        new, expect = obj.to_dict(), to_dict(obj)
        assert list(new) == list(expect), type(obj).__name__
        assert new == expect, type(obj).__name__
        assert ([type(v) for v in new.values()]
                == [type(v) for v in expect.values()]), type(obj).__name__
        assert (json.dumps(_sanitize(new), sort_keys=True)
                == json.dumps(_sanitize(expect), sort_keys=True))
