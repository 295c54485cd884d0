"""The one-pass cycle index, the within-cycle jump pairing and the
as_dict serializers against their earlier implementations in
report_oracles.py: same slices, same verdicts, same dicts."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracles as old
from xbstab.analysis import (_within_cycle_period, check_dwell_lower_bound,
                             cycle_slice, cycle_slices, extract_dwell,
                             verify_bounds)
from xbstab.cli import _sanitize
from xbstab.errors import CycleNotFound
from xbstab.lyapunov import decay_certificate, dwell_certificate
from xbstab.model import JumpKind, JumpRecord

from test_analysis import make_traj
from test_model import make_cfg

_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_CYCLES = st.lists(st.integers(-2, 4) | _INT64, max_size=60)


@settings(max_examples=300, deadline=None)
@given(col=_CYCLES, ordered=st.booleans())
def test_cycle_slices_match_flatnonzero(col, ordered):
    cyc = np.array(sorted(col) if ordered else col, dtype=np.int64)
    traj = make_traj(np.zeros(cyc.size), np.zeros(cyc.size), cycle=cyc)
    expect = [(i, old.cycle_slice(traj, i)) for i in np.unique(cyc).tolist()]
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
       sort_t=st.booleans())
def test_within_cycle_pairs_match_oracle(sv_params, draws, cycles, z1,
                                         ordered, sort_t):
    n = len(cycles)
    cyc = np.array(sorted(cycles) if ordered else cycles, dtype=np.int64)
    # |z1| falls over the run, so each cycle enters its invariant set
    # |z1| <= z_bar_i at a different row, or never
    traj = make_traj(np.linspace(0.0, 1.0, n),
                     z1 * np.linspace(1.0, 0.0, n) ** 2, cycle=cyc,
                     jumps=_jump_log(draws, sort_t))
    cfg = make_cfg()
    assert _within_cycle_period(traj) == old._within_cycle_period(traj)
    assert (check_dwell_lower_bound(traj, sv_params, cfg)
            == old.check_dwell_lower_bound(traj, sv_params, cfg))


def test_within_cycle_pairs_match_oracle_on_golden_run(golden_run, sv_params,
                                                       sv_cfg):
    assert _within_cycle_period(golden_run) > 0.0
    assert (_within_cycle_period(golden_run)
            == old._within_cycle_period(golden_run))
    ok, ratio = check_dwell_lower_bound(golden_run, sv_params, sv_cfg)
    assert math.isfinite(ratio)
    assert (ok, ratio) == old.check_dwell_lower_bound(golden_run, sv_params,
                                                      sv_cfg)
    assert list(cycle_slices(golden_run).items()) == [
        (i, old.cycle_slice(golden_run, i))
        for i in np.unique(golden_run.cycle).tolist()]


@pytest.fixture(scope="module")
def golden_reports(golden_run, sv_params, sv_cfg, sv_cert, sv_gains):
    """Every serialized report and certificate type, from the golden run."""
    dwell = extract_dwell(golden_run)
    decay = decay_certificate(
        sv_gains, sv_cert,
        (dwell.tau_d, dwell.tau_s, dwell.z_under, dwell.z_bar)
    ).with_mu(dwell.mu)
    bounds = verify_bounds(golden_run, sv_params, sv_cfg, sv_cert, decay,
                           from_cycle=0)
    return [
        (dwell, old.dwell_report_to_dict),
        (bounds, old.bound_report_to_dict),
        (sv_cert, old.lyapunov_certificate_to_dict),
        (decay, old.decay_certificate_to_dict),
        # c_bar overflows to inf for long gaps; the report spells it out
        (dataclasses.replace(decay, c_bar=math.inf, log_c_bar=800.0),
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
