"""The CSV writer's vectorized formatter gives the bytes of '%.17g'."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbstab import cli, csvwriter, simulate
from xbstab.cli import build_scenario


def _formatted(values) -> bytes:
    x = np.asarray(values, dtype=np.float64)
    return csvwriter._join([csvwriter._float_fields(x)], x.size)


def _reference(values) -> bytes:
    return b"".join(b"%.17g\n" % v for v in np.asarray(
        values, dtype=np.float64).tolist())


def _assert_exact(values):
    got, want = _formatted(values), _reference(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n"))
               if g != w]
        pytest.fail(f"{len(bad)} values differ from %.17g, first {bad[:3]}")


def _powers_of_ten():
    """Every power of ten of the power table, as the nearest double."""
    return [float(f"1e{e}") for e in range(csvwriter._E_LO,
                                           csvwriter._E_HI + 1)]


def _below(x: float, e: int) -> bool:
    """x < 10**e exactly."""
    num, den = x.as_integer_ratio()
    return num < den * 10 ** e if e >= 0 else num * 10 ** -e < den


def test_formatter_passes_its_self_check():
    assert csvwriter._power_table() is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(bits):
    _assert_exact(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-320, 1e308), st.booleans()),
                min_size=1, max_size=64))
def test_finite_magnitudes(values):
    _assert_exact([-v if neg else v for v, neg in values])


def test_random_bit_patterns_in_bulk():
    rng = np.random.default_rng(12)
    _assert_exact(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
                  .view(np.float64))
    _assert_exact(rng.standard_normal(100_000)
                  * 10.0 ** rng.uniform(-300, 300, 100_000))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for p in _powers_of_ten():
        lo, hi = math.nextafter(p, 0.0), math.nextafter(p, math.inf)
        values += [p, lo, hi, math.nextafter(lo, 0.0),
                   math.nextafter(hi, math.inf)]
    _assert_exact(values + [-v for v in values])


def test_rounding_that_carries_into_the_next_power():
    """Doubles below 10**e whose 17-digit rounding is 10**e: the
    significand rounds to 10**17 and the exponent goes up by one. Such a
    double is the nearest one to 10**e, below it by less than 1/20 ulp."""
    carried = []
    for e in range(csvwriter._E_LO, csvwriter._E_HI + 1):
        x = float(f"1e{e}")
        if _below(x, e) and (b"%.17g" % x).split(b"e")[0] == b"1":
            carried.append(x)
    assert len(carried) >= 5
    _assert_exact(carried + [-v for v in carried])


def test_constructed_halfway_values():
    """x = j / 2**(k + 1) with j odd gives x * 10**k = j * 5**k / 2, a
    half, so x lies exactly halfway between two 17-digit decimals when
    10**(16 - k) <= x < 10**(17 - k). '%.17g' rounds it half to even, and
    the digit below the half is odd for some values and even for others,
    so rounding half down or half up would show."""
    values, parities = [], set()
    for k in range(1, 24):
        scale = 2 ** (k + 1)
        start = -(-10 ** 16 * scale // 10 ** k)
        for j in range(start | 1, start + 400, 2):
            values.append(j / scale)
            parities.add(j * 5 ** k // 2 % 2)
    assert parities == {0, 1}
    _assert_exact(values + [-v for v in values])


def test_notation_and_range_edges():
    edges = [1e-4, 9.9999999999999991e-5, 1.0000000000000001e-4, 1e-5,
             1e16, 9999999999999998.0, 10000000000000002.0, 1e17,
             99999999999999984.0, 100000000000000016.0,
             9.9999999999999996e-39, 123456789.12345679, 0.5, 2.0 ** 53]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, math.inf, -math.inf, math.nan]
    _assert_exact(edges + [-v for v in edges] + special)
    assert _formatted([-0.0, 5e-324, math.inf, -math.inf, math.nan]) == \
        b"-0\n4.9406564584124654e-324\ninf\n-inf\nnan\n"


def test_shipped_scenario_takes_the_vectorized_path(scenario_dict,
                                                    monkeypatch):
    """At least 99 % of the float values of the shipped scenario's three
    CSV files are formatted without the '%.17g' fallback."""
    scn = build_scenario(scenario_dict)
    traj = simulate(scn.params, scn.gains, scn.cert, scn.cfg, scn.solver,
                    scn.z0, scn.z_hat0, k=scn.k)
    block = cli._csv_columns(traj, (scn.params, scn.k))(0, len(traj))
    floats = [block[name] for name in cli.CSV_COLUMNS
              if block[name].dtype.kind == "f"]
    csvwriter._power_table()
    printf, slow = csvwriter._printf, []

    def counting(values):
        slow.append(values.size)
        return printf(values)

    monkeypatch.setattr(csvwriter, "_printf", counting)
    x = np.concatenate(floats)
    for lo in range(0, x.size, 10_000):
        csvwriter._float_fields(x[lo:lo + 10_000])
    assert x.size > 500_000
    assert sum(slow) <= 0.01 * x.size
