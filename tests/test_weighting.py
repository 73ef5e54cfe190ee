"""Weighting families: endpoints, monotonicity, duals, dominance scans.

High-precision expected values were frozen from 50-digit evaluations of the
closed forms.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqrisk import (
    GoldsteinEinhorn,
    Identity,
    KahnemanTversky,
    Prelec,
    TabulatedWeighting,
    dominance_check,
    figure_data,
    parse_weighting,
)
from choqrisk.errors import DomainError
from choqrisk.weighting import _WEIGHTING_FAMILIES

E_INV = 1.0 / math.e


def test_identity_eval():
    g = Identity()
    assert g.value(0.37) == 0.37
    assert g.dual_value(0.37) == pytest.approx(0.37, abs=1e-15)


def test_kt_frozen_value():
    # 50-digit oracle: 0.4206393543357561541...
    assert KahnemanTversky(0.61).value(0.5) == pytest.approx(0.4206393543357562, abs=1e-12)


def test_kt_endpoints_exact():
    g = KahnemanTversky(0.61)
    assert g.value(0.0) == 0.0 and g.value(1.0) == 1.0


def test_prelec_fixed_point():
    for gamma in (0.3, 0.74, 1.0):
        assert Prelec(1.0, gamma).value(E_INV) == pytest.approx(E_INV, abs=1e-15)


def test_prelec_endpoints():
    g = Prelec(1.0, 0.74)
    assert g.value(0.0) == 0.0 and g.value(1.0) == 1.0


def test_prelec_dual_fixed_point():
    g = Prelec(1.0, 0.74)
    assert g.dual_value(1.0 - E_INV) == pytest.approx(1.0 - E_INV, abs=1e-15)


def test_ge_closed_form():
    g = GoldsteinEinhorn(0.65, 0.60)
    # at p = 0.5 the powers cancel: 0.65 / 1.65
    assert g.value(0.5) == pytest.approx(0.65 / 1.65, abs=1e-15)


def test_domain_errors():
    g = KahnemanTversky(0.61)
    with pytest.raises(DomainError):
        g.value(-0.1)
    with pytest.raises(DomainError):
        g.value(1.1)
    with pytest.raises(DomainError):
        g.dual_value(2.0)


def test_kt_parameter_range_enforced():
    with pytest.raises(ValueError):
        KahnemanTversky(0.2)
    with pytest.raises(ValueError):
        KahnemanTversky(1.4)
    # every gamma the constructor takes writes a spec that parses back; the message offers no way round
    with pytest.raises(ValueError, match=r"^gamma=1.2 outside \(0.28, 1\]$"):
        KahnemanTversky(1.2)


def test_kt_out_of_range_still_shape_checked():
    # below the guarded range the curve loses monotonicity on the grid, which the shape check sees
    g = object.__new__(KahnemanTversky)
    object.__setattr__(g, "gamma", 0.25)
    with pytest.raises(ValueError, match="decreasing"):
        g._validate_shape()


def test_prelec_parameter_ranges():
    with pytest.raises(ValueError):
        Prelec(0.0, 0.7)
    with pytest.raises(ValueError):
        Prelec(1.0, 1.2)


@given(st.floats(0.3, 1.0), st.integers(0, 1000))
@settings(max_examples=80, deadline=None)
def test_kt_monotone_and_bounded(gamma, k):
    g = KahnemanTversky(gamma)
    p = k / 1000.0
    v = g.value(p)
    assert 0.0 <= v <= 1.0
    if k < 1000:
        assert v <= g.value((k + 1) / 1000.0) + 1e-12


@given(
    st.floats(0.1, 3.0),
    st.floats(0.3, 1.0),
    st.floats(0.001, 0.999),
)
@example(1.0, 0.375, 0.0013710885408097502)
@settings(max_examples=100, deadline=None)
def test_dual_round_trip(delta, gamma, p):
    # Compare at the point q actually holds: fl(1 - p) has already rounded p
    # away (by 5.5e-17 in the example), and the weighting's slope, about 20
    # there, amplifies that past 1e-15; no dual_value can recover p from q.
    h = GoldsteinEinhorn(delta, gamma)
    q = 1.0 - p
    assert 1.0 - h.dual_value(q) == pytest.approx(h.value(1.0 - q), abs=1e-15)


def test_tabulated_interpolation():
    t = TabulatedWeighting(((0.0, 0.0), (0.4, 0.5), (1.0, 1.0)))
    assert t.value(0.2) == pytest.approx(0.25, abs=1e-15)
    assert t.value(0.7) == pytest.approx(0.75, abs=1e-15)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedWeighting(((0.0, 0.1), (1.0, 1.0)))
    with pytest.raises(ValueError):
        TabulatedWeighting(((0.0, 0.0), (0.5, 0.8), (0.4, 0.9), (1.0, 1.0)))


# --- dominance ---------------------------------------------------------------

def test_identity_pair_dominance_is_tight():
    scan = dominance_check(Identity(), Identity(), 101)
    assert scan.holds and scan.max_gap == pytest.approx(0.0, abs=1e-15)


def test_ge_published_pair_dominates():
    scan = dominance_check(GoldsteinEinhorn(0.65, 0.60), GoldsteinEinhorn(0.84, 0.65))
    assert scan.holds


def test_kt_published_pair_fails_near_zero():
    """The inverse-S pair 0.61/0.69 crosses below p ~ 0.01.

    Verified with 50-digit arithmetic: the gains curve overweights small
    probabilities faster than the conjugate of the losses curve, so
    dominance fails on the first ten interior grid points with a worst gap
    near 2.8e-3 at p = 0.002.
    """
    scan = dominance_check(KahnemanTversky(0.61), KahnemanTversky(0.69))
    assert not scan.holds
    assert scan.max_gap == pytest.approx(2.8175e-3, abs=1e-6)
    assert scan.argmax == pytest.approx(0.002, abs=1e-12)


def test_prelec_same_parameters_fail_in_both_corners():
    g = Prelec(1.0, 0.74)
    scan = dominance_check(g, g)
    assert not scan.holds
    assert scan.max_gap == pytest.approx(1.27658e-2, abs=1e-6)


@pytest.mark.parametrize(
    "g_spec,h_spec,worst_p,gap,violations",
    [
        ("kt:0.61", "kt:0.69", 0.002, "2.8e-03", 10),
        ("prelec:1,0.74", "prelec:1,0.74", 0.007, "1.3e-02", 100),
    ],
)
def test_corner_dominance_failures_confirmed_at_50_digits(g_spec, h_spec, worst_p, gap, violations):
    """The double-precision scan behind README's known discrepancies, redone at 50 digits."""
    mpmath = pytest.importorskip("mpmath")

    def closed_form(spec):
        family, args = spec.split(":")
        c = [mpmath.mpf(a) for a in args.split(",")]
        if family == "kt":
            return lambda p: p ** c[0] / (p ** c[0] + (1 - p) ** c[0]) ** (1 / c[0])
        return lambda p: mpmath.exp(-c[0] * (-mpmath.log(p)) ** c[1])

    g, h = parse_weighting(g_spec), parse_weighting(h_spec)
    scan = dominance_check(g, h)
    g50, h50 = closed_form(g_spec), closed_form(h_spec)
    with mpmath.workdps(50):
        # interior points of the scan's 1001-point grid, each at its exact float value
        exact = {k / 1000: g50(mpmath.mpf(k / 1000)) - (1 - h50(1 - mpmath.mpf(k / 1000)))
                 for k in range(1, 1000)}
    failing = sorted(p for p, d in exact.items() if d > 1e-12)
    assert failing == sorted(p for p in exact if g.value(p) - h.dual_value(p) > 1e-12)
    assert len(failing) == violations
    assert scan.argmax == worst_p
    assert float(exact[worst_p]) == pytest.approx(scan.max_gap, abs=1e-15)
    assert f"{float(exact[worst_p]):.1e}" == gap


def test_dominance_grid_size_validation():
    with pytest.raises(ValueError):
        dominance_check(Identity(), Identity(), 1)


# --- figure data ----------------------------------------------------------------

def test_figure_rows_endpoints():
    rows = figure_data(Identity(), Identity(), 2)
    assert rows == [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]


def test_figure_contains_fixed_point():
    rows = figure_data(Prelec(1.0, 0.74), Prelec(1.0, 0.74), 1001)
    closest = min(rows, key=lambda r: abs(r[0] - E_INV))
    assert closest[1] == pytest.approx(closest[0], abs=2e-3)


def test_figure_row_count():
    rows = figure_data(KahnemanTversky(0.61), KahnemanTversky(0.69), 501)
    assert len(rows) == 501


def test_cli_figures_stream_the_rows_of_figure_data(tmp_path, capsys):
    # the CSV and the verdict come from one pass over a row generator; both match the list
    from choqrisk.cli import main
    from choqrisk.io import fmt17

    g, h = KahnemanTversky(0.61), KahnemanTversky(0.69)
    assert main(["figures", "--family", "kt", "--grid-size", "501", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "figure1.csv").read_text().splitlines()
    assert lines[1:] == [",".join(map(fmt17, row)) for row in figure_data(g, h, 501)]
    scan = dominance_check(g, h, 501)
    assert capsys.readouterr().out == (
        f"{tmp_path / 'figure1.csv'}: 501 rows; dominance g <= h_bar FAILS "
        f"(max gap {fmt17(scan.max_gap)} at p={scan.argmax:g})\n"
    )


# --- spec parsing ------------------------------------------------------------------

def test_parse_round_trip():
    specs = ("identity", "kt:0.61", "ge:0.65,0.6", "prelec:1,0.74", "table:0,0;0.4,0.5;1,1")
    assert {spec.partition(":")[0] for spec in specs} == set(_WEIGHTING_FAMILIES)
    for spec in specs:
        fn = parse_weighting(spec)
        assert fn.spec() == spec
        assert parse_weighting(fn.spec()).value(0.3) == fn.value(0.3)

    class SteepPrelec(Prelec):
        pass

    assert SteepPrelec(1.0, 0.5).spec() == "prelec:1,0.5"  # a subclass writes its base family's spec


def _weighting_knots():
    """Knot tables from (0, 0) to (1, 1) with up to four inner knots: abscissae strictly and
    ordinates weakly increasing."""
    inner = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return st.lists(inner, max_size=4, unique=True).flatmap(
        lambda ps: st.lists(st.floats(0.0, 1.0), min_size=len(ps), max_size=len(ps)).map(
            lambda ws: ((((0.0, 0.0), *zip(sorted(ps), sorted(ws)), (1.0, 1.0))),)
        )
    )


#: kind -> strategy for the constructor's arguments, in their order
_WEIGHTING_ARGS = {
    "identity": st.just(()),
    "kt": st.tuples(st.floats(0.3, 1.0)),
    "ge": st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 2.0)),
    "prelec": st.tuples(st.floats(0.1, 5.0), st.floats(0.05, 1.0)),
    "table": _weighting_knots(),
}


@pytest.mark.parametrize("kind", sorted(_WEIGHTING_ARGS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_written_spec_parses_back_equal(kind, data):
    assert set(_WEIGHTING_ARGS) == set(_WEIGHTING_FAMILIES)
    g = _WEIGHTING_FAMILIES[kind][0](*data.draw(_WEIGHTING_ARGS[kind]))
    assert parse_weighting(g.spec()) == g


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        parse_weighting("zzz:1")
    with pytest.raises(ValueError):
        parse_weighting("identity-ish")
    for spec in ("kt:", "kt:0.5,0.5", "ge:1", "table:0,0;0.4,0.5,0.6;1,1"):
        with pytest.raises(ValueError):
            parse_weighting(spec)


@pytest.mark.parametrize(
    "spec, build",
    [
        ("kt:nan", lambda: KahnemanTversky(math.nan)),
        ("ge:nan,1", lambda: GoldsteinEinhorn(math.nan, 1.0)),
        ("ge:inf,1", lambda: GoldsteinEinhorn(math.inf, 1.0)),
        ("prelec:nan,0.5", lambda: Prelec(math.nan, 0.5)),
        ("table:0,0;0.5,nan;1,1", lambda: TabulatedWeighting(((0.0, 0.0), (0.5, math.nan), (1.0, 1.0)))),
    ],
)
def test_nan_and_infinite_parameters_are_refused(spec, build):
    # the rule sits in the constructors, so a spec and a direct call fail alike
    for make in (lambda: parse_weighting(spec), build):
        with pytest.raises(ValueError, match="finite"):
            make()
