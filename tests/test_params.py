"""Parameter records, validation and its policy, and the two lossless transforms."""

import inspect
import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_bc import (
    BoundWitness,
    ChannelParams,
    DistortionPair,
    ParameterError,
    SourceParams,
    UncodedCoeffs,
    cli,
    closed_forms,
    conditional_variance,
    montecarlo,
    negate_rho_transform,
    params,
    rate_distortion,
    region,
    scale_variance_transform,
    trace_uncoded_boundary,
    validate_problem,
)

from helpers import DESK_CHANNEL, DESK_SOURCE


def test_desk_config_is_valid():
    src, ch = validate_problem(DESK_SOURCE, DESK_CHANNEL)
    assert src is DESK_SOURCE and ch is DESK_CHANNEL


def test_rho_one_rejected_by_name():
    with pytest.raises(ParameterError, match="rho must be < 1"):
        validate_problem(SourceParams(1.0, 1.0), DESK_CHANNEL)


def test_equal_noises_rejected_by_name():
    with pytest.raises(ParameterError, match="n1 must be < n2"):
        validate_problem(DESK_SOURCE, ChannelParams(1.0, 2.0, 2.0))


def test_negative_rho_rejected_without_transform():
    with pytest.raises(ParameterError, match="rho must be >= 0"):
        validate_problem(SourceParams(1.0, -0.5), DESK_CHANNEL)


@pytest.mark.parametrize(
    "source, channel",
    [
        (SourceParams(0.0, 0.5), DESK_CHANNEL),
        (SourceParams(-1.0, 0.5), DESK_CHANNEL),
        (SourceParams(math.nan, 0.5), DESK_CHANNEL),
        (DESK_SOURCE, ChannelParams(0.0, 1.0, 2.0)),
        (DESK_SOURCE, ChannelParams(1.0, -1.0, 2.0)),
        (DESK_SOURCE, ChannelParams(1.0, 1.0, 0.5)),
    ],
)
def test_invalid_parameters_rejected(source, channel):
    with pytest.raises(ParameterError):
        validate_problem(source, channel)


# Valid values, on the desk problem, of every other argument a public
# function taking a source or a channel has.
_DESK_ARGS = {
    "receiver": 1,
    "coeffs": UncodedCoeffs(0.5, 0.5),
    "d1": 0.625,
    "d1_target": 0.625,
    "delta": 0.625,
    "witness": BoundWitness(0.8, 0.2),
    "num_points": 11,
    "grid_size": 5,
    "tol": 1e-9,
    "delta1": 0.5,
    "delta2": 0.8,
    "cond_d1": 0.5,
}


def _problem_functions():
    """(name, function, parameter names) of each public problem function."""
    for module in (closed_forms, region, rate_distortion):
        for name in module.__all__:
            func = getattr(module, name)
            if not inspect.isfunction(getattr(func, "__wrapped__", func)):
                continue
            names = list(inspect.signature(func).parameters)
            if "source" in names or "channel" in names:
                yield f"{module.__name__.rsplit('.', 1)[1]}.{name}", func, names


_PROBLEM_FUNCTIONS = list(_problem_functions())
_INVALID = [
    ("source", SourceParams(1.0, 1.0), "rho=1"),
    ("source", SourceParams(-1.0, 0.5), "sigma2=-1"),
    ("channel", ChannelParams(1.0, 2.0, 2.0), "n1=n2"),
    ("channel", ChannelParams(math.nan, 1.0, 2.0), "power=nan"),
]


@pytest.mark.parametrize(
    "func, names, field, bad",
    [
        pytest.param(func, names, field, bad, id=f"{label}-{why}")
        for label, func, names in _PROBLEM_FUNCTIONS
        for field, bad, why in _INVALID
        if field in names
    ],
)
def test_every_public_problem_function_rejects_an_invalid_problem(func, names, field, bad):
    # public functions validate once and compute through unvalidated kernels,
    # so each must still reject an invalid problem on its own
    args = {"source": DESK_SOURCE, "channel": DESK_CHANNEL, **_DESK_ARGS}
    func(*(args[name] for name in names))  # the desk call itself is valid
    args[field] = bad
    with pytest.raises(ParameterError):
        func(*(args[name] for name in names))


def test_problem_function_list_covers_the_three_modules():
    labels = {label for label, _, _ in _PROBLEM_FUNCTIONS}
    assert {"closed_forms.d2_min_at_rx1", "region.verify_matching", "rate_distortion.r_joint_numeric"} <= labels
    assert len(labels) == 19


def _count_calls(monkeypatch, name):
    """Count calls of ``params.<name>`` made through any package module."""
    original = getattr(params, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("gaussian_bc") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_trace_validates_once_per_call_plus_once_per_cache_miss(monkeypatch):
    # the converse at each point runs on kernels, so the trace neither
    # misses nor fills the per-d1 cache: one validation in all
    closed_forms._rx1_point.cache_clear()
    calls = _count_calls(monkeypatch, "validate_problem")
    trace_uncoded_boundary(DESK_SOURCE, DESK_CHANNEL, 1001)
    assert len(calls) == 1
    assert closed_forms._rx1_point.cache_info().currsize == 0


@pytest.mark.parametrize("argv", [["trace"], ["verify"], ["bound", "--d1", "0.625"]])
def test_a_cli_run_validates_its_problem_once(monkeypatch, argv):
    # the CLI's problem resolver validated as well, so each command
    # validated twice; now the first library call of each does it alone
    closed_forms._rx1_point.cache_clear()
    calls = _count_calls(monkeypatch, "validate_problem")
    assert cli.run(argv, out=io.StringIO()) == 0
    assert len(calls) == 1
    closed_forms._rx1_point.cache_clear()


def _count_alpha_solves(monkeypatch):
    """Count calls of the row kernel's alpha inverse ``_Curve.alpha_for``, from any caller."""
    original = closed_forms._Curve.alpha_for
    solves = []

    def counted(curve, d1):
        solves.append(d1)
        return original(curve, d1)

    monkeypatch.setattr(closed_forms._Curve, "alpha_for", counted)
    return solves


def test_trace_solves_no_alpha_and_no_companion_floor(monkeypatch):
    # each row's converse comes from the alpha the trace already has
    calls = {"alpha_for": _count_alpha_solves(monkeypatch), "_rx1_point": []}
    original = closed_forms._rx1_point

    def counted(*args):
        calls["_rx1_point"].append(args)
        return original(*args)

    for module in (closed_forms, region):  # region reads the record through closed_forms
        monkeypatch.setattr(module, "_rx1_point", counted, raising=False)
    points = trace_uncoded_boundary(DESK_SOURCE, ChannelParams(3.0, 1.0, 2.0), 1001)
    assert any(p.d2_converse is not None for p in points)
    assert calls == {"alpha_for": [], "_rx1_point": []}


def test_verify_validates_once_and_solves_alpha_only_at_covered_points(monkeypatch):
    # the d1 predicate decides each grid point before any solve, so the
    # solves are exactly the covered points, in grid order
    for power in (3.0, 2.0, 1.0):  # P/n1 = 3 leaves part of the grid uncovered; 2 is 2*rho/(1 - rho)
        channel = ChannelParams(power, 1.0, 2.0)
        closed_forms._rx1_point.cache_clear()
        calls = _count_calls(monkeypatch, "validate_problem")
        solves = _count_alpha_solves(monkeypatch)
        report = region.verify_matching(DESK_SOURCE, channel, 40, 1e-9)
        assert len(calls) == 1
        assert solves == [point.d1 for point in report.points if point.covered]
        assert closed_forms._rx1_point.cache_info().currsize == 0
        if power <= 2.0:  # at or below the simple threshold every point is covered and solved
            assert report.covered_count == len(solves) == 40
        else:
            assert 0 < report.covered_count == len(solves) < 40
        monkeypatch.undo()


def test_verify_solves_no_alpha_at_rho_zero(monkeypatch):
    # t* = 0 at rho = 0: only the alpha = 0 and 1 ends are covered, and no
    # grid point lies on them
    source = SourceParams(1.0, 0.0)
    closed_forms._rx1_point.cache_clear()
    calls = _count_calls(monkeypatch, "validate_problem")
    solves = _count_alpha_solves(monkeypatch)
    report = region.verify_matching(source, DESK_CHANNEL, 50, 1e-9)
    assert report.covered_count == 0 and not report.passed
    assert len(calls) == 1
    assert solves == []
    assert closed_forms._rx1_point.cache_info().currsize == 0


def test_a_witness_sweep_validates_once_and_solves_alpha_once(monkeypatch):
    # every converse call at one d1 reads the per-d1 record, so a 101x101
    # witness sweep validates and solves alpha on its first call only
    closed_forms._rx1_point.cache_clear()
    calls = _count_calls(monkeypatch, "validate_problem")
    solves = _count_alpha_solves(monkeypatch)
    for i in range(101):
        for j in range(101):
            closed_forms.d2_converse_bound(DESK_SOURCE, DESK_CHANNEL, 0.6, BoundWitness(i / 50, j / 50))
    assert len(calls) == 1
    assert len(solves) == 1


_POINTS = (
    region.MatchPoint(0.5, True, 0.75, 0.75, 0.0, BoundWitness(0.75, 0.25), 0.0),
    region.MatchPoint(0.875, False, None, None, None, None, None),
)

# each converted record: its fields by keyword, and the repr the frozen
# dataclass it replaced printed for them
_RECORDS = [
    (UncodedCoeffs, dict(alpha=0.25, beta=0.75), "UncodedCoeffs(alpha=0.25, beta=0.75)"),
    (DistortionPair, dict(d1=0.5, d2=0.25), "DistortionPair(d1=0.5, d2=0.25)"),
    (
        region.MatchReport,
        dict(grid_size=2, tol=1e-9, points=_POINTS, max_residual=0.0, max_oracle_error_bits=0.0, passed=True),
        "MatchReport(grid_size=2, tol=1e-09, points=(MatchPoint(d1=0.5, covered=True, d2_achievable=0.75, "
        "d2_converse=0.75, residual=0.0, witness=BoundWitness(a1=0.75, a2=0.25), oracle_error_bits=0.0), "
        "MatchPoint(d1=0.875, covered=False, d2_achievable=None, d2_converse=None, residual=None, "
        "witness=None, oracle_error_bits=None)), max_residual=0.0, max_oracle_error_bits=0.0, passed=True)",
    ),
    (
        montecarlo.SimulationConfig,
        dict(samples=1000, seed=3, coeffs=UncodedCoeffs(0.25, 0.75)),
        "SimulationConfig(samples=1000, seed=3, coeffs=UncodedCoeffs(alpha=0.25, beta=0.75))",
    ),
    (montecarlo.MmseCoefficients, dict(gamma=1.25, c1=0.5, c2=0.375), "MmseCoefficients(gamma=1.25, c1=0.5, c2=0.375)"),
    (
        montecarlo.SimulationReport,
        dict(
            empirical_d1=0.75, empirical_d2=0.6875, empirical_power=1.0,
            ci_half_width_d1=0.0625, ci_half_width_d2=0.05, samples=1000, seed=3,
        ),
        "SimulationReport(empirical_d1=0.75, empirical_d2=0.6875, empirical_power=1.0, "
        "ci_half_width_d1=0.0625, ci_half_width_d2=0.05, samples=1000, seed=3)",
    ),
]


def test_problem_records_are_named_tuples():
    # the per-d1 cache hashes both records on every per-witness call, in
    # C as long as they are tuples
    source, channel = SourceParams(sigma2=1.0, rho=0.5), ChannelParams(power=1.0, n1=1.0, n2=2.0)
    for record in (source, channel):
        assert type(record).__hash__ is tuple.__hash__
        assert type(record).__eq__ is tuple.__eq__
        with pytest.raises(AttributeError):
            setattr(record, type(record)._fields[0], 2.0)
    assert (source, channel) == (DESK_SOURCE, DESK_CHANNEL) == ((1.0, 0.5), (1.0, 1.0, 2.0))
    assert repr(source) == "SourceParams(sigma2=1.0, rho=0.5)"
    assert repr(channel) == "ChannelParams(power=1.0, n1=1.0, n2=2.0)"
    # every other record is one too, printing and hashing as the frozen
    # dataclass it replaced, so no dataclasses import is needed
    for cls, fields, text in _RECORDS:
        record = cls(**fields)
        assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
        assert hash(record) == hash(tuple(fields.values()))
        assert record == tuple(fields.values()) == cls(*fields.values())
        assert repr(record) == text
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 2.0)
    report = region.MatchReport(**_RECORDS[2][1])
    assert (report.covered_count, report.excluded_count) == (1, 1)
    # rho = -0.0 and 0.0 are one key of the per-d1 cache
    closed_forms._rx1_point.cache_clear()
    closed_forms._rx1_point(SourceParams(1.0, 0.0), DESK_CHANNEL, 0.5)
    closed_forms._rx1_point(SourceParams(1.0, -0.0), DESK_CHANNEL, 0.5)
    info = closed_forms._rx1_point.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    closed_forms._rx1_point.cache_clear()


def test_kernels_call_no_validating_function(monkeypatch):
    # building the row kernel is the validation: its constructor validates
    # the problem once, and no method of it, nor any other kernel, again
    calls = [_count_calls(monkeypatch, name) for name in ("validate_problem", "validate_source")]
    with pytest.raises(ParameterError, match="n1 must be < n2"):
        closed_forms._Curve(DESK_SOURCE, ChannelParams(1.0, 2.0, 2.0))
    calls[0].clear()
    curve = closed_forms._Curve(DESK_SOURCE, DESK_CHANNEL)
    assert calls[0] == [(DESK_SOURCE, DESK_CHANNEL)]
    for recorded in calls:
        recorded.clear()
    lo, hi = curve.ends(curve.n1)
    curve.ends(curve.n2)
    d1 = 0.5 * (lo + hi)
    alpha = curve.alpha_for(d1)
    q, _, _ = curve.forms(alpha, 1.0 - alpha)
    d2t = curve.d2_rx1(alpha, 1.0 - alpha, q)
    eta, _, a1, a2 = curve.converse(alpha, 1.0 - alpha, q)
    closed_forms._witness_eta(DESK_SOURCE, d1, BoundWitness(a1, a2), root=0.5)
    closed_forms._psi(curve.s2u, curve.e, 1.0, 2.0, curve.pn2, 0.75, eta)
    rate_distortion._r_joint(curve.s2u, 0.5, math.ldexp(d1, -curve.e), math.ldexp(d2t, -curve.e))
    assert calls == [[], []]


@settings(max_examples=300, deadline=None)
@given(
    sigma2=st.floats(-2.0, 5.0),
    rho=st.floats(-1.5, 1.5),
    power=st.floats(-2.0, 5.0),
    n1=st.floats(-1.0, 5.0),
    n2=st.floats(-1.0, 5.0),
)
def test_validate_problem_accepts_exactly_the_invariant_product(sigma2, rho, power, n1, n2):
    valid = sigma2 > 0 and 0 <= rho < 1 and power > 0 and n1 > 0 and n2 > 0 and n1 < n2
    source, channel = SourceParams(sigma2, rho), ChannelParams(power, n1, n2)
    if valid:
        validate_problem(source, channel)
    else:
        with pytest.raises(ParameterError):
            validate_problem(source, channel)


def test_negate_rho_transform_examples():
    assert negate_rho_transform(SourceParams(1.0, -0.5)) == (SourceParams(1.0, 0.5), True)
    assert negate_rho_transform(SourceParams(1.0, 0.0)) == (SourceParams(1.0, 0.0), False)
    assert negate_rho_transform(SourceParams(1.0, 0.9)) == (SourceParams(1.0, 0.9), False)
    # -0.0 == 0.0, so the sign is checked apart: it must not reach the kernels
    source, sign_flip = negate_rho_transform(SourceParams(1.0, -0.0))
    assert (math.copysign(1.0, source.rho), sign_flip) == (1.0, False)


def test_negate_rho_transform_rejects_unit_correlation():
    for rho in (1.0, -1.0, 1.5):
        with pytest.raises(ParameterError):
            negate_rho_transform(SourceParams(1.0, rho))


@settings(max_examples=200, deadline=None)
@given(rho=st.floats(-0.999, 0.999), sigma2=st.floats(0.01, 100.0))
def test_negate_rho_transform_idempotent(rho, sigma2):
    once, _ = negate_rho_transform(SourceParams(sigma2, rho))
    twice, flip2 = negate_rho_transform(once)
    assert twice == once and flip2 is False
    assert once.rho >= 0


def test_scale_variance_transform_examples():
    assert scale_variance_transform(0.5, 0.5, 1.0, 1.0, 2.0, 3.0) == (1.0, 1.5, 2.0, 3.0)
    d = (0.25, 0.75, 1.5, 2.5)
    assert scale_variance_transform(*d, 1.0, 1.0) == d
    # normalizing unequal variances to the canonical equal-variance form
    _, _, v1, v2 = scale_variance_transform(0.5, 0.5, 4.0, 9.0, 1.0 / 4.0, 1.0 / 9.0)
    assert v1 == 1.0 and v2 == 1.0


def test_scale_variance_transform_rejects_nonpositive_scale():
    for a1, a2 in ((0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)):
        with pytest.raises(ParameterError, match="scale factor"):
            scale_variance_transform(0.5, 0.5, 1.0, 1.0, a1, a2)


@settings(max_examples=200, deadline=None)
@given(
    d1=st.floats(1e-6, 10.0),
    d2=st.floats(1e-6, 10.0),
    v1=st.floats(1e-6, 10.0),
    v2=st.floats(1e-6, 10.0),
    k1=st.integers(-8, 8),
    k2=st.integers(-8, 8),
)
def test_scale_round_trip_exact_for_power_of_two_scales(d1, d2, v1, v2, k1, k2):
    # power-of-two scaling is exact in IEEE arithmetic, so the round trip is the identity
    a1, a2 = 2.0**k1, 2.0**k2
    forward = scale_variance_transform(d1, d2, v1, v2, a1, a2)
    back = scale_variance_transform(*forward, 1.0 / a1, 1.0 / a2)
    assert back == (d1, d2, v1, v2)


def test_conditional_variance():
    assert conditional_variance(DESK_SOURCE) == 0.75
    assert conditional_variance(SourceParams(2.0, 0.0)) == 2.0
