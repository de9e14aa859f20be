"""Command-line surface: report, trace, bound, simulate, verify.

Exit codes: 0 on success, 1 on verification failure, 2 on argument or
parameter errors (the message names the offending flag). All flags are
long-form ``--name value``; no environment variables are consulted.

Defaults, when parameter flags are omitted: sigma2=1, rho=0.5, power=1,
n1=1, n2=2. A negative --rho is accepted and normalized to its absolute
value with an informational notice on stderr; by the exact sign-flip
symmetry every result, simulations included, equals that of |rho|.

The trace CSV contract is stable: columns
``alpha,d1,d2_uncoded,d2_converse,a1_star,a2_star,optimal_flag`` in that
order, header always present, ``,`` separator, ``\\n`` terminators,
floats printed with 17 significant digits (round-trip exact), absent
converse values as empty fields.

Each run parses its argv once. An argv that starts with a command name
goes straight to that command's own parser; any other argv (none, ``-h``,
an unknown command, an option first) goes to the top-level parser. Both
routes print the same help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import closed_forms, rate_distortion, region
from .errors import GaussianBcError
from .params import (
    ChannelParams,
    SourceParams,
    UncodedCoeffs,
    negate_rho_transform,
)

_ORACLE_TOL_BITS = 1e-4

_FLAG_NAMES = {
    "sigma2": "--sigma2",
    "rho": "--rho",
    "power": "--power",
    "n1": "--n1",
    "n2": "--n2",
    "alpha": "--alpha",
    "beta": "--alpha",  # beta is derived as 1 - alpha
    "d1": "--d1",
    "d1_target": "--d1-target",
    "samples": "--samples",
    "seed": "--seed",
    "num_points": "--points",
    "grid_size": "--grid",
    "tol": "--tol",
    "output": "--output",
}


def _flagged(message: str) -> str:
    head, sep, tail = message.partition(" ")
    return _FLAG_NAMES.get(head, head) + sep + tail


def _fmt6(value: float) -> str:
    return f"{value:.6g}"


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma2", type=float, default=1.0, help="source component variance (default 1)")
    parser.add_argument("--rho", type=float, default=0.5, help="source correlation in (-1, 1) (default 0.5)")
    parser.add_argument("--power", type=float, default=1.0, help="transmit power budget (default 1)")
    parser.add_argument("--n1", type=float, default=1.0, help="receiver-1 noise variance (default 1)")
    parser.add_argument("--n2", type=float, default=2.0, help="receiver-2 noise variance, > n1 (default 2)")


def _resolve_problem(args) -> tuple[SourceParams, ChannelParams]:
    """The canonical problem of the flags, not yet validated: each handler's first library call validates it."""
    source, sign_flip = negate_rho_transform(SourceParams(args.sigma2, args.rho))
    if sign_flip:
        print(
            f"note: rho={args.rho:g} treated as |rho|={source.rho:g} with a "
            "sign-flipped first stream; distortions are unchanged",
            file=sys.stderr,
        )
    return source, ChannelParams(args.power, args.n1, args.n2)


def _cmd_report(args, out) -> int:
    source, channel = _resolve_problem(args)
    p, n1, n2 = channel.power, channel.n1, channel.n2
    floor = closed_forms.simple_snr_threshold(source)
    # d_min validates the channel, so the quotient below never sees a zero,
    # infinite or NaN flag
    d1_min = closed_forms.d_min(source, channel, 1)
    snr = p / n1
    snr_text = _fmt6(snr)
    if not sys.float_info.min <= snr <= sys.float_info.max:
        # an overflowing or subnormal quotient is taken exactly, with
        # modules imported on this path only: it prints as %.6g would print
        # it (1e+310, 1e-320), and one that underflows to 0 is not 0 against
        # the floor
        from decimal import Context, Decimal
        from fractions import Fraction

        snr = Fraction(p) / Fraction(n1)
        snr_text = f"{Context(prec=6).divide(Decimal(p), Decimal(n1)).normalize():g}"
    rows = [
        ("sigma2", _fmt6(source.sigma2)),
        ("rho", _fmt6(source.rho)),
        ("power", _fmt6(p)),
        ("n1", _fmt6(n1)),
        ("n2", _fmt6(n2)),
        ("D1_min", _fmt6(d1_min)),
        ("D2_min", _fmt6(closed_forms.d_min(source, channel, 2))),
        ("D1_star_at_D2_min", _fmt6(closed_forms.d1_min_at_d2min(source, channel))),
        ("D2_star_at_D1_min", _fmt6(closed_forms.d2_min_at_d1min(source, channel))),
        ("simple_threshold", _fmt6(floor)),
        ("snr_rx1", snr_text),
        ("capacity_rx1", _fmt6(rate_distortion.channel_capacity(p, n1))),
        ("capacity_rx2", _fmt6(rate_distortion.channel_capacity(p, n2))),
        ("uncoded_optimal_everywhere", _bool(snr <= floor)),
    ]
    for key, value in rows:
        print(f"{key}={value}", file=out)
    return 0


def _write_output(path: str, text: str) -> None:
    """Write text to the ``--output`` path; an OSError becomes an error naming ``--output``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as sink:
            sink.write(text)
    except OSError as exc:
        raise GaussianBcError(f"output {path!r} cannot be written: {exc.strerror or exc}") from exc


_TRACE_HEADER = "alpha,d1,d2_uncoded,d2_converse,a1_star,a2_star,optimal_flag\n"
# A BoundaryPoint is the row: its first six fields are the six float
# columns, so a row with a converse is the template applied to point[:6]
# (its flag is always true), and a row without one prints alpha, d1, the
# achievable d2 and its flag. "%.17g" prints exactly what _fmt17 does, and
# no field can hold a separator or a quote, so no field needs quoting.
_TRACE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,true\n"
_TRACE_ROW_NO_CONVERSE = "%.17g,%.17g,%.17g,,,,%s\n"


def _cmd_trace(args, out) -> int:
    source, channel = _resolve_problem(args)
    points = region.trace_uncoded_boundary(source, channel, args.points)
    text = _TRACE_HEADER + "".join([
        _TRACE_ROW % point[:6]
        if point.d2_converse is not None
        else _TRACE_ROW_NO_CONVERSE % (point.alpha, point.d1, point.d2_achievable, _bool(point.optimal_flag))
        for point in points
    ])
    if args.output is not None:
        _write_output(args.output, text)
    else:
        out.write(text)
    return 0


def _cmd_bound(args, out) -> int:
    source, channel = _resolve_problem(args)
    d2_floor = closed_forms.d2_min_at_rx1(source, channel, args.d1)
    eta, psi, witness = region.converse_at(source, channel, args.d1)
    for key, value in [
        ("d1", args.d1),
        ("d2_min_rx1", d2_floor),
        ("combiner_mse_bound", eta),
        ("a1_star", witness.a1),
        ("a2_star", witness.a2),
        ("d2_converse", psi),
    ]:
        print(f"{key}={_fmt17(value)}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    from . import montecarlo  # the one command that needs numpy loads it

    source, channel = _resolve_problem(args)
    if args.d1_target is not None:
        alpha = closed_forms.solve_alpha_for_d1(source, channel, args.d1_target)
    else:
        alpha = 0.5 if args.alpha is None else args.alpha
        if not 0.0 <= alpha <= 1.0:
            raise GaussianBcError("alpha must be in [0, 1]")
    coeffs = UncodedCoeffs(alpha, 1.0 - alpha)
    # before any draw: a problem the closed forms refuse runs no samples
    analytic = closed_forms.uncoded_distortions(source, channel, coeffs)
    config = montecarlo.SimulationConfig(samples=args.samples, seed=args.seed, coeffs=coeffs)
    report = montecarlo.simulate(source, channel, config)
    fields = [
        ("alpha", _fmt17(alpha)),
        ("beta", _fmt17(1.0 - alpha)),
        ("samples", str(report.samples)),
        ("seed", str(report.seed)),
        ("empirical_d1", _fmt17(report.empirical_d1)),
        ("empirical_d2", _fmt17(report.empirical_d2)),
        ("empirical_power", _fmt17(report.empirical_power)),
        ("ci_half_width_d1", _fmt17(report.ci_half_width_d1)),
        ("ci_half_width_d2", _fmt17(report.ci_half_width_d2)),
        ("analytic_d1", _fmt17(analytic.d1)),
        ("analytic_d2", _fmt17(analytic.d2)),
    ]
    # a one-row CSV (no key or value holds a separator or a quote), written
    # first so that an unwritable --output prints no report
    if args.output is not None:
        _write_output(args.output, "".join(",".join(column) + "\n" for column in zip(*fields)))
    for key, value in fields:
        print(f"{key}={value}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    source, channel = _resolve_problem(args)
    match = region.verify_matching(source, channel, args.grid, args.tol)
    residual = 0.0 if match.max_residual is None else match.max_residual
    oracle_max = 0.0 if match.max_oracle_error_bits is None else match.max_oracle_error_bits
    oracle_ok = oracle_max <= _ORACLE_TOL_BITS

    covered = match.covered_count  # a property that scans every grid point, read once
    ok = match.passed and oracle_ok
    out.write(
        f"matched_points={covered}\n"
        f"excluded_points={match.grid_size - covered}\n"
        f"max_residual={_fmt17(residual)}\n"
        f"matching={_bool(match.passed)}\n"
        f"oracle_points={covered}\n"
        f"oracle_max_error_bits={_fmt17(oracle_max)}\n"
        f"oracle_consistent={_bool(oracle_ok)}\n"
        f"verify={'PASS' if ok else 'FAIL'}\n"
    )
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and shared by later calls.

    Each parse returns a new namespace and no handler touches a parser,
    so one instance serves every ``run``. Its ``commands`` attribute maps
    each command name to that command's own parser (the subparsers
    action's ``choices``), which ``run`` hands the rest of an argv that
    starts with the name.
    """
    parser = argparse.ArgumentParser(
        prog="gaussian-bc",
        description=(
            "Distortion-region toolkit for uncoded transmission of a correlated "
            "Gaussian pair over a two-receiver AWGN broadcast channel."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print the closed-form summary of a configuration")
    _add_problem_flags(p_report)
    p_report.set_defaults(handler=_cmd_report)

    p_trace = sub.add_parser("trace", help="CSV trace of the achievability/converse boundary")
    _add_problem_flags(p_trace)
    p_trace.add_argument("--points", type=int, default=101, help="number of alpha samples (>= 2, default 101)")
    p_trace.add_argument("--output", type=str, default=None, help="write CSV to this path instead of stdout")
    p_trace.set_defaults(handler=_cmd_trace)

    p_bound = sub.add_parser("bound", help="converse bound, optimal witness and companion floor at one d1")
    _add_problem_flags(p_bound)
    p_bound.add_argument("--d1", type=float, required=True, help="receiver-1 distortion to bound at")
    p_bound.set_defaults(handler=_cmd_bound)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo run of the uncoded scheme")
    _add_problem_flags(p_sim)
    group = p_sim.add_mutually_exclusive_group()
    group.add_argument("--alpha", type=float, default=None, help="mixing weight in [0, 1] (default 0.5)")
    group.add_argument("--d1-target", type=float, default=None, help="solve alpha so the analytic d1 hits this value")
    p_sim.add_argument("--samples", type=int, default=200_000, help="number of source symbols (default 200000)")
    p_sim.add_argument("--seed", type=int, default=1, help="64-bit reproducibility seed (default 1)")
    p_sim.add_argument("--output", type=str, default=None, help="also write the report as a one-row CSV")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_verify = sub.add_parser("verify", help="machine-check boundary matching and the joint-rate oracle")
    _add_problem_flags(p_verify)
    p_verify.add_argument("--grid", type=int, default=50, help="d1 grid size for the matching check (default 50)")
    p_verify.add_argument("--tol", type=float, default=1e-9, help="matching residual tolerance, relative to sigma2 (default 1e-9)")
    p_verify.set_defaults(handler=_cmd_verify)

    parser.commands = sub.choices
    return parser


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1e-05`` as ``--flag=-1e-05``.

    argparse reads a token that starts with ``-`` as an option unless it
    looks like a plain negative number such as ``-5`` or ``-0.5``; a
    negative value in exponent notation, or ``-inf``, would leave its flag
    without a value. Joined to its flag, the value is parsed as given.
    """
    joined: list[str] = []
    for token in argv:
        prev = joined[-1] if joined else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and token.startswith("-") and _is_float(token):
            joined[-1] = f"{prev}={token}"
        else:
            joined.append(token)
    return joined


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv and execute one subcommand; returns the process exit code."""
    out = sys.stdout if out is None else out
    parser = _build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no argv, -h, an unknown command or an option first
            args = parser.parse_args(argv)
        else:
            # what the top-level parse would do, minus its own pass over
            # every token: the command's parser takes the rest, and any
            # token it leaves is the top-level parser's error
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:  # argparse exits 2 on argument errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args, out)
    except GaussianBcError as exc:
        print(f"error: {_flagged(str(exc))}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
