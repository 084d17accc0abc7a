"""Command-line front end.

Every subcommand hands one emitter a zero-argument renderer per format, and
the emitter calls only the one `--format` selects: no command computes output
it does not print, and identical argv and precision produce byte-identical
output.  JSON payloads always carry {command, params, precision,
value|values}; CSV always starts with a header row; complex scalars appear as
{"re": ..., "im": ...} objects in JSON and as re/im column pairs in CSV.
High-precision numbers are serialized as decimal strings so no digits are
lost in transit.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

import click

from . import angular, binomials, calculus, core, oscillator, verify
from .core import DEFAULT_DPS, DomainError, _at_precision

if TYPE_CHECKING:
    import mpmath

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


@dataclass(frozen=True)
class OutputRecord:
    """One rendered command result: the exact text the command prints."""

    payload: str


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _frac_str(fr: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a 5^b, else 'p/q'."""
    num, den = fr.numerator, fr.denominator
    digits = den.bit_length() - 1  # den = 2^a 5^b has a, b <= digits, so then den divides 10^digits
    if 10 ** digits % den:
        return f"{num}/{den}"
    whole, rest = divmod(abs(num) * 10 ** digits // den, 10 ** digits)
    frac = str(rest).rjust(digits, "0").rstrip("0")
    return f"{'-' if num < 0 else ''}{whole}{'.' if frac else ''}{frac}"


def _num_str(v, dps: int) -> str:
    if isinstance(v, float):  # a double's own digits: the shortest round trip, and no -0.0
        return repr(float(v) + 0.0)
    import mpmath
    return mpmath.nstr(mpmath.mpmathify(v), dps, strip_zeros=True)


def _sci(text: str) -> str:
    """A decimal string in the %.3e shape, read as a Decimal: past 1e-308 a float would print 0."""
    mantissa, _, exponent = f"{Decimal(text):.3e}".partition("e")
    return f"{mantissa}e{int(exponent) if float(mantissa) else 0:+03d}"  # a zero's exponent is 00


def _json_scalar(v, dps: int):
    """JSON-ready real or complex scalar; complex becomes {'re': ..., 'im': ...}."""
    if isinstance(v, complex) or hasattr(v, "_mpc_"):
        return {"re": _num_str(v.real, dps), "im": _num_str(v.imag, dps)}
    return _num_str(v, dps)  # float, mpf and the like


def _csv_cells(v, dps: int) -> dict[str, str]:
    j = _json_scalar(v, dps)  # CSV columns `re` and `im` for a complex scalar, else `value`
    return j if isinstance(j, dict) else {"value": j}


def _render_csv(header: list[str], rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _json_payload(ctx: click.Context, command: str, params: dict, body: dict) -> str:
    """The JSON envelope: command, params and precision, plus the command's body."""
    envelope = {"command": command, "params": params, "precision": ctx.obj["precision"], **body}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _emit(ctx: click.Context, command: str, params: dict, *, json: Callable[[], dict],
          plain: Callable[[], str], csv: Callable[[], tuple[list[str], list[list[str]]]]) -> None:
    """Record the command's output, calling only the renderer `--format` selects.

    `json()` returns the body ({"value": ...} or {"values": ...} plus extras),
    `plain()` the text, and `csv()` the header and the rows.
    """
    fmt = ctx.obj["format"]
    if fmt == "json":
        payload = _json_payload(ctx, command, params, json())
    elif fmt == "csv":
        payload = _render_csv(*csv())
    else:
        payload = plain() + "\n"
    ctx.obj["record"] = OutputRecord(payload)


def _emit_int(ctx: click.Context, command: str, params: dict, value: int, column: str) -> None:
    """An exact integer: a JSON number, its digits, and one CSV row of the params and the value."""
    _emit(ctx, command, params, json=lambda: {"value": value}, plain=lambda: str(value),
          csv=lambda: ([*params, column], [[str(p) for p in params.values()] + [str(value)]]))


def _emit_value(ctx: click.Context, command: str, params: dict, value) -> None:
    """One analytic value: a JSON scalar, its digits, and one CSV row under `value` or `re,im`.

    A `calculus.SeriesValue` prints its value with its terms used and tail bound in every format.
    """
    dps = ctx.obj["precision"]
    sv, value = (value, value.value) if isinstance(value, calculus.SeriesValue) else (None, value)
    series = lambda digits: {"terms_used": sv.terms_used, "tail_bound": _num_str(sv.tail_bound, digits)} if sv else {}
    suffix = " (terms used: {terms_used}, tail bound: {tail_bound})" if sv else ""

    def csv() -> tuple[list[str], list[list[str]]]:
        row = {**_csv_cells(value, dps), **series(dps)}
        return list(row), [[str(cell) for cell in row.values()]]

    _emit(ctx, command, params, json=lambda: {"value": _json_scalar(value, dps), **series(dps)},
          plain=lambda: _num_str(value, dps) + suffix.format(**series(6)), csv=csv)


def _write_file(path: str, content: str) -> None:
    """Write a command's output file; an unwritable path is a domain error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc}")


def _real(ctx: click.Context, text: str) -> mpmath.mpf:
    """A real command argument, parsed at the command's precision."""
    with _at_precision(ctx.obj["precision"], guard=0) as mp:
        try:
            return mp.mpf(text)
        except ValueError:
            raise click.UsageError(f"{text!r} is not a real number")


# ---------------------------------------------------------------------------
# Command group
# ---------------------------------------------------------------------------

class _FractionParam(click.ParamType):
    name = "fraction"

    def convert(self, value, param, ctx):
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a rational number", param, ctx)


FRACTION = _FractionParam()


# Global options by name: (group default, click settings).  The group takes the
# defaults; every subcommand takes them too, defaulting to None, so that they
# may also follow the subcommand name and override the group's values.
_GLOBAL_OPTIONS = {
    "precision": (DEFAULT_DPS, dict(type=int, help="Working precision in decimal digits.")),
    "format": ("plain", dict(type=click.Choice(["plain", "json", "csv"]), help="Output format.")),
    "seed": (0, dict(type=int, help="Seed for randomized verification suites.")),
}


def _global_params(on_group: bool) -> list[click.Option]:
    return [click.Option([f"--{name}"], default=default if on_group else None,
                         show_default=on_group, **settings)
            for name, (default, settings) in _GLOBAL_OPTIONS.items()]


class CommonCommand(click.Command):
    """Command accepting the global options after the subcommand name too.

    Unknown option-looking tokens fall through as arguments so that negative
    numbers ("fib -3", "fibx -0.5") parse without a "--" separator.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.params = list(self.params) + _global_params(on_group=False)
        self.context_settings.setdefault("ignore_unknown_options", True)

    def invoke(self, ctx: click.Context):
        for name in _GLOBAL_OPTIONS:
            value = ctx.params.pop(name)
            if value is not None:
                ctx.obj[name] = value
        return super().invoke(ctx)


@click.group(params=_global_params(on_group=True))
@click.pass_context
def cli(ctx: click.Context, **options) -> None:
    """Golden (Binet-Fibonacci) calculus and the Golden quantum oscillator."""
    ctx.ensure_object(dict)
    ctx.obj.update(options, record=None, exit_code=EXIT_OK)


@cli.command(cls=CommonCommand)
@click.argument("n", type=int)
@click.pass_context
def fib(ctx, n: int) -> None:
    """Exact Fibonacci number F_N (negative indices allowed)."""
    _emit_int(ctx, "fib", {"n": n}, core.fib_exact(n), "F_n")


@cli.command(cls=CommonCommand)
@click.argument("re", type=str)
@click.argument("im", type=str, default="0")
@click.pass_context
def fibx(ctx, re: str, im: str) -> None:
    """Analytic Fibonacci value F_z at complex z = RE + IM*i."""
    dps = ctx.obj["precision"]
    with _at_precision(dps, guard=0) as mp:
        z = mp.mpc(_real(ctx, re), _real(ctx, im))
    _emit_value(ctx, "fibx", {"re": re, "im": im}, core.fib_extended(z, dps).value)


@cli.command("fibonomial", cls=CommonCommand)
@click.argument("n", type=int)
@click.argument("k", type=int)
@click.pass_context
def fibonomial_cmd(ctx, n: int, k: int) -> None:
    """Fibonomial coefficient [N K]_F."""
    _emit_int(ctx, "fibonomial", {"n": n, "k": k}, binomials.fibonomial(n, k), "coefficient")


@cli.command(cls=CommonCommand)
@click.argument("n", type=int)
@click.option("--form", type=click.Choice(["product", "expansion"]), default="product",
              show_default=True)
@click.pass_context
def binom(ctx, n: int, form: str) -> None:
    """Golden binomial (x+y)_F^N as an exact polynomial."""
    poly = binomials.golden_binomial(n, form)
    _emit(ctx, "binom", {"n": n, "form": form},
          json=lambda: {"values": [{"x_power": i, "y_power": j,
                                    "coefficient": {"unit_part": c.a, "phi_part": c.b}}
                                   for (i, j), c in poly.monomials()]},
          plain=lambda: str(poly),
          csv=lambda: (["x_power", "y_power", "coeff_unit", "coeff_phi"],
                       [[str(i), str(j), str(c.a), str(c.b)] for (i, j), c in poly.monomials()]))


def _emit_coeffs(ctx: click.Context, command: str, params: dict, coeffs: Sequence[Fraction],
                 plain: Callable[[], str]) -> None:
    """Exact polynomial coefficients in ascending degree, each as `_frac_str` writes it."""
    _emit(ctx, command, params, plain=plain,
          json=lambda: {"values": [_frac_str(c) for c in coeffs]},
          csv=lambda: (["degree", "coefficient"],
                       [[str(k), _frac_str(c)] for k, c in enumerate(coeffs)]))


@cli.command(cls=CommonCommand)
@click.argument("n", type=int)
@click.option("--a", type=FRACTION, default=Fraction(1), help="Shift parameter a.")
@click.pass_context
def poly(ctx, n: int, a: Fraction) -> None:
    """Golden polynomial P_N(x) = (x-a)_F^N / F_N!."""
    p = binomials.golden_polynomial(n, a)
    _emit_coeffs(ctx, "poly", {"n": n, "a": _frac_str(a)}, p.coeffs, plain=lambda: str(p))


def _parse_coeffs(text: str) -> binomials.UnivarPoly:
    try:
        coeffs = tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse coefficient list {text!r}: {exc}")
    return binomials.UnivarPoly(coeffs=coeffs)


@cli.command(cls=CommonCommand)
@click.argument("coeffs", type=str)
@click.option("--x", "x_at", type=str, default=None,
              help="Evaluate the derivative at this point instead of printing coefficients.")
@click.pass_context
def deriv(ctx, coeffs: str, x_at: str | None) -> None:
    """Golden derivative of a polynomial given by ascending COEFFS (comma-separated)."""
    p = _parse_coeffs(coeffs)
    if x_at is None:
        d = calculus.derive_poly(p).coeffs
        _emit_coeffs(ctx, "deriv", {"coeffs": coeffs}, d, plain=lambda: ",".join(map(_frac_str, d)))
        return
    value = calculus.golden_derivative(p, _real(ctx, x_at), precision=ctx.obj["precision"])
    _emit_value(ctx, "deriv", {"coeffs": coeffs, "x": x_at}, value)


@cli.command("exp", cls=CommonCommand)
@click.argument("x", type=str)
@click.option("--kind", type=click.Choice(["small_e", "big_E"]), default="small_e",
              show_default=True)
@click.option("--terms", type=int, default=calculus.MAX_EXP_TERMS, show_default=True)
@click.pass_context
def exp_cmd(ctx, x: str, kind: str, terms: int) -> None:
    """Golden exponential e_F^x or E_F^x."""
    _emit_value(ctx, "exp", {"x": x, "kind": kind, "terms": terms},
                calculus.golden_exp(_real(ctx, x), kind, n_terms=terms, precision=ctx.obj["precision"]))


@cli.command(cls=CommonCommand)
@click.argument("x", type=str)
@click.option("--kind", type=click.Choice(["cos_F", "sin_F", "Cosh_F", "Sinh_F"]),
              required=True)
@click.option("--terms", type=int, default=calculus.MAX_EXP_TERMS, show_default=True)
@click.pass_context
def trig(ctx, x: str, kind: str, terms: int) -> None:
    """Golden trigonometric value at x."""
    _emit_value(ctx, "trig", {"x": x, "kind": kind, "terms": terms},
                calculus.golden_trig(_real(ctx, x), kind, n_terms=terms, precision=ctx.obj["precision"]))


@cli.command(cls=CommonCommand)
@click.argument("coeffs", type=str)
@click.option("--x", "x_at", type=str, required=True, help="Evaluation point (nonzero).")
@click.pass_context
def integrate(ctx, coeffs: str, x_at: str) -> None:
    """Golden antiderivative of the polynomial COEFFS, evaluated at --x."""
    _emit_value(ctx, "integrate", {"coeffs": coeffs, "x": x_at}, calculus.jackson_antiderivative(
        _parse_coeffs(coeffs), _real(ctx, x_at), precision=ctx.obj["precision"]))


def _spectrum_rows(n_max: int, hbar_omega) -> list[list[str]]:
    """CSV rows [n, E_n] of the oscillator spectrum up to n_max."""
    return [[str(n), _frac_str(e)] for n, e in oscillator.spectrum(n_max, hbar_omega).levels]


def _ratio_rows(ctx: click.Context, n_max: int) -> list[list[str]]:
    """CSV rows [n, F_(n+1)/F_n] for n = 1..n_max, at the command's precision."""
    dps = ctx.obj["precision"]
    return [[str(n), _num_str(r, dps)] for n, r in enumerate(core.ratio_sequence(n_max, dps), 1)]


@cli.command(cls=CommonCommand)
@click.option("--n-max", type=int, required=True)
@click.option("--hbar-omega", type=FRACTION, default=Fraction(1), show_default="1")
@click.pass_context
def spectrum(ctx, n_max: int, hbar_omega: Fraction) -> None:
    """Golden oscillator energy levels E_n = (hbar*omega/2) F_{n+2}."""
    rows = _spectrum_rows(n_max, hbar_omega)
    _emit(ctx, "spectrum", {"n_max": n_max, "hbar_omega": _frac_str(hbar_omega)},
          json=lambda: {"values": [{"n": int(n), "energy": e} for n, e in rows]},
          plain=lambda: "\n".join(f"E_{n} = {e}" for n, e in rows),
          csv=lambda: (["n", "E_n"], rows))


@cli.command(cls=CommonCommand)
@click.option("--n-max", type=int, required=True)
@click.pass_context
def ratios(ctx, n_max: int) -> None:
    """Fibonacci convergents F_{n+1}/F_n for n = 1..n_max."""
    rows = _ratio_rows(ctx, n_max)
    _emit(ctx, "ratios", {"n_max": n_max}, json=lambda: {"values": [r for _, r in rows]},
          plain=lambda: "\n".join(r for _, r in rows), csv=lambda: (["n", "ratio"], rows))


@cli.command(cls=CommonCommand)
@click.option("--j", "j_str", type=str, required=True, help="Spin label (integer or half-integer).")
@click.option("--variant", type=click.Choice(["standard", "symmetric", "tilde"]),
              default="standard", show_default=True)
@click.pass_context
def angmom(ctx, j_str: str, variant: str) -> None:
    """Deformed angular-momentum matrices and diagnostics at spin j."""
    import numpy as np
    try:
        j = Fraction(j_str)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"invalid spin label {j_str!r}")
    dps = ctx.obj["precision"]
    rep = {"standard": angular.build_suF2, "symmetric": angular.build_symmetric,
           "tilde": angular.build_tilde}[variant](j)
    mats = {"j_plus": rep.j_plus, "j_minus": rep.j_minus, "j_z": rep.j_z}

    def diagnostics() -> tuple[dict, str]:
        """The variant's JSON extras and its plain summary line."""
        if variant == "standard":
            cas = angular.casimir_suF2(j)
            return ({"casimir_eigenvalue": _json_scalar(cas.eigenvalue, dps),
                     "casimir_form_difference": cas.form_difference},
                    f"Casimir eigenvalue = {cas.eigenvalue:.12g} "
                    f"(form difference {cas.form_difference:.3e})")
        if variant == "symmetric":
            srep = angular.verify_symmetric(j)
            return {"commutator_residual": srep.residual}, str(srep)
        trep = angular.verify_tilde(j)
        return ({"anticommutator_residual": trep.anticommutator_residual,
                 "casimir_form_difference": trep.casimir_form_difference},
                f"tilde j={j}: anti-commutator residual {trep.anticommutator_residual:.3e}, "
                f"Casimir form difference {trep.casimir_form_difference:.3e}")

    def plain() -> str:
        lines = [f"variant {rep.variant}, j = {j}"]
        lines += [f"{label} =\n{np.array_str(mat, precision=6)}"
                  for label, mat in zip(["J+", "J-", "Jz"], mats.values())]
        return "\n".join(lines + [diagnostics()[1]])

    _emit(ctx, "angmom", {"j": j_str, "variant": variant},
          json=lambda: {"values": {name: [[_json_scalar(v, dps) for v in row] for row in mat.tolist()]
                                   for name, mat in mats.items()}, **diagnostics()[0]},
          plain=plain,
          csv=lambda: (["operator", "row", "col", "re", "im"],
                       [[name, str(r), str(c), *_csv_cells(complex(v), dps).values()]
                        for name, mat in mats.items() for (r, c), v in np.ndenumerate(mat) if v != 0]))


@cli.command("invert-n", cls=CommonCommand)
@click.argument("fib_value", type=int)
@click.option("--parity", type=click.Choice(["even", "odd"]), required=True)
@click.pass_context
def invert_n(ctx, fib_value: int, parity: str) -> None:
    """Recover the index n from a Fibonacci number and the parity of n.

    The library accepts n up to 10^6, but Linux caps one argument at 131,072
    bytes, so F_n reaches this command only for n up to about 627,000.
    """
    n = oscillator.invert_number(fib_value, parity)
    _emit_int(ctx, "invert-n", {"fib_value": fib_value, "parity": parity}, n, "n")


@cli.command(cls=CommonCommand)
@click.argument("y", type=str)
@click.option("--n", type=int, default=80, show_default=True)
@click.pass_context
def limit(ctx, y: str, n: int) -> None:
    """Finite Golden-binomial value (1 + y/phi^n)_F^n vs its Jackson-exponential limit."""
    import mpmath
    dps = ctx.obj["precision"]
    lhs, rhs, diff = binomials.remarkable_limit(_real(ctx, y), n, dps)
    noise = mpmath.mpf(10) ** -dps * max(abs(lhs), 1)  # below the printed digits: print the bound
    diff_text = f"< 1e-{dps}" if diff < noise else _num_str(diff, 6)
    _emit(ctx, "limit", {"y": y, "n": n},
          json=lambda: {"value": {"finite": _json_scalar(lhs, dps),
                                  "jackson": _json_scalar(rhs, dps), "difference": diff_text}},
          plain=lambda: (f"finite:  {_num_str(lhs, dps)}\n"
                         f"jackson: {_num_str(rhs, dps)}\n"
                         f"difference: {diff_text}"),
          csv=lambda: (["finite_re", "finite_im", "jackson_re", "jackson_im", "difference"],
                       [[*_csv_cells(lhs, dps).values(), *_csv_cells(rhs, dps).values(), diff_text]]))


@cli.command("verify", cls=CommonCommand)
@click.option("--only", multiple=True, help="Run only suites matching this id prefix.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False, writable=True),
              default=None, help="Also write the JSON report to this file.")
@click.pass_context
def verify_cmd(ctx, only: tuple[str, ...], report_path: str | None) -> None:
    """Run the identity verification suites and emit the report."""
    if only and not verify.matching_suites(only):
        raise click.UsageError(f"no verification suites match {list(only)!r}")
    rep = verify.verify_all(seed=ctx.obj["seed"], only=list(only) or None,
                            precision=ctx.obj["precision"])
    params = {"only": list(only), "seed": ctx.obj["seed"]}

    def plain() -> str:
        lines = [f"{e.status.upper():15s} {e.id:40s} "
                 + (f"residual {_sci(e.max_residual)}" if e.max_residual is not None else "exact")
                 for e in rep.entries]
        summary = rep.summary
        return "\n".join(lines + [f"pass {summary['pass']}  fail {summary['fail']}  "
                                  f"known-deviation {summary['known_deviation']}"])

    if report_path:
        _write_file(report_path, _json_payload(ctx, "verify", params, {"value": rep.to_dict()}))
    _emit(ctx, "verify", params, json=lambda: {"value": rep.to_dict()}, plain=plain,
          csv=lambda: (["id", "status", "max_residual"],
                       [[e.id, e.status, e.max_residual or ""] for e in rep.entries]))
    if rep.failed:
        ctx.obj["exit_code"] = EXIT_VERIFY


@cli.command("plot-data", cls=CommonCommand)
@click.argument("kind", type=click.Choice(["ratios", "spectrum", "casimir_ratios"]))
@click.option("--n-max", type=int, required=True)
@click.option("--output", type=click.Path(dir_okay=False, writable=True), required=True)
@click.pass_context
def plot_data(ctx, kind: str, n_max: int, output: str) -> None:
    """Write convergence/spectrum data as CSV with a header row."""
    dps = ctx.obj["precision"]
    if kind == "ratios":
        header, rows = ["n", "value"], _ratio_rows(ctx, n_max)
    elif kind == "spectrum":
        header, rows = ["n", "E_n"], _spectrum_rows(n_max, 1)
    else:
        seq = angular.casimir_ratio(core._integer("n_max", n_max, 3, core.MAX_RATIO_INDEX), dps)
        header = ["n", "value"]  # n is the spin label of the numerator eigenvalue
        rows = [[str(j), _num_str(r, dps)] for j, r in enumerate(seq, 2)]
    _write_file(output, _render_csv(header, rows))
    _emit(ctx, "plot-data", {"kind": kind, "n_max": n_max, "output": output},
          json=lambda: {"value": {"path": output, "rows": len(rows)}},
          plain=lambda: f"wrote {len(rows)} rows to {output}", csv=lambda: (header, rows))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_command(argv: Sequence[str]) -> tuple[int, OutputRecord | None]:
    """Execute one CLI invocation programmatically.

    Returns (exit_code, record); the record holds the exact payload the
    command would print.  Usage problems give exit 1, domain errors 2,
    verification failures 3.
    """
    obj: dict = {}
    # Exact results inside the documented bounds (F_n up to n = 10**6) run past
    # the interpreter's int-to-str digit limit: lift it while the command renders.
    digit_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        cli.main(args=list(argv), prog_name="goldencalc", standalone_mode=False, obj=obj)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE, None
    except click.exceptions.Exit as exc:  # --help and friends
        return (EXIT_OK if exc.exit_code == 0 else EXIT_USAGE), None
    except click.Abort:
        return EXIT_USAGE, None
    except DomainError as exc:
        click.echo(f"domain error: {exc}", err=True)
        return EXIT_DOMAIN, None
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return obj.get("exit_code", EXIT_OK), obj.get("record")


def main() -> None:
    code, record = run_command(sys.argv[1:])
    if record is not None:
        sys.stdout.write(record.payload)
    sys.exit(code)


if __name__ == "__main__":
    main()
