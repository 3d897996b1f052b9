"""Reproducible experiment driver.

Every study is a subcommand that returns one table, one summary and
whether its checks passed; main writes them as <command>.csv and
<command>.json (atomic temp-then-rename, stable key order, no
timestamps), so a fixed config and seed give byte-identical outputs.

Exit codes: 0 all checks pass, 2 bad config or arguments, 3 resource cap
exceeded or memory exhausted, 4 a numerical check failed.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, crossed, freecomb, posdef, sigma as sigma_mod, summation
from ._core import BACKEND
from .errors import (
    ConfigError,
    CrossedProdError,
    ResourceCapError,
    SpecMismatchError,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    ORDERING_VERSION,
    Cyclic,
    FreeGroup,
    GroupSpec,
    ball,
    parse_group,
)


# (csv header, csv rows, json summary, all checks passed)
Report = Tuple[Sequence[str], List[Sequence], dict, bool]


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_default(value):
    if isinstance(value, Fraction):
        return _fmt(value)
    raise TypeError(f"not JSON serializable: {type(value)}")


def _json_text(doc: dict) -> str:
    """Strict JSON: a NaN or infinity raises ValueError."""
    text = json.dumps(
        doc, sort_keys=True, indent=2, default=_json_default, allow_nan=False
    )
    return text + "\n"


def _write_json(path: str, doc: dict):
    _atomic_write(path, _json_text(doc))


def _check_finite_float(flag: str, value) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _parse_int_list(text: str) -> List[int]:
    """Accept '2..7' ranges and '2,3,5' lists."""
    text = text.strip()
    out: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = map(int, chunk.split("..", 1))
            if hi < lo:
                raise ConfigError(f"reversed range {chunk!r}")
            out.extend(range(lo, hi + 1))
        elif chunk:
            out.append(int(chunk))
    if not out:
        raise ConfigError(f"empty integer list: {text!r}")
    return out


def _check_nonnegative(flag: str, values: Sequence[int]) -> None:
    for n in values:
        if n < 0:
            raise ConfigError(f"{flag} entries must be >= 0, got {n}")


def _parse_set(spec: GroupSpec, text: str, cap: int):
    """A finite subset: 'ball:R' for any group, 'a..b' for the integers.

    Both forms hold at most cap elements."""
    text = text.strip()
    if text.startswith("ball:"):
        return list(ball(spec, int(text[5:]), cap))
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if hi < lo:
            raise ConfigError(f"reversed range {text!r}")
        if hi - lo + 1 > cap:
            raise ResourceCapError(
                f"set {text} has {hi - lo + 1} elements, exceeds cap {cap}"
            )
        return [spec.parse_element(str(j)) for j in range(lo, hi + 1)]
    return [spec.parse_element(p) for p in text.split(";")]


def _parse_algebra(text: str) -> crossed.CoeffAlgebra:
    text = text.strip().lower()
    if text == "scalars":
        return crossed.CoeffAlgebra.scalars()
    for prefix, maker in (
        ("diagonal:", crossed.CoeffAlgebra.diagonal),
        ("full:", crossed.CoeffAlgebra.full),
    ):
        if text.startswith(prefix):
            return maker(int(text[len(prefix) :]))
    raise ConfigError(f"unknown algebra {text!r} (scalars, diagonal:d, full:d)")


def _parse_action(spec: GroupSpec, text: str) -> crossed.ActionSpec:
    text = text.strip().lower()
    if text == "trivial":
        return crossed.ActionSpec.trivial()
    if not isinstance(spec, Cyclic):
        raise ConfigError(f"action {text!r} needs a cyclic group")
    if text == "swap":
        return crossed.swap_action(spec)
    if text == "translation":
        return crossed.translation_action(spec)
    raise ConfigError(f"unknown action {text!r} (trivial, swap, translation)")


def _parse_xi(ctx: crossed.CrossedContext, text: str) -> posdef.L2Vector:
    text = text.strip().lower()
    if text == "uniform":
        return posdef.L2Vector.indicator(list(ctx.window))
    if text.startswith("geometric:"):
        q = float(text[len("geometric:") :])
        _check_finite_float("--xi geometric ratio", q)
        if not 0 < q:
            raise ConfigError("geometric ratio must be positive")
        try:
            weights = {g: q ** ctx.group.word_length(g) for g in ctx.window}
        except OverflowError:
            raise ConfigError(f"--xi geometric weights must be finite; {q} overflows")
        if min(weights.values()) == 0:
            raise ConfigError(f"--xi geometric weights must be positive; {q} underflows to 0")
        return posdef.L2Vector.normalized(weights)
    raise ConfigError(f"unknown vector recipe {text!r} (uniform, geometric:q)")


def cmd_balls(args) -> Report:
    spec = parse_group(args.group)
    radii = _parse_int_list(args.radii)
    for n in radii:
        if n < 0:
            raise ConfigError(f"ball radius must be >= 0, got {n}")
    # one enumeration at the largest radius; B_n is its prefix of lengths <= n.
    # A free-group word is a reduced tuple, so its length is its word length.
    length = len if isinstance(spec, FreeGroup) else spec.word_length
    spheres = Counter(map(length, ball(spec, max(radii), args.cap)))
    sizes = list(accumulate(spheres[n] for n in range(max(radii) + 1)))
    free = isinstance(spec, FreeGroup) and spec.k >= 2
    rows = []
    ok = True
    for n in radii:
        closed = ""
        if free:
            closed = freecomb.ball_size(spec.k, n)
            ok = ok and closed == sizes[n]
        rows.append((n, sizes[n], spheres[n], closed))
    summary = {"group": spec.label, "ordering": ORDERING_VERSION, "radii": radii}
    return ("radius", "ball_size", "sphere_size", "closed_size"), rows, summary, ok


def _build_pdfunction(spec: GroupSpec, args) -> Tuple[posdef.PdFunction, dict]:
    if args.set and args.eps:
        raise ConfigError("choose one of --set and --eps")
    if args.set:
        S = _parse_set(spec, args.set, args.cap)
        return posdef.chi_from_set(spec, S), {"set": args.set, "set_size": len(S)}
    if args.eps:
        eps = float(args.eps)
        if not math.isfinite(eps):
            raise ConfigError(f"--eps must be finite, got {args.eps}")
        return posdef.haagerup(spec, eps), {"eps": eps}
    raise ConfigError("one of --set or --eps is required")


def cmd_chi(args) -> Report:
    spec = parse_group(args.group)
    f, recipe = _build_pdfunction(spec, args)
    if args.square:
        f = posdef.pointwise_product(f, f)
    if args.at is not None and args.ball is not None:
        raise ConfigError("choose one of --at and --ball")
    if args.at is None and args.ball is None:
        raise ConfigError("one of --at or --ball is required")
    points = (
        [spec.parse_element(args.at)]
        if args.at is not None
        else list(ball(spec, args.ball, args.cap))
    )
    rows = []
    shown_values = []
    for g in points:
        raw = f.evaluator(g) if f.support is None or g in f.support else 0
        if isinstance(raw, int):
            raw = Fraction(raw)
        if isinstance(raw, Fraction):
            rows.append((spec.format_element(g), float(raw), raw.numerator, raw.denominator))
            shown_values.append(raw)
        else:
            val = complex(raw)
            shown = val.real if val.imag == 0 else val
            rows.append((spec.format_element(g), shown, "", ""))
            shown_values.append(shown)
    if args.at is not None:
        print(shown_values[0], file=sys.stdout)
    summary = {"group": spec.label, "recipe": recipe, "points": len(rows)}
    return ("g", "value", "num", "den"), rows, summary, True


def cmd_psd(args) -> Report:
    spec = parse_group(args.group)
    f, recipe = _build_pdfunction(spec, args)
    if args.square:
        f = posdef.pointwise_product(f, f)
    window = ball(spec, args.ball, args.cap)
    report = posdef.check_positive_definite(f, window, args.tol)
    rows = [
        (
            report.ball_radius,
            report.gram_dimension,
            report.min_eigenvalue,
            report.tolerance,
            report.verdict,
        )
    ]
    summary = {"group": spec.label, "recipe": recipe, "report": report.to_json()}
    header = ("ball_radius", "gram_dimension", "min_eigenvalue", "tolerance", "verdict")
    return header, rows, summary, report.passed()


def cmd_freecount(args) -> Report:
    if args.lmax < 0:
        raise ConfigError(f"--lmax must be >= 0, got {args.lmax}")
    radii = _parse_int_list(args.radii) if args.radii else None
    _check_nonnegative("--radii", radii or ())
    rows_data = freecomb.count_table(args.k, args.lmax, radii, args.cap)
    rows = [
        (
            r.k,
            r.ell,
            r.n,
            r.closed,
            r.brute,
            r.ratio.numerator,
            r.ratio.denominator,
            r.limit.numerator,
            r.limit.denominator,
        )
        for r in rows_data
    ]
    ok = all(r.closed == r.brute for r in rows_data)
    summary = {"k": args.k, "lmax": args.lmax, "rows": len(rows), "all_equal": ok}
    header = (
        "k",
        "ell",
        "n",
        "closed",
        "brute",
        "ratio_num",
        "ratio_den",
        "limit_num",
        "limit_den",
    )
    return header, rows, summary, ok


def _build_context(args) -> crossed.CrossedContext:
    """The sweep context: the whole group as window, under --cap."""
    try:
        spec = parse_group(args.group)
        if not spec.is_finite():
            raise ConfigError(f"{spec.label} is infinite; sweeps need a finite group")
        algebra = _parse_algebra(args.algebra)
        action = _parse_action(spec, args.action)
        return crossed.make_context(spec, algebra=algebra, action=action, cap=args.cap)
    except SpecMismatchError as exc:
        raise ConfigError(str(exc)) from exc


def _check_trials(args) -> None:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")


def cmd_sigma(args) -> Report:
    _check_trials(args)
    ctx = _build_context(args)
    xi = _parse_xi(ctx, args.xi)
    pair = sigma_mod.make_pair(ctx, xi)
    cp = sigma_mod.cp_check(
        ctx,
        pair.sigma,
        chi=pair.chi,
        amplification=args.amp,
        trials=args.trials,
        tol=args.tol,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    samples = [sigma_mod.random_window_operator(ctx, rng) for _ in range(args.trials)]
    cond = sigma_mod.check_condition_ii(pair, samples=samples, tol=args.tol)
    # make_pair already raised NotUnitalError above UNITAL_TOL
    unital = pair.unital_defect
    tau_dev = 0.0
    for x in samples[:5]:
        total = ctx.zero()
        for u in ctx.window:
            total = total + sigma_mod.tau_u(ctx, pair.support, u, x)
        tau_dev = max(tau_dev, crossed.op_norm(total - pair.sigma(x)))
    checks = {
        "unital_defect": unital,
        "tau_sum_defect": tau_dev,
        "cp": cp.to_json(),
        "condition_ii": cond.to_json(),
    }
    ok = (
        cp.verdict == "Pass"
        and cond.condition_ii_margin >= -args.tol
        and tau_dev <= args.tol
        and cp.max_bimodular_defect <= args.tol
        and cp.max_eigenrelation_defect <= args.tol
    )
    rows = [
        ("unital_defect", unital),
        ("tau_sum_defect", tau_dev),
        ("min_eigenvalue_seen", cp.min_eigenvalue_seen),
        ("max_bimodular_defect", cp.max_bimodular_defect),
        ("max_eigenrelation_defect", cp.max_eigenrelation_defect),
        ("condition_ii_margin", cond.condition_ii_margin),
    ]
    summary = {
        "group": ctx.group.label,
        "algebra": args.algebra,
        "action": args.action,
        "xi": args.xi,
        "seed": args.seed,
        "checks": checks,
    }
    return ("metric", "value"), rows, summary, ok


def cmd_pi(args) -> Report:
    _check_trials(args)
    ctx = _build_context(args)
    xi = _parse_xi(ctx, args.xi)
    pair = sigma_mod.make_pair(ctx, xi)
    rng = np.random.default_rng(args.seed)
    idem_blocks, idem_res = crossed.empty_blocks(ctx, args.trials)
    span_blocks, span_res = crossed.empty_blocks(ctx, args.trials)
    amps = []
    for t in range(args.trials):
        x = sigma_mod.random_window_operator(ctx, rng)
        # the coefficients of sigma(x) serve both p1 and the amplification
        coeffs = crossed.phi_hom(ctx, pair.sigma(x))
        # sigma is applied to the dense p1, so idempotency is not true by construction
        p1 = sigma_mod.pi_projection(pair, x, coeffs=coeffs)
        p2 = sigma_mod.pi_projection(pair, p1)
        idem_blocks[t], idem_res[t] = crossed.dual_blocks(ctx, p2 - p1)
        y = sigma_mod.random_crossed_element(ctx, rng)
        span_blocks[t], span_res[t] = crossed.dual_blocks(
            ctx, sigma_mod.pi_projection(pair, y) - y
        )
        amps.append(sigma_mod.pi_amplification(pair, x, coeffs=coeffs))
    idems = crossed.span_norms(idem_blocks, idem_res).tolist()
    spans = crossed.span_norms(span_blocks, span_res).tolist()
    rows = list(zip(range(args.trials), idems, spans, amps))
    worst_idem = max([0.0] + idems)
    worst_span = max([0.0] + spans)
    worst_amp = max([0.0] + amps)
    ok = worst_idem <= args.tol and worst_span <= args.tol
    summary = {
        "group": ctx.group.label,
        "algebra": args.algebra,
        "action": args.action,
        "xi": args.xi,
        "seed": args.seed,
        "max_idempotency_defect": worst_idem,
        "max_span_identity_defect": worst_span,
        "max_amplification": worst_amp,
    }
    header = ("trial", "idempotency_defect", "span_identity_defect", "amplification")
    return header, rows, summary, ok


def _parse_coeffs(text: str) -> Dict[int, complex]:
    out: Dict[int, complex] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        k, _, c = chunk.partition(":")
        value = complex(c)
        if not cmath.isfinite(value):
            raise ConfigError(f"--coeffs value at {k} must be finite, got {c}")
        out[int(k)] = value
    if not out:
        raise ConfigError(f"empty coefficient list: {text!r}")
    return out


def cmd_cesaro(args) -> Report:
    coeffs = _parse_coeffs(args.coeffs)
    f = summation.TrigPolynomial(coeffs)
    orders = _parse_int_list(args.orders)
    _check_nonnegative("--orders", orders)
    deg = f.degree()
    # (deg + 4) sum |c_k| bounds every number the table holds
    try:
        scale = (deg + 4) * sum(abs(c) for c in coeffs.values())
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ConfigError("--coeffs are too large: (degree + 4) * sum |c_k| overflows")
    grid = args.grid if args.grid is not None else 8 * deg + 1
    if grid < 4 * deg + 1:
        raise ConfigError(f"--grid must be >= {4 * deg + 1} for degree {deg}, got {grid}")
    # the grid tabulates one exponential row of grid points per coefficient
    if grid * len(coeffs) > args.cap:
        raise ResourceCapError(
            f"--grid {grid} times {len(coeffs)} coefficients exceeds cap {args.cap}"
        )
    rows = []
    ok = True
    nonneg = all(
        complex(c).imag == 0 and complex(c).real >= 0 for c in coeffs.values()
    )
    for n in orders:
        mean = summation.cesaro_mean(f, n)
        err = summation.sup_norm_grid(f, mean, grid)
        predicted = sum(
            abs(k) * abs(complex(c)) / (n + 1)
            for k, c in coeffs.items()
            if abs(k) <= n
        ) + sum(abs(complex(c)) for k, c in coeffs.items() if abs(k) > n)
        gap = err - predicted
        row_ok = err <= predicted + args.tol and (
            not nonneg or n < deg or abs(gap) <= args.tol
        )
        ok = ok and row_ok
        rows.append((n, err, predicted, gap, "Pass" if row_ok else "Fail"))
    summary = {
        "degree": deg,
        "orders": orders,
        "grid_points": grid,
        "nonnegative_coefficients": nonneg,
    }
    return ("n", "grid_error", "predicted", "gap", "verdict"), rows, summary, ok


def cmd_folner(args) -> Report:
    spec = parse_group(args.group)
    t = spec.parse_element(args.t)
    radii = _parse_int_list(args.radii)
    _check_nonnegative("--radii", radii)
    try:
        size = max(posdef.folner_size(spec, n) for n in radii)
    except SpecMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    if size > args.cap:
        raise ResourceCapError(f"averaging set of {size} elements exceeds cap {args.cap}")
    study = summation.folner_study(spec, t, radii)
    rows = []
    ok = True
    for row in study:
        identity_ok = row.value == 1 - row.defect / 2
        ok = ok and identity_ok
        rows.append(
            (
                row.radius,
                row.defect.numerator,
                row.defect.denominator,
                row.value.numerator,
                row.value.denominator,
                "Pass" if identity_ok else "Fail",
            )
        )
    summary = {"group": spec.label, "t": spec.format_element(t), "radii": radii}
    header = ("radius", "defect_num", "defect_den", "chi_num", "chi_den", "identity")
    return header, rows, summary, ok


def _read_config(path: str) -> List[Tuple[str, str]]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def _expand_config(argv: List[str]) -> List[str]:
    """Inline --config files as flags placed before explicit flags."""
    if "--config" not in argv:
        return argv
    out = list(argv)
    injected: List[str] = []
    command = out[0] if out and not out[0].startswith("-") else None
    while "--config" in out:
        i = out.index("--config")
        if i + 1 >= len(out):
            raise ConfigError("--config needs a file path")
        for key, value in _read_config(out[i + 1]):
            if "." in key:
                section, _, name = key.partition(".")
                if section != command:
                    continue
            else:
                name = key
            injected.extend([f"--{name}", value])
        del out[i : i + 2]
    return out[:1] + injected + out[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossedprod",
        description="finite-window crossed-product studies",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"crossedprod {__version__} (ordering {ORDERING_VERSION}, backend {BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP)

    p = sub.add_parser("balls", parents=[common], help="ball/sphere size tables")
    p.add_argument("--group", required=True)
    p.add_argument("--radii", default="0..5")
    p.set_defaults(func=cmd_balls)

    fn_common = argparse.ArgumentParser(add_help=False)
    fn_common.add_argument("--set", help="'ball:R', 'a..b', or ';'-separated elements")
    fn_common.add_argument("--eps", help="exponential decay rate")
    fn_common.add_argument("--square", action="store_true", help="square the function")

    p = sub.add_parser("chi", parents=[common, fn_common], help="evaluate a candidate function")
    p.add_argument("--group", required=True)
    p.add_argument("--at", help="single evaluation point")
    p.add_argument("--ball", type=int, help="tabulate over this ball")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("psd", parents=[common, fn_common], help="Gram matrix spectrum report")
    p.add_argument("--group", required=True)
    p.add_argument("--ball", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("freecount", parents=[common], help="closed vs brute counting")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lmax", type=int, default=3)
    p.add_argument("--radii", default=None)
    p.set_defaults(func=cmd_freecount)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--group", required=True)
    sweep.add_argument("--algebra", default="scalars")
    sweep.add_argument("--action", default="trivial")
    sweep.add_argument("--xi", default="uniform")
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("sigma", parents=[common, sweep], help="averaged-map property sweep")
    p.add_argument("--amp", type=int, default=2)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("pi", parents=[common, sweep], help="idempotent checks")
    p.set_defaults(func=cmd_pi)

    p = sub.add_parser("cesaro", parents=[common], help="uniform convergence table")
    p.add_argument(
        "--coeffs",
        default="0:1,1:0.5,2:0.25,3:0.125,4:0.0625,5:0.03125",
        help="comma list k:c",
    )
    p.add_argument("--orders", default="5..50")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_cesaro)

    p = sub.add_parser("folner", parents=[common], help="averaging-set defect table")
    p.add_argument("--group", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--radii", default="1..20")
    p.set_defaults(func=cmd_folner)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
        args = build_parser().parse_args(argv)
        tol = getattr(args, "tol", None)
        _check_finite_float("--tol", tol)
        if tol is not None and tol < 0:
            raise ConfigError(f"--tol must be >= 0, got {tol}")
        header, rows, summary, ok = args.func(args)
        verdict = "Pass" if ok else "Fail"
        # serialize both before writing either, so a summary that is not
        # strict JSON leaves no CSV behind
        csv_text = _csv_text(header, rows)
        json_text = _json_text(dict(summary, command=args.command, verdict=verdict))
        base = os.path.join(args.out, args.command)
        _atomic_write(base + ".csv", csv_text)
        _atomic_write(base + ".json", json_text)
        return 0 if ok else 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"resource cap: out of memory{detail}", file=sys.stderr)
        return 3
    except (CrossedProdError, np.linalg.LinAlgError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
