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
import dataclasses
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    Integers,
    ball,
    parse_group,
    sphere_sizes,
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


def _columns(record) -> Tuple[List[str], List]:
    """A dataclass record as one CSV header and row: its fields in order,
    a Fraction field f as the two columns f_num and f_den."""
    header, row = [], []
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, Fraction):
            header += [f"{field.name}_num", f"{field.name}_den"]
            row += [value.numerator, value.denominator]
        else:
            header.append(field.name)
            row.append(value)
    return header, row


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


def _check_finite_float(flag: str, value) -> None:
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")


def _int(flag: str, text: str, what: str = "integers") -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{flag} takes {what}, got {text.strip()!r}") from None


def _float(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag} takes a number, got {text!r}") from None


def _parse_int_list(flag: str, text: str, cap: int) -> List[int]:
    """Accept '2..7' ranges, each of at most cap entries, refused before it
    is expanded, and '2,3,5' lists."""
    text = text.strip()
    out: List[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = (_int(flag, part) for part in chunk.split("..", 1))
            if hi < lo:
                raise ConfigError(f"reversed range {chunk!r}")
            if hi - lo + 1 > cap:
                over = f"has {hi - lo + 1} entries, exceeds cap {cap}"
                raise ResourceCapError(f"{flag} range {chunk} {over}")
            out.extend(range(lo, hi + 1))
        elif chunk:
            out.append(_int(flag, chunk))
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
        return list(ball(spec, _int("--set ball:R", text[5:], "an integer radius"), cap))
    if ".." in text:
        what = "integers (the a..b form is for integer groups)"
        lo, hi = (_int("--set", part, what) for part in text.split("..", 1))
        if not isinstance(spec, (Integers, Cyclic)):
            raise ConfigError(
                f"--set {text!r}: the a..b form is for integer groups (Z, Cn), "
                f"not {spec.label}"
            )
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
            return maker(_int("--algebra", text[len(prefix) :], "an integer dimension"))
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
        q = _float("--xi geometric:q", text[len("geometric:") :])
        _check_finite_float("--xi geometric ratio", q)
        if not 0 < q:
            raise ConfigError("geometric ratio must be positive")
        try:
            weights = {g: q ** ctx.group.word_length(g) for g in ctx.window}
        except OverflowError:
            raise ConfigError(f"--xi geometric weights must be finite; {q} overflows")
        if min(weights.values()) == 0:
            raise ConfigError(f"--xi geometric weights must be positive; {q} underflows to 0")
        try:
            return posdef.L2Vector.normalized(weights)
        except OverflowError:
            raise ConfigError(
                f"--xi geometric squared weights must be finite; {q} overflows"
            ) from None
    raise ConfigError(f"unknown vector recipe {text!r} (uniform, geometric:q)")


def cmd_balls(args) -> Report:
    spec = parse_group(args.group)
    radii = _parse_int_list("--radii", args.radii, args.cap)
    _check_nonnegative("--radii", radii)
    # counted, not enumerated, at the largest radius; B_n sums the spheres up
    # to n, and a finite group's spheres past its diameter are empty
    spheres = sphere_sizes(spec, max(radii), args.cap)
    sizes = list(accumulate(spheres))
    free = isinstance(spec, FreeGroup) and spec.k >= 2
    rows = []
    ok = True
    for n in radii:
        size = sizes[min(n, len(sizes) - 1)]
        closed = ""
        if free:
            closed = freecomb.ball_size(spec.k, n)
            ok = ok and closed == size
        rows.append((n, size, spheres[n] if n < len(spheres) else 0, closed))
    summary = {"group": spec.label, "ordering": ORDERING_VERSION, "radii": radii}
    return ("radius", "ball_size", "sphere_size", "closed_size"), rows, summary, ok


def _build_pdfunction(spec: GroupSpec, args) -> Tuple[posdef.PdFunction, dict]:
    """The function of --set or --eps, squared pointwise under --square,
    and the recipe the summary records (which leaves --square out)."""
    if args.set and args.eps:
        raise ConfigError("choose one of --set and --eps")
    if args.set:
        S = _parse_set(spec, args.set, args.cap)
        f, recipe = posdef.chi_from_set(spec, S), {"set": args.set, "set_size": len(S)}
    elif args.eps:
        eps = _float("--eps", args.eps)
        _check_finite_float("--eps", eps)
        f, recipe = posdef.haagerup(spec, eps), {"eps": eps}
    else:
        raise ConfigError("one of --set or --eps is required")
    return (posdef.pointwise_product(f, f) if args.square else f), recipe


def cmd_chi(args) -> Report:
    spec = parse_group(args.group)
    f, recipe = _build_pdfunction(spec, args)
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
    # the window's size from its spheres, so an over-budget Gram is refused
    # before its window is built
    n = sum(sphere_sizes(spec, args.ball, args.cap))
    budget, over = _dense_budget(args.cap)
    if n * n > budget:
        raise ResourceCapError(
            f"the Gram of the --ball {args.ball} window (n = {n}) has {n * n} "
            f"entries, {over}"
        )
    report = posdef.check_positive_definite(f, ball(spec, args.ball, args.cap), args.tol)
    header, row = _columns(report)
    summary = {"group": spec.label, "recipe": recipe, "report": report.to_json()}
    return header, [row], summary, report.passed()


def cmd_freecount(args) -> Report:
    radii = None if args.radii is None else _parse_int_list("--radii", args.radii, args.cap)
    _check_nonnegative("--radii", radii or ())
    # never empty: ell = 0 has a row at every radius, and radii are >= 0
    counts = freecomb.count_table(args.k, args.lmax, radii, args.cap)
    header = _columns(counts[0])[0]
    rows = [_columns(r)[1] for r in counts]
    ok = all(r.closed == r.brute for r in counts)
    summary = {"k": args.k, "lmax": args.lmax, "rows": len(rows), "all_equal": ok}
    return header, rows, summary, ok


def _build_pair(
    args, amp: int, per_trial: Callable[[int, int], int]
) -> sigma_mod.ExpectationPair:
    """The sweep's pair of --xi over its context, whose window is the
    whole group, under --cap.

    The dense budget (_check_dense_budget) is checked first, from the
    group order n and the algebra dimension d, so a refused sweep builds
    no context; per_trial(n, d) is the number of entries it keeps a
    trial.  A group larger than --cap is refused instead, from its
    sphere sizes and with the cap's message, before any element is built."""
    try:
        spec = parse_group(args.group)
        if not spec.is_finite():
            raise ConfigError(f"{spec.label} is infinite; sweeps need a finite group")
        algebra = _parse_algebra(args.algebra)
        action = _parse_action(spec, args.action)
        n, d = spec.order(), algebra.internal_dim
        if n <= args.cap:
            _check_dense_budget(args, n * d, amp, per_trial(n, d))
        ctx = crossed.make_context(spec, algebra=algebra, action=action, cap=args.cap)
    except SpecMismatchError as exc:
        raise ConfigError(str(exc)) from exc
    return sigma_mod.make_pair(ctx, _parse_xi(ctx, args.xi))


def _sweep_summary(args, pair: sigma_mod.ExpectationPair, **results) -> dict:
    """The summary of a sweep: what it ran on, then its results."""
    return {
        "group": pair.ctx.group.label,
        "algebra": args.algebra,
        "action": args.action,
        "xi": args.xi,
        "seed": args.seed,
        **results,
    }


# The dense budget of a sweep or a Gram, in entries per --cap element:
# 64 M entries, about 1 GB of complex128, at the default cap.
DENSE_ENTRIES_PER_CAP = 64


def _dense_budget(cap: int) -> Tuple[int, str]:
    """The dense budget at --cap, and the words that name it."""
    budget = DENSE_ENTRIES_PER_CAP * cap
    return budget, f"over the dense budget {DENSE_ENTRIES_PER_CAP} x --cap = {budget}"


def _check_dense_budget(args, nd: int, amp: int, per_trial: int):
    """Refuse a sweep before it allocates when its largest dense operator,
    of dimension amp n d, or the largest array it keeps across --trials,
    of per_trial entries a trial, passes DENSE_ENTRIES_PER_CAP * --cap
    entries."""
    budget, over = _dense_budget(args.cap)
    dim = amp * nd
    if dim * dim > budget:
        by = f" (--amp {amp})" if amp > 1 else ""
        raise ResourceCapError(
            f"a dense operator of dimension {dim}{by} has {dim * dim} entries, {over}"
        )
    if args.trials * per_trial > budget:
        raise ResourceCapError(
            f"--trials {args.trials} keep {args.trials * per_trial} dense entries, {over}"
        )


def cmd_sigma(args) -> Report:
    m = args.amp
    # kept per trial: cp_check's coefficient stacks and dual blocks of an
    # m x m positivity grid, or a condition (ii) sample, whose first five
    # the tau-sum reads; condition (ii)'s Fourier batch is transient and
    # the size of one sample, and cp_check's blocks of trials draw no more
    # than it keeps
    pair = _build_pair(args, m, lambda n, d: max(2 * n * (m * d) ** 2, (n * d) ** 2))
    ctx = pair.ctx
    cp = sigma_mod.cp_check(
        ctx,
        pair.sigma,
        chi_values=pair.chi_values,
        amplification=args.amp,
        trials=args.trials,
        tol=args.tol,
        seed=args.seed,
    )
    rng = np.random.default_rng(args.seed)
    # every condition (ii) sample in one stack, drawn in order; the tau-sum
    # reads the first five as a view of it before the others are drawn, so
    # its accumulator is freed before their pages are first written
    samples = ctx.wrap(np.empty((args.trials, ctx.dim, ctx.dim), dtype=complex))
    for x in samples.data[:5]:
        x[...] = sigma_mod.random_window_operator(ctx, rng).data
    tau_dev = _tau_sum_defect(ctx, pair, samples[:5])
    for x in samples.data[5:]:
        x[...] = sigma_mod.random_window_operator(ctx, rng).data
    cond = sigma_mod.check_condition_ii(pair, samples, tol=args.tol)
    # make_pair already raised NotUnitalError above UNITAL_TOL
    unital = pair.unital_defect
    checks = {
        "unital_defect": unital,
        "tau_sum_defect": tau_dev,
        "cp": cp.to_json(),
        "condition_ii": cond.to_json(),
    }
    # the cp verdict covers its bimodular and eigenrelation defects
    ok = (
        cp.verdict == "Pass"
        and cond.condition_ii_margin >= -args.tol
        and tau_dev <= args.tol
    )
    rows = [
        ("unital_defect", unital),
        ("tau_sum_defect", tau_dev),
        ("min_eigenvalue_seen", cp.min_eigenvalue_seen),
        ("max_bimodular_defect", cp.max_bimodular_defect),
        ("max_eigenrelation_defect", cp.max_eigenrelation_defect),
        ("condition_ii_margin", cond.condition_ii_margin),
    ]
    return ("metric", "value"), rows, _sweep_summary(args, pair, checks=checks), ok


def _tau_sum_defect(
    ctx: crossed.CrossedContext, pair: sigma_mod.ExpectationPair, xs: crossed.BlockMatrix
) -> float:
    """The largest ||sum_u tau_u(x) - sigma(x)|| over a stack of samples.

    Their tau terms are summed into one stacked accumulator, span elements
    up to rounding, whose coefficient stacks, less those of sigma(x), are
    normed off their dual blocks plus the accumulator's residuals."""
    total = ctx.wrap(np.zeros(xs.data.shape, dtype=complex))
    for u in ctx.window:
        sigma_mod.tau_u(ctx, pair.support, u, xs, out=total)
    with crossed.span_check(lambda t: f"tau-sum of sample {t}"):
        coeffs, squares = crossed.span_coefficients(ctx, total)
    defects = coeffs - pair.sigma(xs).coeffs
    blocks = crossed.grid_blocks(ctx, defects[:, None, None])
    return float(np.max(crossed.span_norms(blocks, np.sqrt(squares))))


def cmd_pi(args) -> Report:
    # kept per trial, each n d^2 entries: the stacks of sigma(x), p1,
    # sigma(p1), y and sigma(y), and the dual blocks of a defect
    pair = _build_pair(args, 1, lambda n, d: 6 * n * d**2)
    ctx = pair.ctx
    rng = np.random.default_rng(args.seed)
    # per block of trials one draw, each trial's x and then its y, and one
    # sigma of the block's x; the rest runs once over the (trials, n, d, d)
    # stacks
    n, d, dim = ctx.nwin, ctx.d, ctx.dim
    sx, ys = (np.empty((args.trials, n, d, d), dtype=complex) for _ in range(2))
    for a, b in sigma_mod.trial_blocks(args.trials, dim * dim + n * d * d, 6 * n * d * d):
        draw = rng.standard_normal((b, 2 * (dim * dim + n * d * d)))
        x = sigma_mod.random_window_operator(ctx, draw[:, : 2 * dim * dim], (b,))
        sx[a : a + b] = pair.sigma(x).coeffs
        ys[a : a + b] = sigma_mod.random_crossed_element(ctx, draw[:, 2 * dim * dim :], (b,)).coeffs
    # the coefficients of sigma(x) serve both p1 and the amplification; p1
    # comes from them, the operators x not being kept, and sigma is
    # applied to p1, so idempotency is not true by construction
    p1 = sigma_mod.pi_projection(pair, coeffs=sx)
    p2 = sigma_mod.pi_projection(pair, p1)
    with crossed.span_check(lambda t: f"idempotency trial {t}"):
        idems = crossed.span_norms(*crossed.dual_blocks(ctx, p2 - p1)).tolist()
    y = crossed.SpanElement(ctx, ys)
    with crossed.span_check(lambda t: f"span-identity trial {t}"):
        spans = crossed.span_norms(
            *crossed.dual_blocks(ctx, sigma_mod.pi_projection(pair, y) - y)
        ).tolist()
    amps = sigma_mod.pi_amplification(pair, coeffs=sx).tolist()
    rows = list(zip(range(args.trials), idems, spans, amps))
    worst_idem = max([0.0] + idems)
    worst_span = max([0.0] + spans)
    ok = worst_idem <= args.tol and worst_span <= args.tol
    summary = _sweep_summary(
        args,
        pair,
        max_idempotency_defect=worst_idem,
        max_span_identity_defect=worst_span,
        max_amplification=max([0.0] + amps),
    )
    header = ("trial", "idempotency_defect", "span_identity_defect", "amplification")
    return header, rows, summary, ok


def _parse_coeffs(text: str) -> Dict[int, complex]:
    out: Dict[int, complex] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        k, _, c = chunk.partition(":")
        k = _int("--coeffs", k, "k:c entries with an integer k")
        try:
            value = complex(c)
        except ValueError:
            raise ConfigError(f"--coeffs value at {k} is not a number: {c!r}") from None
        if not cmath.isfinite(value):
            raise ConfigError(f"--coeffs value at {k} must be finite, got {c}")
        out[k] = value
    if not out:
        raise ConfigError(f"empty coefficient list: {text!r}")
    return out


def cmd_cesaro(args) -> Report:
    coeffs = _parse_coeffs(args.coeffs)
    f = summation.TrigPolynomial(coeffs)
    orders = _parse_int_list("--orders", args.orders, args.cap)
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
    means = [summation.cesaro_mean(f, n) for n in orders]
    for n, err in zip(orders, summation.sup_norm_grid(f, means, grid)):
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
    radii = _parse_int_list("--radii", args.radii, args.cap)
    _check_nonnegative("--radii", radii)
    try:
        # F_n grows with n, so the largest radius's set is the one enumerated
        size = posdef.folner_size(spec, max(radii))
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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read config file {path}: not UTF-8 text at byte {exc.start}"
        ) from None
    pairs = []
    for lineno, line in enumerate(lines, 1):
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
    pairs = []
    while "--config" in out:
        i = out.index("--config")
        if i + 1 >= len(out):
            raise ConfigError("--config needs a file path")
        pairs.extend(_read_config(out[i + 1]))
        del out[i : i + 2]
    # the command is read once the pairs are gone, wherever they stood
    command = _command(out)
    injected: List[str] = []
    for key, value in pairs:
        if "." in key:
            section, _, name = key.partition(".")
            if section != command:
                continue
        else:
            name = key
        injected.extend([f"--{name}", value])
    return out[:1] + injected + out[1:]


_COMMON = (
    ("--out", dict(default=".", help="output directory")),
    ("--cap", dict(type=int, default=DEFAULT_ELEMENT_CAP)),
)
_GROUP = ("--group", dict(required=True))
_FN_COMMON = _COMMON + (
    ("--set", dict(help="'ball:R', 'a..b', or ';'-separated elements")),
    ("--eps", dict(help="exponential decay rate")),
    ("--square", dict(action="store_true", help="square the function")),
    _GROUP,
)
_SWEEP = _COMMON + (
    _GROUP,
    ("--algebra", dict(default="scalars")),
    ("--action", dict(default="trivial")),
    ("--xi", dict(default="uniform")),
    ("--trials", dict(type=int, default=100)),
    ("--seed", dict(type=int, default=0)),
    ("--tol", dict(type=float, default=1e-10)),
)

# name -> (help, flags after -h) of each subcommand, both in the order help
# lists them; the study is cmd_<name>, looked up when the parser is built
_COMMANDS = {
    "balls": ("ball/sphere size tables", _COMMON + (_GROUP, ("--radii", dict(default="0..5")))),
    "chi": ("evaluate a candidate function", _FN_COMMON + (
        ("--at", dict(help="single evaluation point")),
        ("--ball", dict(type=int, help="tabulate over this ball")),
    )),
    "psd": ("Gram matrix spectrum report", _FN_COMMON + (
        ("--ball", dict(type=int, required=True)), ("--tol", dict(type=float)),
    )),
    "freecount": ("closed vs brute counting", _COMMON + (
        ("--k", dict(type=int, required=True)),
        ("--lmax", dict(type=int, default=3)), ("--radii", {}),
    )),
    "sigma": ("averaged-map property sweep", _SWEEP + (("--amp", dict(type=int, default=2)),)),
    "pi": ("idempotent checks", _SWEEP),
    "cesaro": ("uniform convergence table", _COMMON + (
        ("--coeffs", dict(default="0:1,1:0.5,2:0.25,3:0.125,4:0.0625,5:0.03125",
                          help="comma list k:c")),
        ("--orders", dict(default="5..50")),
        ("--grid", dict(type=int)),
        ("--tol", dict(type=float, default=1e-10)),
    )),
    "folner": ("averaging-set defect table", _COMMON + (
        _GROUP, ("--t", dict(required=True)), ("--radii", dict(default="1..20")),
    )),
}


def _command(argv: Sequence[str]) -> Optional[str]:
    """The subcommand argv names: its first token, unless that is a flag."""
    return argv[0] if argv and not argv[0].startswith("-") else None


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser, with only the subparser of ``command`` when that
    names a subcommand.  With no name or an unknown one it has them all, so
    the top-level help and argparse's invalid-choice message list each."""
    parser = argparse.ArgumentParser(
        prog="crossedprod", description="finite-window crossed-product studies"
    )
    version = f"crossedprod {__version__} (ordering {ORDERING_VERSION}, backend {BACKEND})"
    parser.add_argument("--version", action="version", version=version)
    # the metavar lists every name in a lone subparser's usage line; the full
    # build leaves it unset, or argparse's errors would say it for "command"
    one = command in _COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}" if one else None
    )
    for name in [command] if one else _COMMANDS:
        help_text, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
        try:
            args = build_parser(_command(argv)).parse_args(argv)
        except SystemExit as exc:
            # argparse printed its usage error; --help and --version exit 0
            if exc.code == 0:
                raise
            return 2
        tol = getattr(args, "tol", None)
        _check_finite_float("--tol", tol)
        if tol is not None and tol < 0:
            raise ConfigError(f"--tol must be >= 0, got {tol}")
        for flag, low in (("cap", 1), ("trials", 1), ("seed", 0), ("amp", 1), ("lmax", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise ConfigError(f"--{flag} must be >= {low}, got {value}")
        header, rows, summary, ok = args.func(args)
        verdict = "Pass" if ok else "Fail"
        # serialize both before writing either, so a summary that is not
        # strict JSON leaves no CSV behind
        csv_text = _csv_text(header, rows)
        json_text = _json_text(dict(summary, command=args.command, verdict=verdict))
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out cannot make directory {args.out}: {exc.strerror}") from None
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
