import json
import re

import numpy as np
import pytest

from crossedprod import crossed, sigma
from crossedprod.crossed import (
    CoeffAlgebra,
    left_translation,
    make_context,
    op_norm,
    phi_hom,
    psi,
    swap_action,
    theta_embed,
    translation_action,
)
from crossedprod.errors import (
    ConfigError,
    CrossedProdError,
    MarginError,
    NotInCrossedProductError,
    NotInDomainError,
    NotPositiveError,
    NotUnitalError,
    PartialSupportError,
    SpecMismatchError,
    VectorNotPositiveError,
)
from crossedprod.groups import Cyclic, FreeGroup, Integers, ball
from crossedprod.posdef import L2Vector
from crossedprod.sigma import (
    CpReport,
    check_condition_ii,
    chi_of,
    cp_check,
    make_pair,
    phi_t,
    pi_amplification,
    pi_projection,
    random_crossed_element,
    random_window_operator,
    sigma_xi,
    tau_u,
)


def ctx_scalars(n):
    return make_context(Cyclic(n))


def ctx_swap(n):
    return make_context(
        Cyclic(n), algebra=CoeffAlgebra.diagonal(2), action=swap_action(Cyclic(n))
    )


def ctx_translation(n):
    return make_context(
        Cyclic(n),
        algebra=CoeffAlgebra.diagonal(n),
        action=translation_action(Cyclic(n)),
    )


def uniform_xi(ctx):
    return L2Vector.indicator(list(ctx.window))


def positive_xi(ctx, seed=0):
    rng = np.random.default_rng(seed)
    return L2Vector.normalized(
        {g: 0.2 + rng.random() for g in ctx.window}
    )


def naive_sigma(ctx, xi, x):
    """Direct translation-by-translation evaluation of the averaged map."""
    out = ctx.zero()
    xblocks = x.blocks()
    for g, kg in xi.entries.items():
        gi = ctx.window.index(g)
        for h, kh in xi.entries.items():
            hi = ctx.window.index(h)
            r = ctx.expectation.apply(np.asarray(xblocks[gi, hi]))
            r = ctx.alpha(h, r)
            t = ctx.group.multiply(g, ctx.group.inverse(h))
            term = left_translation(ctx, t) @ psi(
                ctx, complex(np.conj(kg) * kh) * r
            )
            out = out + term
    return out


CONTEXTS = [
    ("C2-scalars", ctx_scalars(2)),
    ("C5-scalars", ctx_scalars(5)),
    ("C4-diag-swap", ctx_swap(4)),
    ("C3-diag-translation", ctx_translation(3)),
]


@pytest.mark.parametrize("name,ctx", CONTEXTS, ids=[c[0] for c in CONTEXTS])
def test_sigma_matches_naive_evaluation(name, ctx):
    rng = np.random.default_rng(1)
    for xi in (uniform_xi(ctx), positive_xi(ctx, seed=2)):
        for _ in range(3):
            x = random_window_operator(ctx, rng)
            got = sigma_xi(ctx, xi, x)
            want = naive_sigma(ctx, xi, x)
            assert op_norm(got - want) <= 1e-12


@pytest.mark.parametrize("name,ctx", CONTEXTS, ids=[c[0] for c in CONTEXTS])
def test_pair_unital_and_eigenrelation(name, ctx):
    pair = make_pair(ctx, positive_xi(ctx, seed=3))
    ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    assert op_norm(pair.sigma(ident) - ident) <= 1e-12
    rng = np.random.default_rng(4)
    for g in ctx.window:
        r = ctx.algebra.random_member(rng)
        x = left_translation(ctx, g) @ psi(ctx, r)
        assert op_norm(pair.sigma(x) - complex(pair.chi(g)) * x) <= 1e-12


def test_uniform_vector_gives_conditional_expectation():
    # flat weights make every eigenvalue 1, so the map fixes the span
    ctx = ctx_swap(6)
    pair = make_pair(ctx, uniform_xi(ctx))
    for g in ctx.window:
        assert complex(pair.chi(g)) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    x = random_crossed_element(ctx, rng)
    assert op_norm(pair.sigma(x) - x) <= 1e-12
    y = random_window_operator(ctx, rng)
    assert op_norm(pair.sigma(pair.sigma(y)) - pair.sigma(y)) <= 1e-12


def test_tau_terms_sum_to_sigma():
    for _, ctx in CONTEXTS:
        xi = positive_xi(ctx, seed=6)
        rng = np.random.default_rng(7)
        x = random_window_operator(ctx, rng)
        total = ctx.zero()
        for u in ctx.window:
            total = total + tau_u(ctx, xi, u, x)
        assert op_norm(total - sigma_xi(ctx, xi, x)) <= 1e-12


def test_tau_term_is_positive():
    ctx = ctx_swap(4)
    xi = positive_xi(ctx, seed=8)
    rng = np.random.default_rng(9)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = ctx.wrap(m.conj().T @ m)
    for u in ctx.window:
        t = tau_u(ctx, xi, u, x).data
        assert np.linalg.eigvalsh((t + t.conj().T) / 2)[0] >= -1e-12


def test_tau_delta_vector_compresses_identity_block():
    ctx = ctx_translation(4)
    xi = L2Vector({0: 1.0 + 0j})
    rng = np.random.default_rng(10)
    x = random_window_operator(ctx, rng)
    d = ctx.d
    for u in ctx.window:
        out = tau_u(ctx, xi, u, x)
        uinv = ctx.window.index((-u) % 4)
        want = ctx.alpha(u, ctx.expectation.apply(np.asarray(x.blocks()[0, 0])))
        assert np.allclose(out.blocks()[uinv, uinv], want)
        assert np.count_nonzero(out.data) <= d * d


def test_tau_requires_finite_group():
    ctx = make_context(Integers(), radius=2)
    xi = L2Vector({0: 1.0 + 0j})
    with pytest.raises(SpecMismatchError):
        tau_u(ctx, xi, 1, ctx.wrap(np.eye(ctx.dim, dtype=complex)))


def test_phi_t_on_identity():
    ctx = ctx_swap(4)
    xi = positive_xi(ctx, seed=11)
    assert np.allclose(phi_t(ctx, xi, 0, ctx.wrap(np.eye(ctx.dim, dtype=complex))), np.eye(2))
    for t in (1, 2, 3):
        assert np.allclose(phi_t(ctx, xi, t, ctx.wrap(np.eye(ctx.dim, dtype=complex))), 0)


def test_phi_t_recovers_translate_coefficient():
    ctx = ctx_translation(5)
    xi = positive_xi(ctx, seed=12)
    rng = np.random.default_rng(13)
    for t in ctx.window:
        r = ctx.algebra.random_member(rng)
        x = left_translation(ctx, t) @ psi(ctx, r)
        assert np.max(np.abs(phi_t(ctx, xi, t, x) - r)) <= 1e-12
        other = (t + 1) % 5
        assert np.max(np.abs(phi_t(ctx, xi, other, x))) <= 1e-12


def test_phi_t_contraction():
    ctx = ctx_swap(6)
    xi = positive_xi(ctx, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(100):
        x = random_window_operator(ctx, rng)
        xn = op_norm(x)
        for t in (0, 1, 3):
            block = phi_t(ctx, xi, t, x)
            assert np.linalg.norm(block, 2) <= xn + 1e-10


def test_phi_t_rejects_vanishing_eigenvalue():
    ctx = ctx_scalars(4)
    xi = L2Vector({0: 0.5, 1: 0.5, 2: -0.5, 3: 0.5})
    x = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    with pytest.raises(NotInDomainError):
        phi_t(ctx, xi, 1, x)


def test_reassembly_from_translate_coefficients():
    for _, ctx in CONTEXTS:
        xi = positive_xi(ctx, seed=16)
        chi = chi_of(ctx, xi)
        rng = np.random.default_rng(17)
        x = random_window_operator(ctx, rng)
        total = ctx.zero()
        for t in ctx.window:
            r = phi_t(ctx, xi, t, x, chi=chi)
            total = total + complex(chi(t)) * (
                left_translation(ctx, t) @ psi(ctx, r)
            )
        assert op_norm(total - sigma_xi(ctx, xi, x)) <= 1e-12


def test_make_pair_validation():
    ctx = ctx_scalars(4)
    with pytest.raises(ValueError):
        make_pair(ctx, L2Vector({0: 1.0 + 0j}))  # support too small
    with pytest.raises(ValueError):
        make_pair(ctx, L2Vector({0: 0.5, 1: 0.5, 2: -0.5, 3: 0.5}))
    bad = L2Vector.normalized({0: 1.0, 1: 1.0j, 2: 1.0, 3: 1.0})
    with pytest.raises(ValueError):
        make_pair(ctx, bad)


def test_non_positive_vector_raises_a_typed_error():
    ctx = ctx_scalars(4)
    with pytest.raises(VectorNotPositiveError, match="strictly positive") as err:
        make_pair(ctx, L2Vector({0: 0.5, 1: 0.5, 2: -0.5, 3: 0.5}))
    assert isinstance(err.value, CrossedProdError)
    assert isinstance(err.value, ValueError)


def test_partial_support_raises_a_typed_error():
    ctx = ctx_scalars(4)
    with pytest.raises(PartialSupportError, match="cover the whole group") as err:
        make_pair(ctx, L2Vector({0: 1.0 + 0j}))
    assert isinstance(err.value, CrossedProdError)
    assert isinstance(err.value, ValueError)


def test_pi_reuses_given_sigma_coefficients():
    ctx = ctx_translation(4)
    pair = make_pair(ctx, positive_xi(ctx, seed=31))
    x = random_window_operator(ctx, np.random.default_rng(32))
    coeffs = phi_hom(ctx, pair.sigma(x))
    got = pi_projection(pair, x, coeffs=coeffs)
    assert np.array_equal(got.data, pi_projection(pair, x).data)
    assert pi_amplification(pair, x, coeffs=coeffs) == pi_amplification(pair, x)
    # the coefficients alone are enough, and one of the two is needed
    assert np.array_equal(pi_projection(pair, coeffs=coeffs).coeffs, got.coeffs)
    assert pi_amplification(pair, coeffs=coeffs) == pi_amplification(pair, x)
    for pi in (pi_projection, pi_amplification):
        with pytest.raises(ValueError, match="an operator x or the coefficients"):
            pi(pair)


def test_cp_check_report():
    ctx = ctx_swap(4)
    pair = make_pair(ctx, positive_xi(ctx, seed=20))
    rep = cp_check(ctx, pair.sigma, chi_values=pair.chi_values, amplification=2, trials=20)
    assert rep.verdict == "Pass"
    assert rep.min_eigenvalue_seen >= -1e-10
    assert rep.max_bimodular_defect <= 1e-12
    assert rep.max_eigenrelation_defect <= 1e-12
    assert rep.amplification_level == 2
    d = rep.to_json()
    assert d["condition_ii_margin"] is None  # not measured here
    assert json.dumps(d)  # serializable, no bare NaN
    with pytest.raises(ValueError):
        cp_check(ctx, pair.sigma, amplification=0)


def test_cp_check_amplified_levels():
    ctx = ctx_translation(3)
    pair = make_pair(ctx, positive_xi(ctx, seed=21))
    for m in (1, 2, 3):
        rep = cp_check(ctx, pair.sigma, amplification=m, trials=15, seed=m)
        assert rep.verdict == "Pass"
        assert rep.min_eigenvalue_seen >= -1e-10


def test_condition_ii_holds(window_samples):
    for _, ctx in CONTEXTS:
        pair = make_pair(ctx, positive_xi(ctx, seed=22))
        rep = check_condition_ii(pair, window_samples(ctx, 30))
        assert rep.verdict == "Pass"
        assert rep.condition_ii_margin >= -1e-10


def test_condition_ii_tight_on_translates():
    # x = L_g Psi(r) with unitary r makes the bound an equality
    ctx = ctx_translation(4)
    pair = make_pair(ctx, positive_xi(ctx, seed=23))
    rng = np.random.default_rng(24)
    phases = np.exp(2j * np.pi * rng.random(4))
    samples = ctx.wrap(np.stack([
        (left_translation(ctx, g) @ psi(ctx, np.diag(phases))).data
        for g in ctx.window
    ]))
    rep = check_condition_ii(pair, samples)
    assert rep.verdict == "Pass"
    assert abs(rep.condition_ii_margin) <= 1e-12


def test_sweeps_without_trials_do_not_pass():
    ctx = ctx_scalars(3)
    pair = make_pair(ctx, uniform_xi(ctx))
    with pytest.raises(ConfigError):
        cp_check(ctx, pair.sigma, chi_values=pair.chi_values, trials=0)
    with pytest.raises(ConfigError):
        check_condition_ii(pair, ctx.wrap(np.empty((0, ctx.dim, ctx.dim), dtype=complex)))


def test_pi_projection_fixes_span():
    ctx = ctx_swap(6)
    pair = make_pair(ctx, positive_xi(ctx, seed=25))
    rng = np.random.default_rng(26)
    x = random_crossed_element(ctx, rng)
    assert op_norm(pi_projection(pair, x) - x) <= 1e-12


def test_pi_projection_idempotent():
    ctx = ctx_scalars(5)
    pair = make_pair(ctx, positive_xi(ctx, seed=27))
    rng = np.random.default_rng(28)
    for _ in range(10):
        x = random_window_operator(ctx, rng)
        y = pi_projection(pair, x)
        assert op_norm(pi_projection(pair, y) - y) <= 1e-10


def test_pi_amplification_on_span_is_max_coefficient_norm():
    ctx = ctx_translation(4)
    pair = make_pair(ctx, positive_xi(ctx, seed=29))
    rng = np.random.default_rng(30)
    coeffs = np.stack([ctx.algebra.random_member(rng) for _ in range(4)])
    x = theta_embed(ctx, coeffs)
    want = max(float(np.linalg.norm(coeffs[i], 2)) for i in range(4))
    assert pi_amplification(pair, x) == pytest.approx(want, abs=1e-10)
    assert pi_amplification(pair, ctx.wrap(np.eye(ctx.dim, dtype=complex))) == pytest.approx(1.0)


def test_margin_mode_pair_on_integers():
    # window exactly covers supp(xi) supp(xi)^-1, so chi stays positive
    ctx = make_context(Integers(), radius=2)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    pair = make_pair(ctx, xi)
    ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    assert op_norm(pair.sigma(ident) - ident) == 0.0
    rng = np.random.default_rng(31)
    for t in (-2, -1, 0, 1, 2):
        r = ctx.algebra.random_member(rng)
        x = left_translation(ctx, t) @ psi(ctx, r)
        assert op_norm(pair.sigma(x) - complex(pair.chi(t)) * x) <= 1e-15


def test_margin_pair_needs_positive_eigenvalues_on_window():
    # same vector on a wider window leaves chi = 0 spots, rejected
    ctx = make_context(Integers(), radius=4)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    with pytest.raises(ValueError):
        make_pair(ctx, xi)
    # the raw averaged map still works there and stays unital
    ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    assert op_norm(sigma_xi(ctx, xi, ident) - ident) == 0.0


def test_margin_mode_rejects_wide_support():
    ctx = make_context(Integers(), radius=4)
    with pytest.raises(MarginError):
        make_pair(ctx, L2Vector.normalized({0: 1.0, 3: 1.0, -3: 1.0}))
    with pytest.raises(MarginError):
        make_pair(ctx, L2Vector.normalized({0: 1.0, 9: 1.0}))
    ctx2 = make_context(FreeGroup(2), radius=1)
    with pytest.raises(MarginError):
        make_pair(ctx2, L2Vector.indicator(list(ball(FreeGroup(2), 1))))


def test_margin_mode_free_group_pair(window_samples):
    spec = FreeGroup(2)
    ctx = make_context(spec, radius=2)
    weights = {g: 2.0 ** -spec.word_length(g) for g in ball(spec, 1)}
    pair = make_pair(ctx, L2Vector.normalized(weights))
    assert complex(pair.chi((1,))).real == pytest.approx(0.5)
    ident = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    assert op_norm(pair.sigma(ident) - ident) <= 1e-15
    rep = check_condition_ii(pair, window_samples(ctx, 20))
    assert rep.verdict == "Pass"


def test_sigma_delta_identity_vector():
    # point mass at the identity keeps only the identity-slot coefficient
    ctx = ctx_scalars(3)
    xi = L2Vector({0: 1.0 + 0j})
    rng = np.random.default_rng(32)
    x = random_window_operator(ctx, rng)
    out = sigma_xi(ctx, xi, x)
    want = complex(x.data[0, 0]) * np.eye(3)
    assert np.allclose(out.data, want)



def test_cp_report_json_round_trip():
    rep = CpReport(
        amplification_level=2,
        trials=10,
        min_eigenvalue_seen=-1e-16,
        max_bimodular_defect=0.0,
        max_eigenrelation_defect=float("nan"),
        condition_ii_margin=0.5,
        verdict="Pass",
    )
    d = rep.to_json()
    assert d["max_eigenrelation_defect"] is None
    assert d["condition_ii_margin"] == 0.5
    text = json.dumps(d, sort_keys=True)
    assert "NaN" not in text


def test_make_pair_rejects_a_non_unital_map(monkeypatch):
    ctx = ctx_scalars(3)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    monkeypatch.setattr(sigma, "sigma_xi", lambda ctx, xi, x: 2 * x)
    with pytest.raises(NotUnitalError, match="map is not unital: defect 1.000e"):
        make_pair(ctx, xi)


@pytest.mark.parametrize(
    "ctx",
    [ctx_scalars(3), ctx_swap(4), ctx_translation(5)],
    ids=["C3/scalars", "C4/swap", "C5/translation"],
)
def test_a_non_unital_span_valued_map_is_rejected_off_its_stacks(ctx, monkeypatch):
    """On a finite group sigma(I) - I is a span element, and op_norm reads
    it off the dual blocks of its stack: no dense theta is gathered and no
    2-D eigensolve runs.  A map whose outputs are span elements still
    fails there."""
    real = sigma.sigma_xi
    monkeypatch.setattr(sigma, "sigma_xi", lambda c, xi, x: 2 * real(c, xi, x))
    gathers, ndims = [], []
    real_gather = crossed._theta_gather
    monkeypatch.setattr(
        crossed, "_theta_gather", lambda *a: gathers.append(a) or real_gather(*a)
    )
    real_eig = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *r, **k: ndims.append(np.ndim(a)) or real_eig(a, *r, **k)
    )
    with pytest.raises(NotUnitalError, match="map is not unital: defect 1.000e"):
        make_pair(ctx, positive_xi(ctx, seed=40))
    assert gathers == [] and ndims == [3]


def test_margin_mode_keeps_the_dense_unital_defect(monkeypatch):
    """A window of Z has no dual group: op_norm takes sigma(I) - I densely,
    and a non-unital map raises there too."""
    ctx = make_context(Integers(), radius=2)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    norms = []
    real_norm = sigma.op_norm
    monkeypatch.setattr(sigma, "op_norm", lambda x: norms.append(x) or real_norm(x))
    assert make_pair(ctx, xi).unital_defect <= 1e-12 and len(norms) == 1
    real = sigma.sigma_xi
    monkeypatch.setattr(sigma, "sigma_xi", lambda c, xi, x: 2 * real(c, xi, x))
    with pytest.raises(NotUnitalError, match="map is not unital: defect 1.000e"):
        make_pair(ctx, xi)
    assert len(norms) == 2


def test_non_positive_eigenvalues_raise_a_typed_error():
    ctx = make_context(Integers(), radius=4)
    xi = L2Vector.normalized({0: 1.0, 1: 0.5, 2: 0.25})
    with pytest.raises(NotPositiveError, match="is not strictly positive"):
        make_pair(ctx, xi)


def test_a_pair_builds_its_support_once(monkeypatch):
    built = []
    real = sigma._support

    def spy(ctx, xi):
        if isinstance(xi, L2Vector):
            built.append(xi)
        return real(ctx, xi)

    monkeypatch.setattr(sigma, "_support", spy)
    ctx = ctx_swap(4)
    pair = make_pair(ctx, uniform_xi(ctx))
    rng = np.random.default_rng(20)
    for _ in range(3):
        pair.sigma(random_window_operator(ctx, rng))
    assert len(built) == 1
    assert pair.support is pair.support
    assert not pair.support.slots.flags.writeable
    assert not pair.support.weights.flags.writeable
    x = random_window_operator(ctx, rng)
    assert np.array_equal(pair.sigma(x).data, sigma_xi(ctx, pair.xi, x).data)


def test_direct_callers_still_check_the_margin():
    ctx = make_context(Integers(), radius=4)
    x = ctx.wrap(np.eye(ctx.dim, dtype=complex))
    outside = L2Vector.normalized({0: 1.0, 9: 1.0})
    with pytest.raises(MarginError):
        sigma_xi(ctx, outside, x)
    wide = L2Vector.normalized({0: 1.0, 3: 1.0, -3: 1.0})
    with pytest.raises(MarginError):
        sigma_xi(ctx, wide, x)
    with pytest.raises(MarginError):
        sigma_xi(ctx, sigma._support(ctx, wide), x)


def off_span(x, index=...):
    """x with one entry bumped off the consistency of its translates, in
    the operator at index of a stack, or in every one."""
    bump = np.zeros_like(x.data)
    bump[index][..., 0, -1] = 1.0
    return x.ctx.wrap(x.data + bump)


@pytest.mark.parametrize(
    "call, index, witness",
    [
        (1, ..., "positivity trial 6"),
        (2, (0, 0), "bimodularity trial 0"),
        (2, (0, 1), "bimodularity trial 0"),
        (4, 2, "eigenrelation at g = {}"),
        (0, 4, "positivity trial 4"),
        (2, (1, 1), "bimodularity trial 1"),
    ],
    ids=[
        "positivity", "bimodular-lhs", "bimodular-rhs", "eigenrelation",
        "positivity-mid-block", "bimodular-mid-block",
    ],
)
def test_each_span_check_of_cp_check_names_its_witness(call, index, witness):
    """With trials 12 at amplification 1, the map's calls are the twelve
    positivity trials in two blocks of six, the three bimodular trials
    (each trial's two inputs stacked) in blocks of two and one, and then
    one on the stack of the window translates; one output of a stack off
    the span fails the check that reads it, naming its own trial even in
    the middle of a block."""
    ctx = ctx_swap(4)
    pair = make_pair(ctx, positive_xi(ctx, seed=40))
    calls = []

    def stand_in(x):
        calls.append(x)
        out = pair.sigma(x)
        return off_span(out, index) if len(calls) - 1 == call else out

    witness = witness.format(ctx.group.format_element(ctx.window[2]))
    with pytest.raises(
        NotInCrossedProductError,
        match="^" + re.escape(witness) + ": coefficient at window slot ",
    ):
        cp_check(ctx, stand_in, chi_values=pair.chi_values, amplification=1, trials=12)
    assert [x.lead[0] for x in calls] == [6, 6, 2, 1, ctx.nwin][: call + 1]
    # the calls cover the trials in order, up to the one that fails
    per_trial = [x.lead[1:] for x in calls for _ in range(x.lead[0])]
    assert per_trial == ([(1, 1)] * 12 + [(2,)] * 3 + [()] * ctx.nwin)[: len(per_trial)]
