"""Acceptance battery: ten numbered end-to-end criteria.

Each test exercises one headline claim of the package — exact values on
structured inputs, statistical convergence on random sofic approximations,
agreement with the independent oracles, the rank/kernel duality invariant,
value snapping, and the sparse-rank performance floor.  Every test collects
its violations into a list, prints exactly one ``criterion NN ...: PASS/FAIL``
line, and then asserts.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines while they stream.

Tests must run in definition order: criteria 8 and 9 audit registries filled
by criteria 1-7.
"""

import random
from fractions import Fraction
from time import perf_counter

from soficlen.groups import (
    ball,
    finite_group,
    free_group,
    integer_line,
    lattice,
)
from soficlen.groupring import (
    INTEGERS,
    RATIONALS,
    GroupRingElement,
    GroupRingMatrix,
)
from soficlen.meanlength import (
    RelativePair,
    SeriesPoint,
    assemble_estimate,
    build_sigma_bar,
    check_addition,
    derive_rank_seed,
    estimate_mean_length,
    estimate_vrk_fp,
    principal_rank_point,
    relative_mean_length_at,
    snap_to_H,
)
from soficlen.oracles import FolnerBox, finite_group_vrk, folner_mean_length, laurent_rank
from soficlen.exactla import rank_mod_p
from soficlen.sofic import (
    SoficSchedule,
    build_cyclic,
    build_random_free,
    build_torus,
    build_translation,
)

from group_tables import cyclic_table, symmetric_table

Z = integer_line()
L2 = lattice(2)
F2 = free_group(2)
Z2_GROUP = finite_group(cyclic_table(2))
Z6_GROUP = finite_group(cyclic_table(6))
S3_GROUP = finite_group(symmetric_table(3))

# Filled by criteria 1-7, audited by criteria 8 and 9.
DUALITY_REGISTRY = []  # (label, d, n, rank, kernel)
HEADLINE_REGISTRY = []  # (label, value, desc)


def _finish(num, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num:02d} {name}: {status}", flush=True)
    assert not problems, "; ".join(problems)


def _difference(desc, ring, gen):
    return GroupRingElement.from_terms(
        desc, ring, [(gen, 1), (desc.identity(), -1)])


def _register_principal(label, n, pp):
    DUALITY_REGISTRY.append((label, pp.d, n, pp.rank, pp.kernel))


def test_criterion_01_free_module_exactness():
    """A = B = standard basis of the rank-n free module gives exactly n."""
    problems = []
    cases = [
        (Z, [build_cyclic(4), build_cyclic(9)]),
        (L2, [build_torus((2, 2)), build_torus((3, 3))]),
        (Z6_GROUP, [build_translation(Z6_GROUP)]),
        (S3_GROUP, [build_translation(S3_GROUP)]),
    ]
    start = perf_counter()
    for desc, sigmas in cases:
        window = tuple(ball(desc, 1))
        for n in (1, 2, 3):
            basis = GroupRingMatrix.identity(desc, INTEGERS, n)
            pair = RelativePair(basis, basis, window)
            for sigma in sigmas:
                value = relative_mean_length_at(pair, sigma)
                if value != n:
                    problems.append(
                        f"{desc.family} n={n} d={sigma.d}: got {value}")
    elapsed = perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s (bound 5s)")
    for desc, sigmas in cases:
        for n in (1, 2, 3):
            ident = GroupRingMatrix.identity(desc, INTEGERS, n)
            for sigma in sigmas:
                pp = principal_rank_point(ident, sigma)
                _register_principal(f"exactness {desc.family} n={n}", n, pp)
    _finish(1, "free-module exactness", problems)


def test_criterion_02_circulant_values():
    """f = [[t-1]] over Z[Z]: mrk series (d-1)/d, vrk series 1/d, exactly."""
    problems = []
    gen = Z.element(1)
    diff = _difference(Z, INTEGERS, gen)
    f = GroupRingMatrix(Z, INTEGERS, [[diff]])
    b = GroupRingMatrix.identity(Z, INTEGERS, 1)
    ds = (100, 1000, 5000)
    start = perf_counter()
    mrk_est = estimate_mean_length(RelativePair(f, b, [gen]), SoficSchedule(ds))
    vrk_points = []
    for d in ds:
        pp = principal_rank_point(
            f, build_cyclic(d), rank_seed=derive_rank_seed("vrk", d, 0))
        vrk_points.append(SeriesPoint(d, 0, pp.vrk))
        _register_principal(f"circulant d={d}", 1, pp)
    vrk_est = assemble_estimate("vrk", vrk_points, Z)
    elapsed = perf_counter() - start
    for point, d in zip(mrk_est.series, ds):
        if point.value != Fraction(d - 1, d):
            problems.append(f"mrk at d={d}: {point.value}")
    for point, d in zip(vrk_est.series, ds):
        if point.value != Fraction(1, d):
            problems.append(f"vrk at d={d}: {point.value}")
    if vrk_est.headline > Fraction(2, 10**4):
        problems.append(f"vrk headline {vrk_est.headline} > 2e-4")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s (bound 10s)")
    HEADLINE_REGISTRY.append(("circulant mrk", mrk_est.headline, Z))
    HEADLINE_REGISTRY.append(("circulant vrk", vrk_est.headline, Z))
    _finish(2, "circulant exact values", problems)


def test_criterion_03_free_group_difference():
    """f = [[s-1]] over Z[F2] at d=4000: mrk near 1, vrk near 0, small spread."""
    problems = []
    d = 4000
    tol = Fraction(2, 100)
    f = GroupRingMatrix(F2, INTEGERS,
                        [[_difference(F2, INTEGERS, F2.element((1,)))]])
    mrk_points = []
    vrk_points = []
    start = perf_counter()
    for seed in range(1, 6):
        sigma = build_random_free(2, d, seed)
        pp = principal_rank_point(
            f, sigma, seed=seed, rank_seed=derive_rank_seed("vrk", d, seed))
        mrk_points.append(SeriesPoint(d, seed, pp.mrk))
        vrk_points.append(SeriesPoint(d, seed, pp.vrk))
        _register_principal(f"free-group seed={seed}", 1, pp)
    elapsed = perf_counter() - start
    mrk_est = assemble_estimate("mrk", mrk_points, F2)
    vrk_est = assemble_estimate("vrk", vrk_points, F2)
    if abs(mrk_est.headline - 1) > tol:
        problems.append(f"mrk headline {float(mrk_est.headline):.4f}")
    if abs(vrk_est.headline) > tol:
        problems.append(f"vrk headline {float(vrk_est.headline):.4f}")
    if mrk_est.spread > tol or vrk_est.spread > tol:
        problems.append(
            f"spread mrk={float(mrk_est.spread):.4f} "
            f"vrk={float(vrk_est.spread):.4f}")
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s (bound 60s)")
    HEADLINE_REGISTRY.append(("free-group mrk", mrk_est.headline, F2))
    HEADLINE_REGISTRY.append(("free-group vrk", vrk_est.headline, F2))
    _finish(3, "free-group difference generator", problems)


def test_criterion_04_addition_formula():
    """Submodule + quotient values against the direct evaluation."""
    problems = []
    f_int = GroupRingMatrix(Z, INTEGERS,
                            [[_difference(Z, INTEGERS, Z.element(1))]])
    report_int = check_addition(f_int, SoficSchedule((2000,)))
    if report_int.max_residual_routes != 0:
        problems.append(
            f"integer route residual {report_int.max_residual_routes}")
    if report_int.max_residual_addition != 0:
        problems.append(
            f"integer addition residual {report_int.max_residual_addition}")
    s_minus = _difference(F2, INTEGERS, F2.element((1,)))
    t_minus = _difference(F2, INTEGERS, F2.element((2,)))
    f_free = GroupRingMatrix(F2, INTEGERS, [[s_minus], [t_minus]])
    tol = Fraction(2, 100)
    report_free = check_addition(f_free, SoficSchedule((4000,), seeds=(1,)))
    if report_free.max_residual_routes > tol:
        problems.append(
            f"free route residual {float(report_free.max_residual_routes):.4f}")
    if report_free.max_residual_addition > tol:
        problems.append(
            f"free addition residual "
            f"{float(report_free.max_residual_addition):.4f}")
    for point in report_free.points:
        if abs(point.submodule - 1) > tol:
            problems.append(f"submodule value {float(point.submodule):.4f}")
        if abs(point.quotient) > tol:
            problems.append(f"quotient value {float(point.quotient):.4f}")
    last = report_free.points[-1]
    HEADLINE_REGISTRY.append(("addition submodule", last.submodule, F2))
    HEADLINE_REGISTRY.append(("addition quotient", last.quotient, F2))
    _finish(4, "addition formula", problems)


def test_criterion_05_amenable_coincidence():
    """Sofic headline vs Folner average for random pairs inside (Z[Z])^2."""
    problems = []
    rng = random.Random(505)
    support = ball(Z, 2)
    basis2 = GroupRingMatrix.identity(Z, INTEGERS, 2)
    tol = Fraction(2, 100)
    for trial in range(10):
        vectors = []
        for _ in range(rng.randrange(1, 3)):
            comps = []
            for _ in range(2):
                terms = [(rng.choice(support), rng.randrange(-3, 4))
                         for _ in range(rng.randrange(1, 4))]
                comps.append(GroupRingElement.from_terms(Z, INTEGERS, terms))
            vectors.append(comps)
        A = GroupRingMatrix(Z, INTEGERS, vectors)
        est = estimate_mean_length(
            RelativePair(A, basis2, ball(Z, 2)),
            SoficSchedule((2000,)), snap_tol=None)
        oracle = folner_mean_length(A, [FolnerBox((200,))])[-1]
        gap = abs(est.headline - oracle)
        if gap > tol:
            problems.append(
                f"trial {trial}: sofic {float(est.headline):.4f} vs "
                f"folner {float(oracle):.4f}")
        HEADLINE_REGISTRY.append(
            (f"amenable trial {trial}", est.headline, Z))
    _finish(5, "amenable coincidence", problems)


def test_criterion_06_lattice_oracle_agreement():
    """Torus-model vrk vs the function-field rank for random 2x2 inputs."""
    problems = []
    rng = random.Random(606)
    support = ball(L2, 1)
    sigma = build_torus((64, 64))
    tol = Fraction(1, 100)
    for trial in range(5):
        entries = []
        for _ in range(2):
            row = []
            for _ in range(2):
                terms = [(rng.choice(support), rng.randrange(-3, 4))
                         for _ in range(rng.randrange(1, 4))]
                row.append(GroupRingElement.from_terms(L2, INTEGERS, terms))
            entries.append(row)
        f = GroupRingMatrix(L2, INTEGERS, entries)
        pp = principal_rank_point(
            f, sigma, rank_seed=derive_rank_seed("vrk", sigma.d, 0))
        oracle = laurent_rank(f, seed=trial)
        gap = abs(pp.vrk - (2 - oracle.rank))
        if gap > tol:
            problems.append(
                f"trial {trial}: vrk {float(pp.vrk):.4f} vs "
                f"oracle {2 - oracle.rank}")
        _register_principal(f"lattice trial {trial}", 2, pp)
        HEADLINE_REGISTRY.append((f"lattice trial {trial}", pp.vrk, L2))
    _finish(6, "lattice oracle agreement", problems)


def test_criterion_07_finite_group_exactness():
    """Z/2 with f = [[1+t]]: translation-model vrk equals the direct value."""
    problems = []
    one_plus_t = GroupRingElement.from_terms(
        Z2_GROUP, RATIONALS,
        [(Z2_GROUP.element(0), 1), (Z2_GROUP.element(1), 1)])
    f = GroupRingMatrix(Z2_GROUP, RATIONALS, [[one_plus_t]])
    # make_sigma builds the translation model at d = |Z/2| = 2
    est = estimate_vrk_fp(f, SoficSchedule((2,)))
    direct = finite_group_vrk(f)
    if est.headline != direct:
        problems.append(f"estimate {est.headline} vs direct {direct}")
    if direct != Fraction(1, 2):
        problems.append(f"direct value {direct} != 1/2")
    pp = principal_rank_point(f, build_translation(Z2_GROUP))
    _register_principal("finite group", 1, pp)
    HEADLINE_REGISTRY.append(("finite group vrk", est.headline, Z2_GROUP))
    _finish(7, "finite-group exactness", problems)


def test_criterion_08_rank_kernel_duality():
    """kernel + rank = d*n on every registered principal evaluation."""
    problems = []
    if len(DUALITY_REGISTRY) < 20:
        problems.append(
            f"only {len(DUALITY_REGISTRY)} evaluations registered")
    for label, d, n, rank, kernel in DUALITY_REGISTRY:
        if rank + kernel != d * n:
            problems.append(
                f"{label}: rank {rank} + kernel {kernel} != {d * n}")
    _finish(8, "rank/kernel duality", problems)


def test_criterion_09_headline_snapping():
    """Every registered headline snaps to the candidate value set."""
    problems = []
    if len(HEADLINE_REGISTRY) < 20:
        problems.append(
            f"only {len(HEADLINE_REGISTRY)} headlines registered")
    for label, value, desc in HEADLINE_REGISTRY:
        if snap_to_H(value, desc, 0.05) is None:
            problems.append(f"{label}: {float(value):.4f} does not snap")
    _finish(9, "headline snapping", problems)


def test_criterion_10_sparse_rank_performance():
    """Large free-group model matrix: fast, deterministic exact rank."""
    problems = []
    d = 20000
    s_minus = _difference(F2, INTEGERS, F2.element((1,)))
    t_minus = _difference(F2, INTEGERS, F2.element((2,)))
    f = GroupRingMatrix(F2, INTEGERS, [[s_minus], [t_minus]])
    sigma = build_random_free(2, d, 1)
    bar = build_sigma_bar(f, sigma)
    nnz = len(bar.val)
    if not 70000 <= nnz <= 90000:
        problems.append(f"unexpected nonzero count {nnz}")
    p = 2**31 - 1
    ranks = []
    for _ in range(3):
        start = perf_counter()
        ranks.append(rank_mod_p(bar, p).rank)
        elapsed = perf_counter() - start
        if elapsed >= 10.0:
            problems.append(f"elimination took {elapsed:.2f}s (bound 10s)")
    if len(set(ranks)) != 1:
        problems.append(f"non-deterministic ranks {ranks}")
    _finish(10, "sparse rank performance", problems)
