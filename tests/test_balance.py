import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from potential_reference import LoadState, PotentialOverflowError, potential, trajectory_from_rows
from scalar_reference import run_sequential_reference

from twochoice import balance
from twochoice.balance import (
    EXPONENTIAL,
    UNIT,
    default_params,
    one_plus_beta_probabilities,
    potential_exponent,
    run_sequential,
    trajectory_from_balls,
)
from twochoice.rng import WordStream, make_rng


# ---------------------------------------------------------------------------
# probability vectors
# ---------------------------------------------------------------------------

def test_one_plus_beta_uniform_when_beta_zero():
    v = one_plus_beta_probabilities(4, 0.0)
    assert all(abs(p - 0.25) < 1e-15 for p in v)


def test_one_plus_beta_m2_beta1():
    v = one_plus_beta_probabilities(2, 1.0)
    assert abs(v[0] - 0.75) < 1e-15
    assert abs(v[1] - 0.25) < 1e-15


def test_one_plus_beta_rejects_bad_args():
    with pytest.raises(ValueError):
        one_plus_beta_probabilities(0, 0.5)
    with pytest.raises(ValueError):
        one_plus_beta_probabilities(4, 1.5)
    with pytest.raises(ValueError):
        one_plus_beta_probabilities(4, -0.1)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("m", [1, 2, 3, 17, 64, 257, 1024, 10_000])
def test_one_plus_beta_sums_to_one(m, beta):
    v = one_plus_beta_probabilities(m, beta)
    assert abs(math.fsum(v) - 1.0) <= 1e-12
    assert all(p >= 0.0 for p in v)


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("m", [2, 17, 64, 256, 1024])
def test_one_plus_beta_prefix_sum_formula(m, beta):
    # prefix sums match (k/m)(1 + b - (k/m) b) within 2/m^2
    v = one_plus_beta_probabilities(m, beta)
    prefixes = np.cumsum(v)
    k = np.arange(1, m + 1, dtype=np.float64)
    closed = (k / m) * (1.0 + beta - (k / m) * beta)
    assert np.max(np.abs(prefixes - closed)) <= 2.0 / (m * m)


def _pair_rank_vector(m: int, r: float) -> list[Fraction]:
    """Exact rank probabilities of a step over the m^2 equally likely
    ordered pairs of ranks: it takes the lesser rank with probability r and
    the greater with 1 - r, and a pair of equal ranks surely."""
    r = Fraction(r)
    probs = [Fraction(0)] * m
    for i in range(m):
        for j in range(m):
            if i == j:
                probs[i] += 1
            else:
                probs[min(i, j)] += r
                probs[max(i, j)] += 1 - r
    return [p / (m * m) for p in probs]


@pytest.mark.parametrize("m", [1, 2, 3, 64])
@pytest.mark.parametrize("r", [0.5, 0.6, 0.75, 1.0])
def test_pair_step_is_one_plus_beta_at_2r_minus_1(m, r):
    # a step that is correct with probability r is the (1+beta) process at
    # beta = 2r - 1, so a mixture of good and bad steps is one such vector
    closed = one_plus_beta_probabilities(m, 2 * r - 1)
    exact = _pair_rank_vector(m, r)
    assert max(abs(c - float(e)) for c, e in zip(closed, exact)) <= 1e-15


# ---------------------------------------------------------------------------
# load vector and weights
# ---------------------------------------------------------------------------

def test_load_vector_centered_sums_to_zero():
    # the potential oracle centers loads on its mean: the y_j sum to zero
    rng = make_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 50))
        weights = rng.exponential(3.0, size=m).tolist()
        mu = potential(weights, 1e-3).mean_load
        tol = 1e-9 * m * max(abs(w) for w in weights)
        assert abs(math.fsum(w - mu for w in weights)) <= max(tol, 1e-12)


def test_unit_conservation_is_exact():
    state = LoadState(5, default_params(1.0, UNIT), unit=True)
    rng = make_rng(3)
    for k in range(1, 200):
        state.add(int(rng.integers(0, 5)), 1)
        assert state.total == k  # integer, no tolerance
        assert sum(state.weights) == k


def test_weight_unit_samples_one():
    _, loads = run_sequential(4, 4, 1.0, weight=UNIT, rng=0)
    assert sum(loads) == 4 and all(type(x) is int for x in loads)


def test_weight_exponential_mean_and_positivity():
    traj, _ = run_sequential(8, 100_000, 1.0, weight=EXPONENTIAL, rng=5, snapshot_every=1)
    assert np.all(np.diff(traj.mean_load) > 0)   # every ball weighs more than 0
    assert abs(traj.mean_load[-1] * 8 / 100_000 - 1.0) <= 0.02


def test_weight_rejects_bad_kind():
    with pytest.raises(ValueError, match="gaussian"):
        run_sequential(4, 10, 1.0, weight="gaussian", rng=0)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_params_exponent_derivation():
    # a = min(1/2, (g/6) / (6 * moment_bound))
    assert potential_exponent(36.0) == 0.5
    assert abs(potential_exponent(0.36, moment_bound=8.0) - 0.06 / 48.0) < 1e-18
    for g in (0.0, -0.1, 5e-324):  # the last underflows to a = 0
        with pytest.raises(ValueError):
            potential_exponent(g)


def test_potential_params_good_margin_coupling():
    # a (1+beta) run's good margin is beta/2, and 1/2 at beta = 0
    # and the weights' second-moment bound is 1 for unit balls, 8 otherwise
    assert default_params(0.6, UNIT) == potential_exponent(0.3)
    assert default_params(0.6, EXPONENTIAL) == potential_exponent(0.3, moment_bound=8.0)
    assert default_params(0.0, UNIT) == potential_exponent(0.5)
    assert default_params(0.0, EXPONENTIAL) == potential_exponent(0.5, moment_bound=8.0)
    with pytest.raises(ValueError):
        default_params(5e-324, UNIT)


def test_potential_equal_weights():
    for m in (1, 2, 17):
        snap = potential([4.0] * m, 1.0 / 6.0)
        assert snap.phi == pytest.approx(m)
        assert snap.psi == pytest.approx(m)
        assert snap.gamma == pytest.approx(2 * m)
        assert snap.gap == 0


def test_potential_two_bins_alpha_one():
    # x = (1, -1), alpha = 1: gamma = 2 (e + 1/e)
    snap = potential([1.0, -1.0], 1.0)
    expected = 2.0 * (math.e + 1.0 / math.e)
    assert snap.gamma == pytest.approx(expected, abs=1e-12)
    assert snap.gamma == pytest.approx(6.172322539260975, abs=1e-12)


def test_potential_gamma_at_least_2m():
    rng = make_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 40))
        snap = potential(rng.normal(0, 5, size=m).tolist(), 1.0 / 12.0)
        assert snap.gamma >= 2 * m - 1e-9 * m
        assert snap.phi >= m * (1 - 1e-12)
        assert snap.psi >= m * (1 - 1e-12)
        assert snap.gap >= 0


def test_potential_overflow_raises():
    with pytest.raises(PotentialOverflowError):
        potential([0.0, 2000.0], 1.0)


def test_load_state_matches_fresh_potential():
    exponent = default_params(1.0, UNIT)
    state = LoadState(16, exponent, unit=True)
    rng = make_rng(23)
    for k in range(1, 20_001):
        i = int(rng.integers(0, 16))
        state.add(i, 1)
        if k % 4000 == 0:
            row = state.snapshot_row(k)
            fresh = potential(state.weights, exponent, k)
            assert row[1] == pytest.approx(fresh.phi, rel=1e-9)
            assert row[2] == pytest.approx(fresh.psi, rel=1e-9)
            assert row[4] == fresh.gap
            assert row[5] == fresh.max_load
            assert row[6] == fresh.min_load


CHUNK = balance._CHUNK_ROWS


# m = 1 and m = 3 at the exponents of the first two examples move the base
# on the last ball of every chunk
# unit loads sort as uint8 up to 255, then uint16 and past 65 535 uint32
# (which numpy does not radix-sort): the fifth to seventh examples cross each
# width within and between chunks; the eighth passes int32 columns, as
# adversary.simulate does
# the least load comes from the carried count of bins at it at m = 1e5 (the
# ninth example); in five-ball chunks on 16 bins the last bin at it often
# gets its ball mid-chunk while idle bins sit higher, so the idle bins are
# scanned (the tenth); a zero weight leaves a bin that got a ball at the
# least load (the last)
@settings(max_examples=40, deadline=None)
@given(bins=st.integers(1, 1024), unit=st.booleans(), exponent=st.floats(1e-6, 0.5),
       every=st.integers(1, 5000), balls=st.integers(0, 4 * CHUNK),
       cuts=st.lists(st.integers(0, 4 * CHUNK), max_size=4), seed=st.integers(0, 2**32),
       index=st.sampled_from([np.int64, np.int32]),
       zeros=st.lists(st.integers(0, 4 * CHUNK), max_size=4))
@example(bins=1, unit=True, exponent=1 / (CHUNK - 0.5), every=1, balls=3 * CHUNK, cuts=[],
         seed=1, index=np.int64, zeros=[])
@example(bins=3, unit=True, exponent=3 / (CHUNK - 0.5), every=7, balls=2 * CHUNK + 1,
         cuts=[], seed=2, index=np.int64, zeros=[])
@example(bins=1, unit=False, exponent=0.5, every=1, balls=2 * CHUNK + 5, cuts=[1, 2, 700],
         seed=3, index=np.int64, zeros=[])
@example(bins=1024, unit=False, exponent=0.5, every=5000, balls=4 * CHUNK, cuts=[], seed=4,
         index=np.int64, zeros=[])
@example(bins=1, unit=True, exponent=1e-3, every=1, balls=300, cuts=[255, 256], seed=5,
         index=np.int64, zeros=[])
@example(bins=2, unit=True, exponent=0.5, every=3, balls=4 * CHUNK, cuts=[509, 513], seed=6,
         index=np.int64, zeros=[])
@example(bins=1, unit=True, exponent=1e-6, every=997, balls=64 * CHUNK + 7,
         cuts=[65_535, 65_536], seed=7, index=np.int64, zeros=[])
@example(bins=300, unit=True, exponent=0.25, every=1, balls=4 * CHUNK, cuts=[100], seed=8,
         index=np.int32, zeros=[])
@example(bins=100_000, unit=True, exponent=0.5, every=1, balls=4 * CHUNK, cuts=[], seed=9,
         index=np.int64, zeros=[])
@example(bins=16, unit=True, exponent=0.5, every=1, balls=600, cuts=list(range(5, 600, 5)),
         seed=10, index=np.int64, zeros=[])
@example(bins=4, unit=False, exponent=0.5, every=1, balls=2 * CHUNK, cuts=[2, 5, 9],
         seed=11, index=np.int64, zeros=[0, 1, 6, 700])
def test_trajectory_from_balls_matches_load_state(bins, unit, exponent, every, balls, cuts,
                                                  seed, index, zeros):
    # the column pass against the per-ball state it replaced, compared as
    # bits, over chunks of the callers' size cut further at random points;
    # weighted balls at the `zeros` indices weigh 0.0
    rng = make_rng(seed)
    updated = rng.integers(0, bins, size=balls).astype(index)
    weights = None if unit else rng.exponential(size=balls)
    if not unit:
        weights[[z for z in zeros if z < balls]] = 0.0
    state = LoadState(bins, exponent, unit=unit)
    post, rows = [], []
    for k, (b, w) in enumerate(zip(updated.tolist(),
                                   [1] * balls if unit else weights.tolist()), 1):
        state.add(b, w)
        post.append(state.weights[b])
        if k % every == 0 or k == balls:
            rows.append(state.snapshot_row(k))
    post = np.array(post, dtype=index if unit else np.float64)
    edges = sorted({*range(0, balls, CHUNK), *(c for c in cuts if c < balls), balls})
    chunks = [(updated[lo:hi], post[lo:hi], None if unit else weights[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    got = trajectory_from_balls(bins, exponent, balls, every, chunks)
    want = trajectory_from_rows(rows)
    for name in vars(want):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name).view(np.uint64),
                              getattr(want, name).view(np.uint64)), name


# ---------------------------------------------------------------------------
# sequential runs
# ---------------------------------------------------------------------------

def test_run_sequential_zero_steps():
    traj, loads = run_sequential(4, 0, 1.0, rng=0)
    assert len(traj) == 0
    assert loads == [0, 0, 0, 0]


def test_run_sequential_conservation():
    _, loads = run_sequential(16, 5000, 0.7, rng=9, snapshot_every=500)
    assert sum(loads) == 5000


def test_run_sequential_determinism():
    t1, l1 = run_sequential(32, 20_000, 1.0, rng=77, snapshot_every=1000)
    t2, l2 = run_sequential(32, 20_000, 1.0, rng=77, snapshot_every=1000)
    assert l1 == l2
    assert np.array_equal(t1.gamma, t2.gamma)
    assert np.array_equal(t1.gap, t2.gap)
    t3, _ = run_sequential(32, 20_000, 1.0, rng=78, snapshot_every=1000)
    assert not np.array_equal(t1.gap, t3.gap) or not np.array_equal(t1.gamma, t3.gamma)


def test_run_sequential_snapshot_cadence():
    every_100 = [100 * k for k in range(1, 11)]
    for steps, beta, want in [(1050, 1.0, every_100 + [1050]),
                              (1000, 1.0, every_100),        # an exact multiple
                              (50, 1.0, [50]),               # fewer steps than the cadence
                              (1050, 0.0, every_100 + [1050])]:
        traj, loads = run_sequential(4, steps, beta, rng=1, snapshot_every=100)
        assert traj.steps.dtype == np.int64
        assert list(traj.steps) == want
        assert traj.max_load[-1] == max(loads) and traj.min_load[-1] == min(loads)


# below about 1.5e-321 default_params' exponent underflows to 0 and raises
@settings(max_examples=40, deadline=None)
@given(beta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-12, 1.0, exclude_max=True)),
       bins=st.sampled_from([1, 2, 3, 64, 100]),
       weight=st.sampled_from([UNIT, EXPONENTIAL]),
       steps=st.integers(0, 3000),
       snapshot_every=st.sampled_from([1, 7, 100, 1000, 5000]),
       seed=st.integers(0, 2**32))
@example(beta=0.5, bins=64, weight=UNIT, steps=4 * WordStream.BLOCK,
         snapshot_every=1000, seed=3)
@example(beta=1e-9, bins=3, weight=EXPONENTIAL,
         steps=2 * WordStream.BLOCK + 1, snapshot_every=7, seed=4)
@example(beta=1 - 1e-9, bins=100, weight=UNIT,
         steps=2 * WordStream.BLOCK, snapshot_every=1, seed=5)
@example(beta=1.0, bins=64, weight=UNIT, steps=3 * CHUNK + 5, snapshot_every=7, seed=6)
@example(beta=1.0, bins=1, weight=UNIT, steps=CHUNK + 1, snapshot_every=1, seed=7)
@example(beta=0.0, bins=64, weight=UNIT, steps=3 * CHUNK + 5, snapshot_every=100, seed=8)
@example(beta=1.0, bins=64, weight=EXPONENTIAL, steps=CHUNK + 1, snapshot_every=7, seed=9)
def test_run_sequential_beta_matches_scalar_reference(beta, bins, weight, steps,
                                                      snapshot_every, seed):
    got_traj, got_loads = run_sequential(bins, steps, beta, weight=weight, rng=seed,
                                         snapshot_every=snapshot_every)
    want_traj, want_loads = run_sequential_reference(bins, steps, beta, weight, seed,
                                                     snapshot_every)
    assert got_loads == want_loads
    for name in vars(want_traj):
        assert np.array_equal(getattr(got_traj, name), getattr(want_traj, name)), name


# frozen per-seed gaps: the process is its own oracle (values observed once
# and pinned; the <= 8 bound is the stated quality target)
TWO_CHOICE_GAP_1E5 = {1: 7, 2: 8, 3: 8}


@pytest.mark.parametrize("seed,frozen_gap", sorted(TWO_CHOICE_GAP_1E5.items()))
def test_two_choice_gap_frozen_1e5(seed, frozen_gap):
    traj, _ = run_sequential(64, 100_000, 1.0, rng=seed, snapshot_every=1000)
    observed = int(traj.gap.max())
    assert observed == frozen_gap
    assert observed <= 8


def test_two_choice_gamma_stays_linear():
    traj, _ = run_sequential(64, 200_000, 1.0, rng=1, snapshot_every=2000)
    assert traj.gamma.max() <= 40 * 64


def test_uniform_insertion_diverges():
    traj, _ = run_sequential(64, 300_000, 0.0, rng=1, snapshot_every=2000)
    assert traj.gap.max() > 4 * math.log2(64)


def test_trajectory_csv_roundtrip(tmp_path):
    traj, _ = run_sequential(8, 1000, 1.0, rng=4, snapshot_every=100)
    path = tmp_path / "traj.csv"
    traj.write_csv(path, header_comments=["bins = 8"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# bins = 8"
    assert lines[1] == "step,phi,psi,gamma,gap,max,min,mean"
    assert len(lines) == 2 + len(traj)


def test_exponential_run_total_tracks_mean():
    _, loads = run_sequential(
        32, 50_000, 1.0, weight=EXPONENTIAL, rng=13, snapshot_every=5000
    )
    assert abs(sum(loads) / 50_000 - 1.0) < 0.02


# sha256 (first 16 hex digits) of every trajectory column and the final loads
# of exponential-weight runs on 64 bins with 3 000 balls, over seeds 1 and 2
# and snapshot_every 1 and 1 000, in that nesting order: pins the weighted
# path at every beta kind, beside the scalar oracle
EXPONENTIAL_DIGESTS = {0.0: "edbd2dfd6f96c6c9", 0.5: "c2770b8f50d8156c", 1.0: "ebea2b9c51da461f"}


@pytest.mark.parametrize("beta", sorted(EXPONENTIAL_DIGESTS))
def test_exponential_run_is_pinned(beta):
    digest = hashlib.sha256()
    for seed in (1, 2):
        for every in (1, 1000):
            traj, loads = run_sequential(64, 3000, beta, weight=EXPONENTIAL,
                                         rng=seed, snapshot_every=every)
            for name in vars(traj):
                digest.update(getattr(traj, name).tobytes())
            digest.update(np.array(loads).tobytes())
    assert digest.hexdigest()[:16] == EXPONENTIAL_DIGESTS[beta]
