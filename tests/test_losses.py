"""Loss values against pure scalar-loop oracles, the loss-algebra
identities, and finite-difference gradient checks."""

import math

import numpy as np
import pytest

from dicegrad import losses
from dicegrad.errors import ValidationError
from dicegrad.gradcheck import loss_gradcheck
from dicegrad.losses import LossConfig, compute_loss, one_hot
from dicegrad.tensor_core import Rng


# ---------------------------------------------------------------------------
# scalar-loop oracles: plain Python accumulation, no numpy reductions
# ---------------------------------------------------------------------------

def oracle_ce(p, r, clamp=1e-12):
    ni, nl, nh, nw = p.shape
    total = 0.0
    for i in range(ni):
        for l in range(nl):
            for y in range(nh):
                for x in range(nw):
                    if r[i, l, y, x] == 1.0:
                        total -= math.log(max(p[i, l, y, x], clamp))
    return total / (ni * nh * nw)


def oracle_wce(p, r, clamp=1e-12):
    ni, nl, nh, nw = p.shape
    n = ni * nh * nw
    counts = [0] * nl
    for i in range(ni):
        for l in range(nl):
            for y in range(nh):
                for x in range(nw):
                    if r[i, l, y, x] == 1.0:
                        counts[l] += 1
    total = 0.0
    for i in range(ni):
        for l in range(nl):
            for y in range(nh):
                for x in range(nw):
                    if r[i, l, y, x] == 1.0:
                        total -= math.log(max(p[i, l, y, x], clamp)) * (n / counts[l])
    return total / n


def _pair_sums(p, r, i_range, l_range, eps):
    num, den = eps, eps
    ni, nl, nh, nw = p.shape
    for i in i_range:
        for l in l_range:
            for y in range(nh):
                for x in range(nw):
                    num += 2.0 * p[i, l, y, x] * r[i, l, y, x]
                    den += p[i, l, y, x] + r[i, l, y, x]
    return num, den


def oracle_sd(p, r, eps, mode):
    ni, nl = p.shape[:2]
    total = 0.0
    if mode == "joint":
        for i in range(ni):
            num, den = _pair_sums(p, r, [i], range(nl), eps)
            total += 1.0 - num / den
        return total / ni
    for i in range(ni):
        for l in range(nl):
            num, den = _pair_sums(p, r, [i], [l], eps)
            total += 1.0 - num / den
    return total / (ni * nl)


def oracle_bsd(p, r, eps, mode):
    ni, nl = p.shape[:2]
    if mode == "joint":
        num, den = _pair_sums(p, r, range(ni), range(nl), eps)
        return 1.0 - num / den
    total = 0.0
    for l in range(nl):
        num, den = _pair_sums(p, r, range(ni), [l], eps)
        total += 1.0 - num / den
    return total / nl


def random_pair(seed, shape=(2, 3, 4, 4), softmax=True):
    """Softmax-consistent probabilities (or, without `softmax`, raw uniform
    p whose pixels need not sum to 1) and one-hot ground truth."""
    rng = Rng(seed)
    if softmax:
        logits = rng.normal(shape)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
    else:
        p = rng.uniform(shape)
    labels = rng.child(1).integers(0, shape[1], (shape[0], shape[2], shape[3]))
    r = np.zeros(shape)
    np.put_along_axis(r, labels[:, None], 1.0, axis=1)
    return p, r


def test_one_hot_matches_comparison_oracle():
    labels = Rng(3).integers(0, 4, (2, 5, 6))
    r = one_hot(labels, 4)
    assert r.shape == (2, 4, 5, 6) and r.dtype == np.float64
    want = (labels[:, None] == np.arange(4)[None, :, None, None]).astype(float)
    assert r.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# values against oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ce_matches_oracle(seed):
    p, r = random_pair(seed)
    got = compute_loss(p, r, LossConfig(kind="ce")).value
    assert abs(got - oracle_ce(p, r)) < 1e-12


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_wce_matches_oracle(seed):
    p, r = random_pair(seed)
    got = compute_loss(p, r, LossConfig(kind="wce")).value
    assert abs(got - oracle_wce(p, r)) < 1e-12


@pytest.mark.parametrize("mode", ["joint", "per_label_mean"])
@pytest.mark.parametrize("softmax", [True, False])
@pytest.mark.parametrize("seed", [6, 7])
def test_sd_matches_oracle(mode, softmax, seed):
    p, r = random_pair(seed, softmax=softmax)
    cfg = LossConfig(kind="sd", dice_label_mode=mode)
    got = compute_loss(p, r, cfg).value
    assert abs(got - oracle_sd(p, r, cfg.epsilon, mode)) < 1e-12


@pytest.mark.parametrize("mode", ["joint", "per_label_mean"])
@pytest.mark.parametrize("softmax", [True, False])
@pytest.mark.parametrize("seed", [6, 7])
def test_bsd_matches_oracle(mode, softmax, seed):
    p, r = random_pair(seed, softmax=softmax)
    cfg = LossConfig(kind="bsd", dice_label_mode=mode)
    got = compute_loss(p, r, cfg).value
    assert abs(got - oracle_bsd(p, r, cfg.epsilon, mode)) < 1e-12


def test_sd_joint_hand_case():
    # Two images, two labels, four pixels each, hard predictions.
    # Image 0 is segmented perfectly: its Dice term is 0.  Image 1 has two
    # true foreground pixels; the prediction hits one and raises no false
    # alarms, so 2*sum(p*r) = 2*3 = 6 against denominator 2*4 = 8, giving
    # a term of 1 - 6/8 = 0.25.  The per-image mean is 0.125.
    r = np.zeros((2, 2, 1, 4))
    r[0, 0, 0, :2] = 1.0
    r[0, 1, 0, 2:] = 1.0
    r[1, 1, 0, :2] = 1.0
    r[1, 0, 0, 2:] = 1.0
    p = r.copy()
    p[1] = 0.0
    p[1, 1, 0, 0] = 1.0       # one of the two foreground pixels
    p[1, 0, 0, 1] = 1.0       # the other predicted background
    p[1, 0, 0, 2:] = 1.0
    cfg = LossConfig(kind="sd", dice_label_mode="joint", epsilon=0.0)
    got = compute_loss(p, r, cfg).value
    assert abs(got - 0.125) < 1e-15
    assert abs(oracle_sd(p, r, 0.0, "joint") - 0.125) < 1e-15


def test_ce_perfect_prediction_is_zero():
    _, r = random_pair(11)
    res = compute_loss(r.copy(), r, LossConfig(kind="ce"))
    assert res.value == 0.0


def test_dice_perfect_prediction_near_zero():
    _, r = random_pair(12)
    for kind in ("sd", "bsd"):
        for mode in ("joint", "per_label_mean"):
            cfg = LossConfig(kind=kind, dice_label_mode=mode)
            assert abs(compute_loss(r.copy(), r, cfg).value) < 1e-5


# ---------------------------------------------------------------------------
# loss algebra identities
# ---------------------------------------------------------------------------

def test_identity_single_image_bitwise():
    # with one image there is nothing to pool, so batch pooling must be a
    # no-op: identical bits in both value and gradient, for every config,
    # whether or not p is softmax-consistent
    for p, r in (random_pair(21, shape=(1, 4, 5, 5)),
                 random_pair(864, shape=(1, 3, 4, 4), softmax=False)):
        for mode in ("joint", "per_label_mean"):
            for eps in (1e-5, 1e-9, 0.0):
                sd = compute_loss(p, r, LossConfig(kind="sd", dice_label_mode=mode,
                                                   epsilon=eps))
                bsd = compute_loss(p, r, LossConfig(kind="bsd", dice_label_mode=mode,
                                                    epsilon=eps))
                assert sd.value == bsd.value
                assert np.array_equal(sd.grad_p, bsd.grad_p)


def test_identity_joint_mode_eps_zero():
    # softmax rows and one-hot rows both sum to 1, so every per-image joint
    # denominator equals 2*H*W; with that constant denominator, averaging
    # quotients equals pooling them
    worst = 0.0
    for seed in range(100):
        p, r = random_pair(1000 + seed)
        sd = compute_loss(p, r, LossConfig(kind="sd", dice_label_mode="joint", epsilon=0.0))
        bsd = compute_loss(p, r, LossConfig(kind="bsd", dice_label_mode="joint", epsilon=0.0))
        worst = max(worst, abs(sd.value - bsd.value))
    assert worst < 1e-9


def constructed_gap_batch():
    """Two images where label 1 is entirely absent from image 0.

    Per-image per-label Dice then charges image 0 a near-total miss for
    label 1 (numerator epsilon against a nonzero predicted mass), while
    batch pooling sees the label well-populated.
    """
    shape = (2, 2, 4, 4)
    rng = Rng(77)
    logits = rng.normal(shape)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    r = np.zeros(shape)
    r[0, 0] = 1.0                       # image 0: all background
    r[1, 1, :2] = 1.0                   # image 1: top half foreground
    r[1, 0, 2:] = 1.0
    return p, r


def test_identity_per_label_mean_gap():
    p, r = constructed_gap_batch()
    cfg_sd = LossConfig(kind="sd", dice_label_mode="per_label_mean")
    cfg_bsd = LossConfig(kind="bsd", dice_label_mode="per_label_mean")
    sd = compute_loss(p, r, cfg_sd).value
    bsd = compute_loss(p, r, cfg_bsd).value
    assert abs(sd - bsd) > 1e-3
    # confirm both ends of the gap against the scalar oracle
    assert abs(sd - oracle_sd(p, r, cfg_sd.epsilon, "per_label_mean")) < 1e-12
    assert abs(bsd - oracle_bsd(p, r, cfg_bsd.epsilon, "per_label_mean")) < 1e-12


def test_identity_wce_equals_l_times_ce_on_balanced_batch():
    # every label appears equally often, so every pixel weight is L
    nl = 4
    labels = np.arange(16).reshape(1, 4, 4) % nl
    r = np.zeros((1, nl, 4, 4))
    np.put_along_axis(r, labels[:, None], 1.0, axis=1)
    rng = Rng(31)
    logits = rng.normal(r.shape)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    ce = compute_loss(p, r, LossConfig(kind="ce")).value
    wce = compute_loss(p, r, LossConfig(kind="wce")).value
    assert abs(wce - nl * ce) < 1e-12


@pytest.mark.parametrize("nl", [2, 3, 7])
def test_identity_uniform_prediction_ce_is_log_l(nl):
    shape = (2, nl, 3, 3)
    p = np.full(shape, 1.0 / nl)
    labels = Rng(5).integers(0, nl, (2, 3, 3))
    r = np.zeros(shape)
    np.put_along_axis(r, labels[:, None], 1.0, axis=1)
    got = compute_loss(p, r, LossConfig(kind="ce")).value
    assert abs(got - math.log(nl)) < 1e-9


# ---------------------------------------------------------------------------
# gradients (finite differences are the independent route)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["ce", "wce"])
def test_entropy_gradients(kind):
    err = loss_gradcheck(LossConfig(kind=kind), seed=13)
    assert err < 1e-5, err


@pytest.mark.parametrize("kind", ["sd", "bsd"])
@pytest.mark.parametrize("mode", ["joint", "per_label_mean"])
@pytest.mark.parametrize("absent", [False, True])
def test_dice_gradients(kind, mode, absent):
    cfg = LossConfig(kind=kind, dice_label_mode=mode)
    err = loss_gradcheck(cfg, seed=17, absent_label=absent)
    assert err < 1e-5, err


# ---------------------------------------------------------------------------
# weights and validation
# ---------------------------------------------------------------------------

def test_pixel_weights_range_and_values():
    _, r = random_pair(41)
    w = losses.pixel_weights(r)
    assert w.shape == (r.shape[0], 1, r.shape[2], r.shape[3])
    assert np.all(w > 0) and np.all(w <= 1)
    counts = losses.label_counts(r)
    n = r.shape[0] * r.shape[2] * r.shape[3]
    assert float(counts.sum()) == n
    # spot-check one pixel: weight equals its label's batch frequency
    lab = int(np.argmax(r[0, :, 0, 0]))
    assert w[0, 0, 0, 0] == counts[lab] / n


def test_validation_errors():
    p, r = random_pair(43)
    with pytest.raises(ValidationError):
        compute_loss(p[:, :2], r, LossConfig(kind="ce"))
    with pytest.raises(ValidationError):
        compute_loss(p, p, LossConfig(kind="ce"))           # r not one-hot
    with pytest.raises(ValidationError):
        compute_loss(p[0], r[0], LossConfig(kind="ce"))     # rank 3
    with pytest.raises(ValidationError):
        LossConfig(kind="dice")
    for eps in (-1e-9, math.inf, math.nan):
        with pytest.raises(ValidationError):
            LossConfig(epsilon=eps)
    with pytest.raises(ValidationError):
        LossConfig(dice_label_mode="mean")


def test_clamp_floors_log_argument():
    shape = (1, 2, 2, 2)
    p = np.zeros(shape)
    p[:, 1] = 1.0
    r = np.zeros(shape)
    r[:, 0] = 1.0                        # true label has probability zero
    res = compute_loss(p, r, LossConfig(kind="ce"))
    assert np.isfinite(res.value)
    assert abs(res.value - (-math.log(1e-12))) < 1e-6
    assert np.all(res.grad_p[:, 0] == 0.0)   # clamped entries get no gradient
