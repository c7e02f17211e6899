"""The committed study replays from the code.

The dataset is regenerated from `results/compare/effective_config.cfg`.
Then 8 training steps of each loss at seed 0 must reproduce the first 9
lines of that cell's committed `curve.csv`, and 3 `bsd` steps must
reproduce a pinned sha256 of the model and Adam state, which sees rounding
changes that a loss prefix barely shows.  A change to the arithmetic fails
here, and then `results/compare` has to be re-run.

Bitwise equality holds only in the domain the study was run in: the same
numpy and OpenBLAS builds and the same OpenBLAS core (README,
Determinism).  Elsewhere the curves are compared to a relative tolerance
and the digest is skipped.
"""

import ctypes
import hashlib
from pathlib import Path

import numpy as np
import pytest

import dicegrad
from dicegrad import cli, config, model, training
from dicegrad.optim import AdamState
from dicegrad.tensor_core import Rng

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "compare"
STUDY_CONFIG = RESULTS_DIR / "effective_config.cfg"

# (numpy version, OpenBLAS version, OpenBLAS core) of the committed study
STUDY_DOMAIN = ("2.4.6", "0.3.31.188.0", "SkylakeX")
# model.state_table(), then Adam's m and v in param_table order, after 3
# steps of the committed bsd_s0 cell
STATE_SHA256 = "c62403110fd252db63848d5219b740d7983fb7462e2a2ea24c23843da657f906"
CURVE_RTOL = 1e-9


def blas_domain() -> tuple:
    """The running (numpy, OpenBLAS, core) triple, from the OpenBLAS that
    importing dicegrad pins to one thread."""
    lib = dicegrad._bundled_openblas()
    if lib is None:
        return np.__version__, None, None
    config_text, core = (getattr(lib, f"scipy_openblas_get_{what}64_") for what in
                         ("config", "corename"))
    config_text.argtypes = core.argtypes = []
    config_text.restype = core.restype = ctypes.c_char_p
    # "OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH ..."
    return np.__version__, config_text().decode().split()[1], core().decode()


IN_DOMAIN = blas_domain() == STUDY_DOMAIN


@pytest.fixture(scope="module")
def study_data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("replay") / "data")
    assert cli.main(["gen-data", "--config", str(STUDY_CONFIG), "--out", out]) == cli.EXIT_OK
    return out


def parse_curve(text: str) -> tuple[list[int], np.ndarray]:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [int(step) for step, _ in rows], np.array([float(loss) for _, loss in rows])


@pytest.mark.parametrize("kind", ["ce", "wce", "sd", "bsd"])
def test_committed_curve_replays(study_data, tmp_path, capsys, kind):
    out = tmp_path / "run"
    rc = cli.main(["train", "--config", str(STUDY_CONFIG), "--data", study_data,
                   "--out", str(out), "--set", f"loss.kind={kind}",
                   "--set", "train.seed=0", "--set", "train.steps=8"])
    assert rc == cli.EXIT_OK
    got = (out / "curve.csv").read_text()
    committed = (RESULTS_DIR / f"{kind}_s0" / "curve.csv").read_text()
    want = "".join(committed.splitlines(keepends=True)[:9])
    if IN_DOMAIN:
        assert got == want
        return
    with capsys.disabled():
        print(f"\n{kind}_s0 replayed in {blas_domain()}, not the study's {STUDY_DOMAIN}: "
              f"losses compared to rtol {CURVE_RTOL}")
    got_steps, got_losses = parse_curve(got)
    want_steps, want_losses = parse_curve(want)
    assert got_steps == want_steps
    np.testing.assert_allclose(got_losses, want_losses, rtol=CURVE_RTOL)


def test_state_digest_after_three_bsd_steps(study_data):
    if not IN_DOMAIN:
        pytest.skip(f"the pinned digest holds in the study's domain {STUDY_DOMAIN}; "
                    f"this is {blas_domain()}")
    cfg = config.resolve(STUDY_CONFIG.read_text(), ["train.steps=3"])
    model_cfg, train_cfg = config.model_config(cfg), config.train_config(cfg)
    assert (train_cfg.loss.kind, train_cfg.seed) == ("bsd", 0)
    train_ds, _ = training.load_split(study_data, train_cfg.holdout_cases,
                                      model_cfg.num_labels)
    m = model.build_model(model_cfg, Rng(train_cfg.seed).child(1))
    state = AdamState.fresh(m.param_table())
    training.train(m, train_ds, train_cfg, state=state)
    digest = hashlib.sha256()
    for arr in m.state_table().values():
        digest.update(arr.tobytes())
    for moments in (state.m, state.v):
        for name in m.param_table():
            digest.update(moments[name].tobytes())
    assert digest.hexdigest() == STATE_SHA256
