"""Adam optimizer state and its in-place update step.

The state is a plain value (step counter plus first and second moments per
parameter) so checkpoints can carry it without depending on the training
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def fresh(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg) -> None:
    """One in-place Adam update with bias correction.

    `cfg` supplies learning_rate, adam_beta1, adam_beta2 and adam_eps (a
    `training.TrainConfig`).
    """
    # Every gradient is checked before anything is touched, so a failed
    # step leaves the parameters, the moments and the step count as they were.
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            # Named from 0, as train's loss check and curve.csv name steps.
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at step {state.step}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + cfg.adam_eps)
