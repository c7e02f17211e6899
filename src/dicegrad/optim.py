"""Adam optimizer state and its in-place update step.

The state is a plain value (step counter plus first and second moments per
parameter) so checkpoints can carry it without depending on the training
loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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
              state: AdamState, learning_rate: float) -> None:
    """One in-place Adam update with bias correction, at decay rates
    `BETA1`, `BETA2` and denominator epsilon `EPS`."""
    # Every gradient is checked before anything is touched, so a failed
    # step leaves the parameters, the moments and the step count as they were.
    for name in params:
        if not np.all(np.isfinite(grads[name])):
            # Named from 0, as train's loss check and curve.csv name steps.
            raise NumericError(f"non-finite gradient for parameter {name!r} "
                               f"at step {state.step}")
    state.step += 1
    t = state.step
    corr1 = 1.0 - BETA1 ** t
    corr2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= learning_rate * (m / corr1) / (np.sqrt(v / corr2) + EPS)
