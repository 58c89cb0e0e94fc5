"""Run configuration shared by the verification suites and the CLI.

A fixed config (seed included) must make every suite fully
reproducible: reports are byte identical across runs, so nothing
time- or host-dependent belongs here.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import DomainError
from .hecke import DEFAULT_ORACLE_CAP

__all__ = ["RunConfig", "threads_from_env"]


def threads_from_env() -> int:
    """Parallelism cap from QSCHUR_THREADS; defaults to 1."""
    raw = os.environ.get("QSCHUR_THREADS", "1")
    try:
        t = int(raw)
    except ValueError:
        raise DomainError(f"QSCHUR_THREADS must be an integer, got {raw!r}")
    if t < 1:
        raise DomainError(f"QSCHUR_THREADS must be positive, got {t}")
    return t


class RunConfig(NamedTuple):
    """Parameters of a verification run, frozen.

    r_max of None lets each suite pick the default its mathematics
    needs (independence families need deeper truncations than formula
    comparisons).
    """

    n: int = 2
    r_max: int | None = None
    oracle_cap: int = DEFAULT_ORACLE_CAP
    seed: int = 20260816
    l: int = 3
    bound: int = 2
    random_instances: int = 200
    threads: int = 1
    inject_failure: bool = False

    def validate(self) -> None:
        if self.n < 2:
            raise DomainError(f"n must be at least 2, got {self.n}")
        if self.r_max is not None and self.r_max < 0:
            raise DomainError(f"r_max must be nonnegative, got {self.r_max}")
        if self.oracle_cap < 0:
            raise DomainError(f"oracle cap must be nonnegative, got {self.oracle_cap}")
        if self.l < 1 or self.l % 2 == 0:
            raise DomainError(f"specialization order must be odd, got {self.l}")
        if self.bound < 0:
            raise DomainError(f"bound must be nonnegative, got {self.bound}")
        if self.random_instances < 0:
            raise DomainError("random_instances must be nonnegative")
        if self.threads < 1:
            raise DomainError(f"threads must be positive, got {self.threads}")

    def resolve_r_max(self, default: int) -> int:
        return self.r_max if self.r_max is not None else default

    def to_json_obj(self) -> dict:
        return self._asdict()
