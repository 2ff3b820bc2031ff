"""The limits of one run, set once and read by every stage.

`with limits(seconds=S, cap=N):` runs its block with a deadline S seconds
from now and an order cap N.  A stage calls `check_deadline()` in its long
loops, which raises DeadlineExceeded once the deadline has passed, and
`check_order(n, default, stage)` before it builds or enumerates over a
group of order n, which raises CapExceeded when n is above N, or above the
stage's own default when no cap is set.  The limits live in a context
variable: they end with the block and do not leak into other threads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from .errors import BadParams, CapExceeded, DeadlineExceeded

# (monotonic time at which the run expires, order cap), each None if unset
_limits: ContextVar[tuple] = ContextVar("freerep_limits", default=(None, None))


@contextmanager
def limits(*, seconds: Optional[float] = None, cap: Optional[int] = None):
    """Run the block with a deadline `seconds` from now and an order cap."""
    if seconds is not None and not seconds >= 0:
        raise BadParams(f"deadline must be >= 0 seconds, not {seconds}")
    if cap is not None and cap < 1:
        raise BadParams(f"cap must be >= 1, not {cap}")
    expires = None if seconds is None else time.monotonic() + seconds
    token = _limits.set((expires, cap))
    try:
        yield
    finally:
        _limits.reset(token)


def check_deadline() -> None:
    expires = _limits.get()[0]
    if expires is not None and time.monotonic() >= expires:
        raise DeadlineExceeded("deadline exceeded")


def check_order(n: int, default: int, stage: str) -> None:
    cap = _limits.get()[1]
    limit = default if cap is None else cap
    if n > limit:
        raise CapExceeded(f"{stage}: order {n} exceeds cap {limit}")
