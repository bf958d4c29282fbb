"""Tractability caps for dense tree enumeration.

Tables and dynamic programs in this package are dense: a game of horizon N
over K outcomes touches K**N nodes.  Operations that sweep whole levels
refuse to run past the caps below.  Path-local operations (capital traces,
conditional values along a single path) are not capped.

The depth cap has one source: the ``GTP_MAX_DEPTH`` environment variable,
read at every check, with ``DEFAULT_DEPTH_CAP`` when it is unset.
"""

from __future__ import annotations

import os

DEFAULT_DEPTH_CAP = 14
OUTCOME_CAP = 4

ENV_DEPTH_VAR = "GTP_MAX_DEPTH"


class DepthCapError(ValueError):
    """A dense enumeration would exceed the configured depth cap."""


def depth_cap() -> int:
    """Effective dense-depth cap: the environment variable, else the default."""
    env = os.environ.get(ENV_DEPTH_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{ENV_DEPTH_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_DEPTH_CAP


def require_outcomes(count: int, cap: int | None = None) -> None:
    """At most ``cap`` outcomes (default :data:`OUTCOME_CAP`) for a dense tree."""
    cap = OUTCOME_CAP if cap is None else cap
    if count > cap:
        raise ValueError(f"outcome set of size {count} exceeds the cap {cap}")


def require_dense(depth: int, what: str) -> None:
    cap = depth_cap()
    if depth > cap:
        raise DepthCapError(
            f"dense {what} to depth {depth} exceeds the cap {cap}; raise {ENV_DEPTH_VAR} to allow it"
        )
