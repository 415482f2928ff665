"""Small helpers shared by the test modules."""

from __future__ import annotations

from repro import Session


def run_batch(executor, points, variants, **knobs):
    """One ``Session.run`` over a fresh session of ``points``."""
    with Session(points) as session:
        return session.run(variants, executor=executor, **knobs)
