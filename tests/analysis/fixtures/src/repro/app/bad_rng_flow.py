"""Fixture: an unseeded Random laundered through helpers into netsim (determinism taint rule)."""

import random

from repro.netsim.link import Link
from repro.netsim.rng import substream

__all__ = ["attach", "attach_seeded", "attach_direct_seed", "make_rng"]


def _fresh():
    return random.Random()  # unseeded origin (hop 1)


def make_rng():
    return _fresh()  # hop 2: still tainted on all return paths


def attach(loop, deliver):
    # TP: the unseeded stream reaches a netsim callable three hops from
    # its construction site.
    return Link(loop, deliver, rng=make_rng())


def attach_seeded(loop, deliver):
    # near-miss: a named substream is the blessed injection.
    return Link(loop, deliver, rng=substream(7, "fixture"))


def attach_direct_seed(loop, deliver):
    # near-miss: explicitly seeded instances are reproducible.
    return Link(loop, deliver, rng=random.Random(42))
