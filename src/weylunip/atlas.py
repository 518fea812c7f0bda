"""The atlas: a full, deterministic dump of one group context as
``record=<kind> key=value ...`` lines, and the split tag that marks the
split type-D classes in it and in the command line's class listings.
"""

from __future__ import annotations

from collections import defaultdict

from .classical_maps import enumerate_unipotents, phi, pi, psi, rho
from .special_classes import special_classes, tau
from .weyl_classes import (
    DEFAULT_RANK_BOUND,
    ClassSymbol,
    GroupContext,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
)


def split_tag(ctx: GroupContext, C: ClassSymbol, tag: str = " [split]") -> str:
    """``tag`` if C is a type-D class that splits in the index-2 subgroup,
    else the empty string; the atlas writes the tag as ``" split=1"``."""
    return tag if ctx.family == "D" and is_split_weyl_class(ctx, C) else ""


def atlas_lines(ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND) -> list[str]:
    """Full dump of the context: every class with its image and fixed-space
    dimension, every fiber in section-first order, the comparison maps for
    bad characteristic, and the special classes with their labels."""
    lines = [f"record=context family={ctx.family} rank={ctx.rank} char={ctx.char}"]
    fibers = defaultdict(list)
    for C in enumerate_classes(ctx, bound=bound):
        u = phi(ctx, C)
        fibers[u].append(C)
        split = split_tag(ctx, C, " split=1")
        lines.append(f"record=map class={C} m={m_of_class(ctx, C)} phi={u}{split}")
    unipotents = enumerate_unipotents(ctx, bound=bound)
    for u in unipotents:
        first = psi(ctx, u)
        ordered = [first] + [C for C in fibers[u] if C != first]
        lines.append(
            f"record=fiber unipotent={u} psi={first} "
            f"classes={'|'.join(str(C) for C in ordered)}"
        )
    if ctx.char != "good":
        for u in unipotents:
            lines.append(f"record=rho unipotent={u} rho={rho(ctx, u)}")
        for u0 in enumerate_unipotents(ctx.good(), bound=bound):
            lines.append(f"record=pi unipotent0={u0} pi={pi(ctx, u0)}")
    for C in special_classes(ctx, bound=bound):
        split = split_tag(ctx, C, " split=1")
        lines.append(f"record=special class={C} tau={tau(ctx, C)}{split}")
    return lines
