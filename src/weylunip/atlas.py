"""The atlas: a full, deterministic dump of one group context as
``record=<kind> key=value ...`` lines.
"""

from __future__ import annotations

from .classical_maps import enumerate_unipotents, phi, pi, psi, rho
from .special_classes import special_classes, tau
from .weyl_classes import (
    DEFAULT_RANK_BOUND,
    GroupContext,
    enumerate_classes,
    m_of_class,
    split_tag,
)


def atlas_lines(ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND) -> list[str]:
    """Full dump of the context: every class with its image and fixed-space
    dimension, every fiber in section-first order, the comparison maps for
    bad characteristic, and the special classes with their labels."""
    lines = [f"record=context family={ctx.family} rank={ctx.rank} char={ctx.char}"]
    # each class is formatted once: fibers[u] is u's text, then the texts of
    # the classes over u in enumeration order
    fibers = {}
    for C in enumerate_classes(ctx, bound=bound):
        u = phi(ctx, C)
        fiber = fibers.get(u)
        if fiber is None:
            fiber = fibers[u] = [str(u)]
        text = str(C)
        fiber.append(text)
        split = split_tag(ctx, C, " split=1")
        lines.append(f"record=map class={text} m={m_of_class(ctx, C)} phi={fiber[0]}{split}")
    unipotents = enumerate_unipotents(ctx, bound=bound)
    u_texts = []
    for u in unipotents:
        u_text, *texts = fibers.get(u) or [str(u)]
        u_texts.append(u_text)
        # class texts are injective, so comparing texts is comparing classes
        first = str(psi(ctx, u))
        ordered = "|".join([first, *(t for t in texts if t != first)])
        lines.append(f"record=fiber unipotent={u_text} psi={first} classes={ordered}")
    if ctx.char != "good":
        for u, u_text in zip(unipotents, u_texts):
            lines.append(f"record=rho unipotent={u_text} rho={rho(ctx, u)}")
        for u0 in enumerate_unipotents(ctx.good(), bound=bound):
            lines.append(f"record=pi unipotent0={u0} pi={pi(ctx, u0)}")
    for C in special_classes(ctx, bound=bound):
        split = split_tag(ctx, C, " split=1")
        lines.append(f"record=special class={C} tau={tau(ctx, C)}{split}")
    return lines
