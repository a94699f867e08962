"""Scalable model families, written in the stepcheck declaration language.

Each family builds a list of top-level declarations; ``render`` joins them
in an order drawn from a seed.  Nothing in a family depends on that order,
so every seed must give the same LTSs.  Check declarations keep their
order, at the end: they are the commands a user runs, in the order run.
"""
from __future__ import annotations

import random


def ws_pair(k: int = 2) -> list[str]:
    """``k`` disjoint copies of the bundled WSOA/WSA/WSB/WSOB coupling.

    Copy ``c`` renames every action, equation and set member with the
    suffix ``x<c>``.  ``Sys`` puts all ``4k`` components under one
    ``hide``/``block``/``theta``; ``Spec`` runs the ``k`` end-to-end
    specifications side by side.
    """
    decls = ["domain D = { d1, d2 }"]
    hidden, blocked, comps, specs = [], [], [], []
    for c in range(k):
        x = f"x{c}"
        decls += [
            f"process WSOA{x} {{\n"
            f"    WSOA{x} = sum d in D . A1{x}(d) . WSOA{x}_1\n"
            f"    WSOA{x}_1 = A2{x} . WSOA{x}_2\n"
            f"    WSOA{x}_2 = ((A3{x} . A4{x}) || A5{x}) . WSOA{x}_3\n"
            f"    WSOA{x}_3 = A6{x} . WSOA{x}\n}}",
            f"process WSA{x} {{\n"
            f"    WSA{x} = @A1{x} . WSA{x}_1\n"
            f"    WSA{x}_1 = WA2{x} . WSA{x}_2\n"
            f"    WSA{x}_2 = WA5{x} . WSA{x}_3\n"
            f"    WSA{x}_3 = @A6{x} . WSA{x}\n}}",
            f"process WSOB{x} {{\n"
            f"    WSOB{x} = B1{x} . WSOB{x}_1\n"
            f"    WSOB{x}_1 = B2{x} . WSOB{x}_2\n"
            f"    WSOB{x}_2 = B3{x} . WSOB{x}_3\n"
            f"    WSOB{x}_3 = sum dp in D . B4{x}(dp) . WSOB{x}\n}}",
            f"process WSB{x} {{\n"
            f"    WSB{x} = @B1{x} . WSB{x}_1\n"
            f"    WSB{x}_1 = WB2{x} . WSB{x}_2\n"
            f"    WSB{x}_2 = WB3{x} . WSB{x}_3\n"
            f"    WSB{x}_3 = @B4{x} . WSB{x}\n}}",
            f"process SPEC{x} {{\n"
            f"    SPEC{x} = sum d in D . A1{x}(d) . SPEC{x}_1\n"
            f"    SPEC{x}_1 = sum dp in D . B4{x}(dp) . SPEC{x}\n}}",
        ]
        for a, b, r in (("A2", "WA2", "cA2"), ("A5", "WA5", "cA5"),
                        ("B2", "WB2", "cB2"), ("B3", "WB3", "cB3"),
                        ("WA2", "WB2", "cAB2"), ("WA5", "WB3", "cAB5")):
            decls.append(f"comm {a}{x}, {b}{x} -> {r}{x}")
        blocked += [f"{a}{x}" for a in
                    ("A2", "A5", "B2", "B3", "WA2", "WA5", "WB2", "WB3")]
        hidden += [f"{a}{x}" for a in
                   ("A2", "A3", "A4", "A5", "A6", "B1", "B2", "B3",
                    "WA2", "WA5", "WB2", "WB3")]
        comps += [f"WSOA{x}", f"WSA{x}", f"WSB{x}", f"WSOB{x}"]
        specs.append(f"SPEC{x}")
    decls += [
        f"set H = {{ {', '.join(blocked)} }}",
        f"set I = {{ {', '.join(hidden)} }}",
        f"system Sys = hide I in block H in theta ({' <> '.join(comps)})",
        f"system Spec = {' <> '.join(specs)}",
        "check theorem: Sys ~bb Spec round=barrier",
        "check refuted: Sys ~bb Spec round=overlap",
    ]
    return decls


def ring(n: int = 9) -> list[str]:
    """``n`` components passing tokens around a ring under ``block``.

    Component ``i`` sends ``s<i>`` and receives ``r<i>``; ``s<i>`` fuses
    with ``r<i+1>``.  Even components start by sending, odd ones by
    receiving, so ``ceil(n/2)`` tokens circulate.  ``SR`` is ``S`` with its
    components rotated by one place.
    """
    decls = []
    for i in range(n):
        first, second = (f"s{i}", f"r{i}") if i % 2 == 0 else (f"r{i}", f"s{i}")
        decls.append(f"process C{i} {{ C{i} = {first} . {second} . C{i} }}")
        decls.append(f"comm s{i}, r{(i + 1) % n} -> c{i}")
    names = [f"C{i}" for i in range(n)]
    decls += [
        f"set B = {{ {', '.join(f's{i}, r{i}' for i in range(n))} }}",
        f"system S = block B in ({' <> '.join(names)})",
        f"system SR = block B in ({' <> '.join(names[1:] + names[:1])})",
        "check rot: S ~sb SR",
    ]
    return decls


def tau_chain(length: int = 70, k: int = 2) -> list[str]:
    """``k`` cycles of ``length`` steps: one ``a<c>``, one ``b<c>``, rest hidden.

    ``a<c>`` is step 0 and ``b<c>`` step ``length // 2`` of cycle ``c``;
    every other step is the hidden action ``t<c>``.  ``SPEC`` runs the
    ``k`` loops ``a<c> . b<c>`` side by side; ``SR`` is ``S`` with its
    components rotated by one place.
    """
    if length < 3:
        raise ValueError("a tau chain needs at least 3 steps")
    decls = []
    for c in range(k):
        eqs = []
        for j in range(length):
            act = (f"a{c}" if j == 0 else f"b{c}" if j == length // 2
                   else f"t{c}")
            eqs.append(f"    T{c}_{j} = {act} . T{c}_{(j + 1) % length}")
        decls.append(f"process T{c} {{\n" + "\n".join(eqs) + "\n}")
        decls.append(f"process SA{c} {{ SA{c} = a{c} . b{c} . SA{c} }}")
    names = [f"T{c}_0" for c in range(k)]
    hidden = ", ".join(f"t{c}" for c in range(k))
    decls += [
        f"system S = hide {{ {hidden} }} in ({' <> '.join(names)})",
        f"system SR = hide {{ {hidden} }} in "
        f"({' <> '.join(names[1:] + names[:1])})",
        f"system SPEC = {' <> '.join(f'SA{c}' for c in range(k))}",
        "check quot: S ~bb SPEC",
        "check rot: S ~sb SR",
    ]
    return decls


def render(decls: list[str], seed: int) -> str:
    """The model text with its declarations in an order drawn from ``seed``."""
    order = [d for d in decls if not d.startswith("check ")]
    random.Random(seed).shuffle(order)
    order += [d for d in decls if d.startswith("check ")]
    return "\n\n".join(order) + "\n"
