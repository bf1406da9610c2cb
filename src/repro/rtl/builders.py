"""Netlist construction for every adder architecture in the paper.

:func:`build_spec` compiles any :class:`~repro.spec.ir.AdderSpec` — every
windowed family and exact baseline — into a :class:`~repro.rtl.netlist.Netlist`
with input buses ``A`` and ``B`` (width N) and an output bus ``S`` of width
N+1 (the MSB is the carry out, except for architectures that cannot produce
one); specs with error detection additionally expose an ``ERR`` bus with one
flag per speculative sub-adder (§3.3: an AND of the predicted carry and the
previous sub-adder's carry out).  The three netlists the IR cannot express
(carry-select, carry-skip and the §3.3 correction datapath) have their own
builders, and :data:`NAMED_BUILDERS` addresses all of them by name.

Wide AND/OR reductions are decomposed into bounded-fan-in trees so both the
LUT-area estimate and the STA see realistic structures.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rtl.gates import Op
from repro.rtl.netlist import Netlist
from repro.spec.catalog import (
    SPEC_CATALOG,
    aca1_spec,
    aca2_spec,
    etaii_spec,
    exact_spec,
    gda_spec,
    gear_spec,
    loa_spec,
)
from repro.spec.ir import AdderSpec
from repro.utils.validation import check_pos_int

#: Maximum fan-in used when decomposing reductions into gate trees.  Four
#: keeps one tree level per LUT pair and matches how ISE maps wide gates.
TREE_FANIN = 4


def _tree(netlist: Netlist, op: Op, nets: Sequence[str], group: str = "") -> str:
    """Balanced bounded-fan-in reduction tree over ``nets``."""
    if not nets:
        raise ValueError("reduction tree needs at least one net")
    level = list(nets)
    while len(level) > 1:
        nxt: List[str] = []
        for i in range(0, len(level), TREE_FANIN):
            chunk = level[i : i + TREE_FANIN]
            if len(chunk) == 1:
                nxt.append(chunk[0])
            else:
                nxt.append(netlist.add_gate(op, chunk, group=group))
        level = nxt
    return level[0]


def _ripple_chain(
    netlist: Netlist,
    a_nets: Sequence[str],
    b_nets: Sequence[str],
    cin: Optional[str] = None,
    group: str = "carry",
    p_group: str = "",
    drop_sums: int = 0,
    emit_cout: bool = True,
) -> Tuple[List[Optional[str]], Optional[str]]:
    """Ripple-carry addition over parallel net lists.

    Returns (sum nets LSB first, carry-out net).  The carry gates are tagged
    with ``group`` so the FPGA delay model can ride them on the fast chain.
    ``p_group`` tags the per-bit propagate LUTs: distinct tags keep two
    chains over the same bits from sharing LUTs (each slice's LUT feeds its
    own MUXCY, so physically separate carry chains cannot share them).

    ``drop_sums`` skips building the sum XOR of that many low bits (their
    slots in the returned list are ``None``); GeAr prediction bits and
    ETAII carry generators feed the chain but never observe those sums, and
    building them anyway is exactly the dead logic the lint pass flags.
    ``emit_cout=False`` likewise skips the final bit's carry gates when the
    caller discards the carry out (the returned carry is then ``None``).
    """
    if len(a_nets) != len(b_nets):
        raise ValueError("operand net lists must have equal length")
    sums: List[Optional[str]] = []
    carry = cin
    last = len(a_nets) - 1
    for idx, (a, b) in enumerate(zip(a_nets, b_nets)):
        keep_sum = idx >= drop_sums
        need_carry = emit_cout or idx < last
        # The propagate XOR is the slice LUT; everything else rides the
        # dedicated carry chain (MUXCY/XORCY) and is tagged accordingly so
        # the delay and area models treat it as such.
        if carry is None:
            sums.append(netlist.xor(a, b, group=p_group) if keep_sum else None)
            carry = netlist.and_(a, b, group=group) if need_carry else None
        else:
            p = netlist.xor(a, b, group=p_group) if keep_sum or need_carry else None
            sums.append(netlist.xor(p, carry, group=group) if keep_sum else None)
            if need_carry:
                g = netlist.and_(a, b, group=group)
                chain = netlist.and_(p, carry, group=group)
                carry = netlist.or_(g, chain, group=group)
            else:
                carry = None
    return sums, carry


def _lookahead_carries(
    nl: Netlist,
    g: Sequence[str],
    p: Sequence[Optional[str]],
    needed: Optional[Sequence[int]] = None,
) -> List[Optional[str]]:
    """Flat CLA carry nets: carries[i] = carry out of bit i (cin = 0).

    Each carry is an independent sum-of-products, so callers that consume
    only some of them (GDA predicts just the block boundary carry; GeAr
    windows discard carries under the prediction field) pass ``needed`` to
    avoid building dead product trees; unrequested slots are ``None``.
    ``p[0]`` is never read — only ``p[j]`` for ``j >= 1`` appears in the
    expansion — so callers may pass ``None`` there.
    """
    width = len(g)
    wanted = set(range(width) if needed is None else needed)
    carries: List[Optional[str]] = []
    for i in range(width):
        if i not in wanted:
            carries.append(None)
            continue
        terms = [g[i]]
        for j in range(i):
            factors = [g[j]] + list(p[j + 1 : i + 1])
            terms.append(_tree(nl, Op.AND, factors))
        carries.append(terms[0] if len(terms) == 1 else _tree(nl, Op.OR, terms))
    return carries


def _prefix_window(
    nl: Netlist,
    a_nets: Sequence[str],
    b_nets: Sequence[str],
    drop_sums: int = 0,
    emit_cout: bool = True,
) -> Tuple[List[Optional[str]], Optional[str]]:
    """Kogge-Stone parallel-prefix addition over parallel net lists.

    log2(N) prefix levels of (generate, propagate) merges.  On ASICs this
    is the classic fast adder; on FPGAs the prefix network maps to generic
    LUTs and loses to the dedicated carry chain — the same effect that
    penalises GDA's CLA prediction (§4.2).

    ``drop_sums`` / ``emit_cout`` behave as in :func:`_ripple_chain`.  A
    prefix network's lanes are independent sum-of-products, so dropping
    sums prunes whole lanes: the backward needs-analysis walks the levels
    in reverse, recording which (level, index) generate *and* propagate
    merges are ever consumed — building the rest is exactly the dead logic
    the lint pass flags.
    """
    if len(a_nets) != len(b_nets):
        raise ValueError("operand net lists must have equal length")
    width = len(a_nets)
    levels: List[int] = []
    dist = 1
    while dist < width:
        levels.append(dist)
        dist <<= 1
    # Final consumers: sum bit i reads gen[i-1]; the carry out reads the
    # top lane.  Walk levels backwards: a merge at (d, i) reads the
    # previous level's gen/prop at i and i-d, and merged propagates feed
    # both later propagate merges and generate merges at the same lane.
    need_gen = {i - 1 for i in range(max(1, drop_sums), width)}
    if emit_cout:
        need_gen.add(width - 1)
    need_prop: set = set()
    plan: List[Tuple[int, set, set]] = []
    for d in reversed(levels):
        gen_m = {i for i in need_gen if i >= d}
        prop_m = {i for i in need_prop if i >= d}
        need_gen |= {i - d for i in gen_m}
        need_prop |= {i - d for i in prop_m} | gen_m
        plan.append((d, gen_m, prop_m))
    plan.reverse()

    base_prop = need_prop | set(range(drop_sums, width))
    gen: Dict[int, str] = {
        i: nl.and_(a_nets[i], b_nets[i]) for i in sorted(need_gen)
    }
    prop: Dict[int, str] = {
        i: nl.xor(a_nets[i], b_nets[i]) for i in sorted(base_prop)
    }
    base = dict(prop)
    for d, gen_m, prop_m in plan:
        new_gen = dict(gen)
        new_prop = dict(prop)
        for i in sorted(gen_m | prop_m):
            # (g, p) ∘ (g', p') = (g | p·g', p·p')
            if i in gen_m:
                new_gen[i] = nl.or_(gen[i], nl.and_(prop[i], gen[i - d]))
            if i in prop_m:
                new_prop[i] = nl.and_(prop[i], prop[i - d])
        gen, prop = new_gen, new_prop
    # gen[i] is now the carry out of bit i (cin = 0).
    sums: List[Optional[str]] = [None] * drop_sums
    for i in range(drop_sums, width):
        sums.append(base[i] if i == 0 else nl.xor(base[i], gen[i - 1]))
    return sums, gen[width - 1] if emit_cout else None


def build_carry_select(width: int, block: int = 4, name: str = "csla") -> Netlist:
    """Carry-select adder: per block, two ripple sums muxed by the carry.

    The first block is a plain ripple chain; each later block computes its
    sum for carry-in 0 and 1 in parallel and selects with the previous
    block's resolved carry, shortening the critical path to one block plus
    a mux chain.
    """
    check_pos_int("width", width)
    check_pos_int("block", block)
    nl = Netlist(name)
    a = nl.add_input_bus("A", width)
    b = nl.add_input_bus("B", width)

    result: List[str] = []
    carry: Optional[str] = None
    for base in range(0, width, block):
        hi = min(base + block, width)
        a_blk, b_blk = a[base:hi], b[base:hi]
        if carry is None:
            sums, carry = _ripple_chain(nl, a_blk, b_blk)
            result.extend(sums)
            continue
        sums0, cout0 = _ripple_chain(nl, a_blk, b_blk, cin=nl.const(0))
        sums1, cout1 = _ripple_chain(nl, a_blk, b_blk, cin=nl.const(1))
        for s0, s1 in zip(sums0, sums1):
            result.append(nl.mux(carry, s0, s1))
        carry = nl.mux(carry, cout0, cout1)
    assert carry is not None
    nl.set_output_bus("S", result + [carry])
    return nl


def build_carry_skip(width: int, block: int = 4, name: str = "cska") -> Netlist:
    """Carry-skip adder: ripple blocks with a propagate-bypass mux each."""
    check_pos_int("width", width)
    check_pos_int("block", block)
    nl = Netlist(name)
    a = nl.add_input_bus("A", width)
    b = nl.add_input_bus("B", width)

    result: List[str] = []
    carry: Optional[str] = None
    for base in range(0, width, block):
        hi = min(base + block, width)
        a_blk, b_blk = a[base:hi], b[base:hi]
        cin = carry
        sums, cout = _ripple_chain(nl, a_blk, b_blk, cin=cin)
        result.extend(sums)
        if cin is None:
            carry = cout
        else:
            # Block propagate: all bits propagate -> bypass the ripple.
            props = [nl.xor(a[j], b[j]) for j in range(base, hi)]
            block_p = _tree(nl, Op.AND, props)
            carry = nl.mux(block_p, cout, cin)
    assert carry is not None
    nl.set_output_bus("S", result + [carry])
    return nl


def _window_sum(netlist: Netlist, a_nets: Sequence[str], b_nets: Sequence[str],
                style: str, drop_sums: int = 0, emit_cout: bool = True,
                cin: Optional[str] = None) -> Tuple[List[Optional[str]], Optional[str]]:
    """Sub-adder implementation selector for speculative windows (§4.4
    remark: the model is not specific to any sub-adder type).

    ``drop_sums`` / ``emit_cout`` behave as in :func:`_ripple_chain`: sum
    bits under the prediction field and unused carry outs are simply not
    built, keeping every generated netlist free of dead logic.  An external
    ``cin`` (the LOA truncation carry, or an ETAII/GDA carry generator's
    output) is only meaningful for a ripple window — the lookahead and
    prefix expansions assume cin = 0.
    """
    if cin is not None and style != "rca":
        raise ValueError("only 'rca' windows accept an external carry-in")
    if style == "rca":
        return _ripple_chain(netlist, a_nets, b_nets, cin=cin,
                             drop_sums=drop_sums, emit_cout=emit_cout)
    if style == "cla":
        n = len(a_nets)
        needed = {i - 1 for i in range(max(1, drop_sums), n)}
        if emit_cout:
            needed.add(n - 1)
        # g[j] / p[j] only appear in the expansions of carries up to the
        # highest requested one; anything above that would be dead logic.
        top = max(needed) if needed else -1
        g: List[Optional[str]] = [
            netlist.and_(x, y) if i <= top else None
            for i, (x, y) in enumerate(zip(a_nets, b_nets))
        ]
        # p[0] only ever feeds sum bit 0 (the lookahead expansion reads
        # p[1:] exclusively), so skip it when that sum is dropped.
        p: List[Optional[str]] = [
            netlist.xor(x, y)
            if (i > 0 and (i <= top or i >= drop_sums)) or (i == 0 and drop_sums == 0)
            else None
            for i, (x, y) in enumerate(zip(a_nets, b_nets))
        ]
        carries = _lookahead_carries(netlist, g, p, needed=sorted(needed))
        sums: List[Optional[str]] = [p[0] if drop_sums == 0 else None]
        for i in range(1, n):
            if i >= drop_sums:
                sums.append(netlist.xor(p[i], carries[i - 1]))
            else:
                sums.append(None)
        return sums, carries[-1] if emit_cout else None
    if style == "ksa":
        return _prefix_window(netlist, a_nets, b_nets,
                              drop_sums=drop_sums, emit_cout=emit_cout)
    raise ValueError(
        f"unknown sub-adder style {style!r}; use 'rca', 'cla' or 'ksa'"
    )


def build_spec(spec: AdderSpec) -> Netlist:
    """Compile an :class:`~repro.spec.ir.AdderSpec` into a netlist.

    This is *the* generic windowed-adder compiler: every speculative family
    (GeAr, ACA-I/II, ETAII, ETAIIM, GDA, LOA, heterogeneous mixes) and every
    exact baseline (RCA, CLA, KSA — a single full-width window) is one walk
    over the spec's windows.  Per window:

    * ``pred == "fused"`` — one sub-adder over ``[low, high]`` whose low
      prediction bits feed the carry chain but produce no sums (GeAr/ACA
      style, Fig. 2);
    * ``pred == "gen_rca"`` — a dedicated ripple carry generator over the
      prediction bits feeds a separate sum unit (ETAII style: the
      duplicated hardware behind Table I's 28-vs-24 LUT gap);
    * ``pred == "gen_cla"`` — a flat lookahead predicts the boundary carry
      (GDA style: the wide product terms behind §4.2's delay penalty).

    ``truncation`` OR-reduces the low bits and injects the LOA carry rule;
    a ``static`` first window generalises it to other fixed gate rules
    (``hoeraa`` swaps the top OR for a half-adder XOR); ``error_detect``
    emits the §3.3 ``ERR`` bus (``cp_i AND co_{i-1}``); a ``rectify``
    stage appends a sparse ripple increment that adds each enabled
    window's flag back at its ``result_low``.  Needs-analysis in the
    sub-adder helpers keeps the output free of dead logic for any window
    mix.
    """
    nl = Netlist(spec.name)
    n = spec.width
    a = nl.add_input_bus("A", n)
    b = nl.add_input_bus("B", n)

    static = spec.static_window
    t = spec.truncation or (static.length if static is not None else 0)
    result: List[Optional[str]] = [None] * n
    for i in range(t):
        if static is not None and static.approx == "hoeraa" and i == t - 1:
            result[i] = nl.xor(a[i], b[i])
        else:
            result[i] = nl.or_(a[i], b[i])
    trunc_cin = nl.and_(a[t - 1], b[t - 1]) if t else None

    windows = spec.windows[1:] if static is not None else spec.windows
    detect = spec.error_detect
    carry_outs: List[Optional[str]] = []
    predicts: List[Optional[str]] = []

    for i, w in enumerate(windows):
        is_last = i == len(windows) - 1
        pred = w.prediction_bits
        if w.pred == "gen_rca" and pred:
            # Dedicated carry generator over the prediction span: its own
            # carry chain, so its propagate LUTs cannot be shared with a
            # sum unit covering the same bits (distinct p_group).
            _, cin = _ripple_chain(nl, a[w.low : w.result_low],
                                   b[w.low : w.result_low],
                                   p_group="carrygen", drop_sums=pred)
        elif w.pred == "gen_cla" and pred:
            g = [nl.and_(a[j], b[j]) for j in range(w.low, w.result_low)]
            # Only the boundary carry is predicted; p[0] never appears in
            # its expansion, and intermediate carries are not consumed.
            p: List[Optional[str]] = [None] + [
                nl.xor(a[j], b[j]) for j in range(w.low + 1, w.result_low)
            ]
            cin = _lookahead_carries(nl, g, p, needed=[pred - 1])[-1]
        else:
            cin = trunc_cin if i == 0 else None
        # Fused windows span the prediction bits themselves; generator
        # windows delegate them and sum only the result field.
        lo, drop = (w.low, pred) if w.pred == "fused" else (w.result_low, 0)
        # A window's carry out is consumed by the §3.3 detector of the next
        # sub-adder (when detection is on) and, for the last window, by the
        # sum MSB; otherwise it is not built at all.
        sums, cout = _window_sum(
            nl, a[lo : w.high + 1], b[lo : w.high + 1], w.arch,
            drop_sums=drop, emit_cout=is_last or detect, cin=cin,
        )
        result[w.result_low : w.result_high + 1] = sums[drop:]
        carry_outs.append(cout)
        if detect and i > 0:
            prop_bits = [nl.xor(a[w.low + j], b[w.low + j]) for j in range(pred)]
            predicts.append(_tree(nl, Op.AND, prop_bits))
        else:
            predicts.append(None)

    err: List[str] = []
    if detect:
        err = [
            nl.and_(predicts[i], carry_outs[i - 1])
            for i in range(1, len(windows))
        ]

    bits: List[Optional[str]] = result + [carry_outs[-1]]
    if spec.rectify is not None:
        # Rectification stage: ripple-add the flag word (each enabled
        # window's ERR flag at its result_low) into the sum.  Between
        # taps the increment is a half-adder chain; the final carry out
        # of bit N is provably never set (rectification only cancels
        # negative miss errors), so it is not built at all.
        taps = {windows[i].result_low: err[i - 1]
                for i in spec.rectified_windows()}
        carry: Optional[str] = None
        for j in range(min(taps), n + 1):
            add = taps.get(j)
            if add is not None and carry is not None:
                p = nl.xor(bits[j], add)
                g = nl.and_(bits[j], add, group="carry")
                bits[j] = nl.xor(p, carry, group="carry")
                if j < n:
                    chain = nl.and_(p, carry, group="carry")
                    carry = nl.or_(g, chain, group="carry")
            elif add is not None or carry is not None:
                inc = add if add is not None else carry
                s = nl.xor(bits[j], inc)
                carry = nl.and_(bits[j], inc, group="carry") if j < n else None
                bits[j] = s

    nl.set_output_bus("S", bits)
    if detect:
        nl.set_output_bus("ERR", err)
    return nl


def build_gear_corrected(
    n: int,
    r: int,
    p: int,
    name: str = "gear_corrected",
    allow_partial: bool = False,
) -> Netlist:
    """GeAr datapath with the §3.3 correction circuit (Figs. 5 and 6).

    Beyond ``A``/``B`` the module takes two control buses of width k-1:

    * ``EN`` — the paper's error-control select, gating each sub-adder's
      detector;
    * ``CORR`` — the correction state (driven by a register in the real
      design, by the multi-cycle harness here): when bit ``i-1`` is set,
      sub-adder ``i``'s prediction inputs are routed through the OR gates
      with their LSBs forced to 1, which regenerates the missed carry.

    Outputs: ``S`` (N+1 bits) computed under the current correction state,
    and ``ERR`` — the detector flags ``cp_i & co_{i-1} & EN``.  Because the
    detector sees the *muxed* inputs, a corrected sub-adder's propagate
    term collapses and its flag self-clears, so iterating "correct a
    flagged sub-adder, re-evaluate" terminates.

    See :class:`repro.rtl.correction_harness.MultiCycleCorrector` for the
    cycle-accurate wrapper.
    """
    windows = gear_spec(n, r, p, allow_partial=allow_partial).windows
    if len(windows) < 2:
        raise ValueError("correction needs at least one speculative sub-adder")
    nl = Netlist(name)
    a = nl.add_input_bus("A", n)
    b = nl.add_input_bus("B", n)
    en = nl.add_input_bus("EN", len(windows) - 1)
    corr = nl.add_input_bus("CORR", len(windows) - 1)

    result: List[str] = [""] * n
    carry_outs: List[str] = []
    flags: List[str] = []

    for i, window in enumerate(windows):
        lo, hi = window.low, window.high
        if i == 0:
            sums, cout = _ripple_chain(nl, a[lo : hi + 1], b[lo : hi + 1])
            result[lo : hi + 1] = sums
            carry_outs.append(cout)
            continue

        pred = window.prediction_bits
        select = corr[i - 1]
        a_in: List[str] = []
        b_in: List[str] = []
        for j in range(lo, hi + 1):
            if j == lo:
                # LSB of the prediction field: forced to 1 when correcting.
                forced = nl.const(1)
                a_in.append(nl.mux(select, a[j], forced))
                b_in.append(nl.mux(select, b[j], forced))
            elif j < lo + pred:
                orj = nl.or_(a[j], b[j])
                a_in.append(nl.mux(select, a[j], orj))
                b_in.append(nl.mux(select, b[j], orj))
            else:
                a_in.append(a[j])
                b_in.append(b[j])

        sums, cout = _ripple_chain(nl, a_in, b_in, drop_sums=pred)
        result[window.result_low : window.result_high + 1] = sums[pred:]
        # Detector on the muxed inputs: self-clears once corrected.
        prop_bits = [nl.xor(a_in[j], b_in[j]) for j in range(pred)]
        cp = _tree(nl, Op.AND, prop_bits)
        flags.append(nl.and_(cp, carry_outs[i - 1], en[i - 1]))
        carry_outs.append(cout)

    nl.set_output_bus("S", result + [carry_outs[-1]])
    nl.set_output_bus("ERR", flags)
    return nl


def _compiled(factory: Callable[..., AdderSpec],
              **fixed: object) -> Callable[..., Netlist]:
    """Name-table entry: ``factory(*params, **fixed)`` compiled by
    :func:`build_spec`.

    ``params`` must be exactly the factory's required parameters, so a
    stray CLI integer cannot reach one of its keyword defaults.
    """
    signature = inspect.signature(factory)
    required = [name for name, param in signature.parameters.items()
                if param.default is param.empty]

    def build(*params: int) -> Netlist:
        if len(params) != len(required):
            raise TypeError(f"expected {len(required)} parameter(s) "
                            f"({', '.join(required)}), got {len(params)}")
        return build_spec(factory(*params, **fixed))

    return build


#: Adders addressable by name from the CLI (``gear lint <name> <params>``)
#: and the lint builder matrix; values take positional integer parameters.
#: Parameterised families resolve through their :mod:`repro.spec.catalog`
#: factory under its historical short module name (so ``gear lint`` output
#: is stable); every other spec-catalog key is added as a width-only entry,
#: so this mapping and :mod:`repro.verify.registry` enumerate the same
#: catalog.  ``csla``, ``cska`` and ``gear_corrected`` are the netlists
#: the IR cannot express.
NAMED_BUILDERS: Dict[str, Callable[..., Netlist]] = {
    "rca": _compiled(exact_spec, arch="rca", name="rca"),
    "cla": _compiled(exact_spec, arch="cla", name="cla"),
    "ksa": _compiled(exact_spec, arch="ksa", name="ksa"),
    "csla": build_carry_select,
    "cska": build_carry_skip,
    "gear": _compiled(gear_spec, name="gear"),
    "gear_cla": _compiled(gear_spec, arch="cla", name="gear_cla"),
    "gear_corrected": build_gear_corrected,
    "aca1": _compiled(aca1_spec, name="aca1"),
    "aca2": _compiled(aca2_spec, name="aca2"),
    "etaii": _compiled(etaii_spec, name="etaii"),
    "gda": _compiled(gda_spec, enforce_multiple=False, name="gda"),
    "loa": _compiled(loa_spec, name="loa"),
}
for _key, _family in SPEC_CATALOG.items():
    NAMED_BUILDERS.setdefault(_key, _compiled(_family))
del _key, _family


def build_named(name: str, *params: int) -> Netlist:
    """Construct a registered adder by name, e.g. ``build_named("gear", 12, 4, 4)``.

    Raises :class:`ValueError` for unknown names and :class:`TypeError`
    when the parameter count does not match the builder's signature.
    """
    try:
        builder = NAMED_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown builder {name!r}; known: {', '.join(sorted(NAMED_BUILDERS))}"
        ) from None
    return builder(*params)
