"""Exact block adders the spec IR cannot express yet.

The paper's §4.4 notes that GeAr is agnostic to its sub-adder
implementation — on an ASIC a faster exact adder can replace the ripple
sub-adders.  Kogge-Stone is a spec ``arch``
(:func:`repro.adders.KoggeStoneAdder`); these two classic block
architectures round out the baseline library and let the ablation benches
compare FPGA-vs-ASIC-style structures:

* :class:`CarrySelectAdder` — dual-ripple blocks with select muxes,
* :class:`CarrySkipAdder` — ripple blocks with propagate bypass.
"""

from __future__ import annotations

from repro.adders.base import ExactAdder
from repro.utils.validation import check_pos_int


class CarrySelectAdder(ExactAdder):
    """Exact N-bit carry-select adder with ``block``-bit sections."""

    def __init__(self, width: int, block: int = 4) -> None:
        check_pos_int("block", block)
        super().__init__(width, f"CSLA(N={width},B={block})")
        self.block = block

    def build_netlist(self):
        from repro.rtl.builders import build_carry_select

        return build_carry_select(self.width, self.block,
                                  name=f"csla_{self.width}_{self.block}")


class CarrySkipAdder(ExactAdder):
    """Exact N-bit carry-skip adder with ``block``-bit sections."""

    def __init__(self, width: int, block: int = 4) -> None:
        check_pos_int("block", block)
        super().__init__(width, f"CSKA(N={width},B={block})")
        self.block = block

    def build_netlist(self):
        from repro.rtl.builders import build_carry_skip

        return build_carry_skip(self.width, self.block,
                                name=f"cska_{self.width}_{self.block}")
