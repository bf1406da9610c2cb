"""The conformance model registry: every adder the harness verifies.

Each entry names a *configuration family* — a factory that builds the
adder at any requested operand width.  Families (rather than fixed
instances) are what make counterexample shrinking possible: when a layer
disagrees at width N, the shrinker rebuilds the same family at smaller
widths to find the narrowest member that still exhibits the divergence.

Spec-expressible families are not listed here by hand: the registry
enumerates :data:`repro.spec.catalog.SPEC_CATALOG` — the same enumeration
the CLI name table (:data:`repro.rtl.builders.NAMED_BUILDERS`) resolves its
width-only names through — and builds each family's behavioural model
with ``spec.to_model()``.  Only adders
the IR cannot express (mux-based carry-select/skip, ETAI's bit-dropping
low half) are registered as bespoke classes.  That makes naming drift
between ``build_named`` and this registry structurally impossible.

Widths at which a family is undefined (ETAII needs an even width, GeAr
needs ``L <= N``, ...) simply raise :class:`ValueError` from the factory;
callers probe with :meth:`RegisteredAdder.supports`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.adders import (
    AdderModel,
    CarrySelectAdder,
    CarrySkipAdder,
    ErrorTolerantAdderI,
)
from repro.spec.catalog import SPEC_CATALOG, SpecFamily

#: Default operand width for registry-wide conformance runs.  Small enough
#: that the behavioural-vs-netlist layer is an exhaustive proof (2^16
#: joint patterns per adder), wide enough that every family has k >= 2
#: speculative structure where it matters.
DEFAULT_WIDTH = 8


@dataclass(frozen=True)
class RegisteredAdder:
    """One conformance target: a named, width-parameterised adder family.

    ``kind`` is the family's stage tag for CLI listings — the spec's
    :meth:`~repro.spec.ir.AdderSpec.stage_tag` for catalog families
    (``exact``/``windowed``/``truncated``/``static:<approx>`` with
    ``+err``/``+rect`` suffixes), ``bespoke`` for hand-written models
    the IR cannot express.
    """

    key: str
    description: str
    build: Callable[[int], AdderModel]
    min_width: int = 2
    kind: str = "bespoke"

    def __call__(self, width: int) -> AdderModel:
        if width < self.min_width:
            raise ValueError(
                f"{self.key} needs width >= {self.min_width}, got {width}"
            )
        return self.build(width)

    def supports(self, width: int) -> bool:
        """Can this family be instantiated at ``width``?"""
        try:
            self(width)
        except (ValueError, TypeError):
            return False
        return True


def _from_spec_family(family: SpecFamily) -> RegisteredAdder:
    return RegisteredAdder(
        family.key,
        family.description,
        lambda w, _f=family: _f(w).to_model(),
        min_width=family.min_width,
        kind=family(family.min_width).stage_tag(),
    )


#: Families the spec IR cannot express, keyed by the catalog key they
#: should be listed after (keeping the historical registry ordering).
_EXTRA_ENTRIES = {
    "ksa": [
        RegisteredAdder("csla", "exact carry-select, 4-bit blocks",
                        lambda w: CarrySelectAdder(w, 4), min_width=1),
        RegisteredAdder("cska", "exact carry-skip, 4-bit blocks",
                        lambda w: CarrySkipAdder(w, 4), min_width=1),
    ],
    "aca2_l4": [
        RegisteredAdder("etai_half", "ETAI, lower half inaccurate",
                        lambda w: ErrorTolerantAdderI(w, w // 2), min_width=2),
    ],
}


def _registry_entries() -> List[RegisteredAdder]:
    entries: List[RegisteredAdder] = []
    for key, family in SPEC_CATALOG.items():
        entries.append(_from_spec_family(family))
        entries.extend(_EXTRA_ENTRIES.get(key, ()))
    return entries


def default_registry() -> Dict[str, RegisteredAdder]:
    """Key-ordered registry of every conformance target."""
    registry: Dict[str, RegisteredAdder] = {}
    for entry in _registry_entries():
        if entry.key in registry:  # pragma: no cover - defensive
            raise ValueError(f"duplicate registry key {entry.key!r}")
        registry[entry.key] = entry
    return registry


def registry_adder(key: str, width: int = DEFAULT_WIDTH) -> AdderModel:
    """Build one registered adder by key (CLI / test convenience)."""
    registry = default_registry()
    try:
        entry = registry[key]
    except KeyError:
        raise ValueError(
            f"unknown adder {key!r}; known: {', '.join(sorted(registry))}"
        ) from None
    return entry(width)


def select_entries(adders: Optional[List[str]] = None) -> List[RegisteredAdder]:
    """Resolve a list of registry keys (None = everything) to entries.

    An empty list selects no entries.
    """
    registry = default_registry()
    if adders is None:
        return list(registry.values())
    selected = []
    for key in adders:
        if key not in registry:
            raise ValueError(
                f"unknown adder {key!r}; known: {', '.join(sorted(registry))}"
            )
        selected.append(registry[key])
    return selected
