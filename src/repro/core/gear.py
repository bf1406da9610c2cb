"""The GeAr adder model of §3.1.

A GeAr adder is fully defined by three parameters ``(N, R, P)``:

* ``N`` — operand width,
* ``R`` — resultant bits contributed by each speculative sub-adder,
* ``P`` — previous (carry-prediction) bits per sub-adder,
* derived: sub-adder length ``L = R + P`` and sub-adder count
  ``k = (N - L) / R + 1`` (Eq. 1).

The first sub-adder covers bits ``[L-1:0]`` and contributes all L bits
(Eq. 2); sub-adder ``i`` (1 < i <= k) covers ``[R·i+P-1 : R·(i-1)]`` and
contributes its top R bits (Eq. 3).  That layout is built in one place,
:func:`repro.spec.catalog.gear_spec`; this module keeps the parameters,
their validation and the paper's notation.

When ``(N - L)`` is not a multiple of ``R`` the paper still evaluates the
configuration (Table IV uses R = 3, 6, 7 with N = 20, L = 10): its error
model simply uses ``k - 1 = ceil((N - L)/R)`` speculative sub-adders.  We
support this with ``allow_partial=True``: the last sub-adder is anchored at
the top of the word (``high = N-1``) and contributes the remaining
``< R`` result bits.  Strict mode (default) raises instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.utils.validation import check_pos_int


@dataclass(frozen=True)
class GeArConfig:
    """An (N, R, P) GeAr configuration.

    Attributes:
        n: operand width N.
        r: resultant bits per speculative sub-adder.
        p: previous (carry-prediction) bits per sub-adder.
        allow_partial: accept configurations where ``(N - L) % R != 0`` by
            shortening the last sub-adder's result field (see module doc).
    """

    n: int
    r: int
    p: int
    allow_partial: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        check_pos_int("n", self.n)
        check_pos_int("r", self.r)
        check_pos_int("p", self.p)
        if self.L > self.n:
            raise ValueError(
                f"sub-adder length L=R+P={self.L} exceeds operand width N={self.n}"
            )
        if not self.allow_partial and (self.n - self.L) % self.r != 0:
            raise ValueError(
                f"(N-L) = {self.n - self.L} is not a multiple of R = {self.r}; "
                "pass allow_partial=True to accept a shortened last sub-adder"
            )

    # -- derived quantities (paper notation) --------------------------------

    @property
    def L(self) -> int:
        """Sub-adder length L = R + P."""
        return self.r + self.p

    @property
    def k(self) -> int:
        """Sub-adder count, Eq. 1 (rounded up in partial mode)."""
        return math.ceil((self.n - self.L) / self.r) + 1

    @property
    def is_exact(self) -> bool:
        """A single sub-adder spanning the whole word is an exact adder."""
        return self.k == 1

    @property
    def speculative_subadders(self) -> int:
        """Sub-adders whose carry is predicted rather than propagated."""
        return self.k - 1

    def describe(self) -> str:
        """Compact human-readable summary, e.g. ``GeAr(N=12, R=4, P=4), k=2``."""
        return f"GeAr(N={self.n}, R={self.r}, P={self.p}), L={self.L}, k={self.k}"

    @classmethod
    def from_triple(cls, n: int, r: int, p: int) -> "GeArConfig":
        """The (N, R, P) a user names; partial when R does not divide N-L."""
        strict = r > 0 and (n - r - p) % r == 0
        return cls(n, r, p, allow_partial=not strict)

    @classmethod
    def from_sub_adder_length(cls, n: int, r: int, sub_adder_len: int,
                              allow_partial: bool = False) -> "GeArConfig":
        """Build a config from (N, R, L) instead of (N, R, P)."""
        if sub_adder_len <= r:
            raise ValueError(
                f"sub-adder length {sub_adder_len} must exceed R={r}"
            )
        return cls(n, r, sub_adder_len - r, allow_partial=allow_partial)


def labelled_model(spec, name: str, config: Optional[GeArConfig] = None):
    """``spec.to_model()`` under the paper's label, with its GeAr point.

    ``name`` reaches experiment JSON and served bodies; ``config`` is what
    :func:`repro.core.error_model.paper_error_probability` evaluates.
    """
    model = spec.to_model()
    model.name = name
    if config is not None:
        model.config = config
    return model


def GeArAdder(config: GeArConfig):
    """The behavioural model of a GeAr configuration.

    Returns ``gear_spec(...).to_model()`` — a
    :class:`~repro.spec.model.SpecAdder` labelled with the paper's name
    (``GeAr(N=12,R=4,P=4)``) and carrying ``config``, from which
    :func:`repro.core.error_model.paper_error_probability` evaluates the
    §3.2 model.  Behaves bit-exactly like the paper's architecture,
    including the speculative carry out, and vectorises over NumPy arrays.
    """
    # Lazy: the spec catalog validates GeAr points through GeArConfig, so
    # this module cannot import it at load time.
    from repro.spec.catalog import gear_spec

    return labelled_model(
        gear_spec(config.n, config.r, config.p,
                  allow_partial=config.allow_partial),
        f"GeAr(N={config.n},R={config.r},P={config.p})", config)
