"""Agreement of p-adic truncations: a test-only helper.

``agrees_with`` compares two truncations modulo a power of p through
truncation subtraction.
"""

from padicqm.analytic import PadicTruncation


def agrees_with(a: PadicTruncation, b: PadicTruncation, modulo: int) -> bool:
    """True when both values coincide modulo p^modulo."""
    diff = a - b
    return diff.is_zero_mod or diff.valuation >= modulo
