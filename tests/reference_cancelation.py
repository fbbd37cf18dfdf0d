"""The cancelation iteration on objects, as the paper states it: apply the
telescoping map until the orbit lands in the target set.

The library walks the MacMahon cancelation as ints
(macmahon.cancelation_certificate), so this serves the tests only: the
reference for the tagged walk that the int walk is checked against.
"""

from typing import Any, Callable

from qtelescope.telescope import IterationBudgetExceeded


def cancelation_psi(phi: Callable[[Any], Any],
                    start: Any,
                    b_membership: Callable[[Any], bool],
                    max_iter: int) -> Any:
    """Iterate phi from start and return the first iterate landing in B.

    phi must be total on the union the orbit walks through.  Raises
    IterationBudgetExceeded after max_iter applications without landing,
    which signals a cycle or unbounded orbit in the supplied map.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    current = start
    for _ in range(max_iter):
        current = phi(current)
        if b_membership(current):
            return current
    raise IterationBudgetExceeded.no_landing(max_iter, start)
