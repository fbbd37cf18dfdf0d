"""Every one-unit fault in a packed rule's shift fails its certificate.

A mutant adds or takes away one unit of one field to the shift of one
row of a map's table: an Andrews table (andrews12._phi_table,
_involution_table) or the MacMahon step's (macmahon._step_table), whose
rows the cancelation composes; the identity rows are mutated too.  The
fields are the marker (MacMahon: the flag), the row count (the side,
and the length), and one lam part or one mu part.  A map and its
inverse read the same table, so a mutant moves both.  Each mutant runs its certificate on a small grid that reaches every
row, one index after another, and must fail at one of them: a failed
certificate, not an exception.  The sweep runs in a child interpreter, so
that a mutant that hangs fails the test at its time bound instead of
stalling the suite.

The hand-written MUTATIONS (test_andrews12) and STEP_MUTATIONS
(test_macmahon) stay: they pin each case's reason and where its
counterexample shows.  A cancelation orbit that leaves every box or runs
out of budget fails its certificate too (test_streaming pins one of
each), so a cancelation mutant may not raise either.
"""

import json
import time
from itertools import chain
from pathlib import Path

import pytest

from qtelescope import andrews12, macmahon
from qtelescope.telescope import first_match

from test_streaming import run_child

MUTANT_SECONDS = 5.0  # the slowest mutant's bound; the sweep's is the child's timeout


def andrews_fields(n):
    """field name -> its unit at a layout: the marker, the row count, lam
    parts 1 .. 2n+1 and mu parts 2 .. 2n+2."""
    fields = {"marker": lambda lay: 1, "rows": lambda lay: 1 << lay.rows}
    fields.update({f"lam {p}": lambda lay, p=p: lay.part(p) for p in range(1, 2 * n + 2)})
    fields.update({f"mu {p}": lambda lay, p=p: lay.mu.unit(p)
                   for p in range(2, 2 * n + 3, 2)})
    return fields


def macmahon_fields(bound):
    """field name -> its unit at a layout: the flag, the side, the length
    and mu parts 2 .. bound + 2."""
    fields = {"flag": lambda lay: macmahon._MARKED, "side": lambda lay: 1 << macmahon._SIDE,
              "length": lambda lay: 1 << lay.length}
    fields.update({f"mu {p}": lambda lay, p=p: lay.mu.unit(p)
                   for p in range(2, bound + 3, 2)})
    return fields


def shifted_row(table, row, unit):
    """A table factory like `table` (its last argument the layout) whose
    row `row` shifts by unit(lay) more.  Rows count from the end, as
    test_every_table_grid_reaches_every_row counts them; at k = 0 the
    guards of phi's embedded, B, marked and C rows pass no int, and a
    mutant of those rows changes nothing there."""
    def factory(*args):
        rows = table(*args)
        if row >= -len(rows):
            case, guard, shift, *image = rows[row]
            rows[row] = (case, guard, shift + unit(args[-1]), *image)
        return rows
    return factory


def row_mutants(module, name, rows, fields):
    """(mutant id, attribute, its replacement) for each of the last `rows`
    rows of the table `name` of module and each field unit of `fields`,
    both signs."""
    true_table = getattr(module, name)
    for row in range(-rows, 0):
        for field, unit in fields.items():
            for sign in (1, -1):
                yield (f"{name} row {row} {'+-'[sign < 0]}{field}", name,
                       shifted_row(true_table, row, lambda lay, u=unit, s=sign: s * u(lay)))


def andrews_mutants(name, grid):
    """row_mutants of the Andrews table `name`, every row and every field
    unit at the largest n of the grid."""
    rows = len(getattr(andrews12, name)(*grid[0][:2], andrews12._layout(grid[0][0], 0)))
    return row_mutants(andrews12, name, rows, andrews_fields(max(n for n, _, _ in grid)))


def step_mutants(index_of, grid):
    """row_mutants of the MacMahon step's table, both rows and every field
    unit, mu parts up to the grid's largest bound plus 2."""
    bound = max(box[1] for index in grid for box in index_of(*index)[:2])
    box, neighbour, marker = index_of(*grid[0])
    rows = len(macmahon._step_table(box, neighbour, macmahon._step_layout(box, neighbour, marker)))
    return row_mutants(macmahon, "_step_table", rows, macmahon_fields(bound))


# sweep name -> (module, certificate, grid, mutants)
PHI_GRID = [(4, 2, 30), (4, 1, 30), (3, 0, 20), (5, 2, 30)]
INVOLUTION_GRID = [(3, 2, 20), (3, 3, 20), (4, 4, 24)]
STEP_PHI_GRID = [(3, 2, 1), (2, 2, -1), (3, 1, 0)]
STEP_PSI_GRID = [(4, 2), (3, 0), (5, 4)]
CANCELATION_GRID = [(2, 2), (3, 1), (1, 3)]
SWEEPS = {
    "andrews-phi": (andrews12, andrews12.phi_certificate, PHI_GRID,
                    lambda: andrews_mutants("_phi_table", PHI_GRID)),
    "andrews-involution": (andrews12, andrews12.involution_certificate, INVOLUTION_GRID,
                           lambda: andrews_mutants("_involution_table", INVOLUTION_GRID)),
    "macmahon-phi": (macmahon, macmahon.phi_certificate, STEP_PHI_GRID,
                     lambda: step_mutants(macmahon._phi_index, STEP_PHI_GRID)),
    "macmahon-psi": (macmahon, macmahon.psi_certificate, STEP_PSI_GRID,
                     lambda: step_mutants(macmahon._psi_index, STEP_PSI_GRID)),
    # the cancelation's last step runs at index n + 1, whose box has the
    # largest bound
    "macmahon-cancelation": (macmahon, macmahon.cancelation_certificate, CANCELATION_GRID,
                             lambda: step_mutants(lambda n, m: macmahon._phi_index(n, m, n + 1),
                                                  CANCELATION_GRID)),
}


def sweep(name):
    """{"mutants": how many ran, "seconds": the slowest one's time,
    "kept": {mutant id: "verified" or the exception} for each mutant that
    did not fail a certificate}."""
    module, certificate, grid, mutants = SWEEPS[name]
    assert all(certificate(*index).verified for index in grid)
    kept, count, slowest = {}, 0, 0.0
    for mutant, attribute, replacement in mutants():
        true_value = getattr(module, attribute)
        setattr(module, attribute, replacement)
        started = time.monotonic()
        try:
            if all(certificate(*index).verified for index in grid):
                kept[mutant] = "verified"
        except Exception as raised:  # noqa: BLE001 - any exception is a finding
            kept[mutant] = repr(raised)
        finally:
            setattr(module, attribute, true_value)
        slowest = max(slowest, time.monotonic() - started)
        count += 1
    return {"mutants": count, "seconds": slowest, "kept": kept}


@pytest.mark.parametrize("name", SWEEPS)
def test_every_mutant_fails_its_certificate(name):
    result = json.loads(run_child(f"""
        import json, sys
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        from test_mutation_sweep import sweep
        print(json.dumps(sweep({name!r})))
    """, timeout=120))
    assert result["mutants"] > 0
    assert result["kept"] == {}
    assert result["seconds"] < MUTANT_SECONDS, result


def table_slices(sweep):
    """(rows, packed domain) of each index of a sweep's grid, its table's
    rows there: an Andrews map's domain, or a MacMahon step's box and its
    neighbour's boundary."""
    _, _, grid, _ = SWEEPS[sweep]
    if sweep.startswith("andrews"):
        table = getattr(andrews12, f"_{sweep.removeprefix('andrews-')}_table")
        for n, k, cap in grid:
            lay = andrews12._layout(n, cap)
            yield table(n, k, lay), andrews12._enum_packed(andrews12._domain(n, k), cap, lay)
        return
    index_of = macmahon._phi_index if sweep == "macmahon-phi" else macmahon._psi_index
    for index in grid:
        box, neighbour, marker = index_of(*index)
        lay = macmahon._step_layout(box, neighbour, marker)
        yield macmahon._step_table(box, neighbour, lay), chain(
            macmahon._enum_packed(box, lay), macmahon._enum_packed(neighbour, lay, edge=True))


@pytest.mark.parametrize("sweep", ["andrews-phi", "andrews-involution", "macmahon-phi",
                                   "macmahon-psi"])
def test_every_table_grid_reaches_every_row(sweep):
    # each row is the first match of an element of its table's grid; rows
    # count from the end, as the mutants count them
    reached, counts = set(), set()
    for rows, domain in table_slices(sweep):
        row_of, read = first_match((guard, i - len(rows)) for i, (_, guard, *_) in enumerate(rows))
        reached.update(row_of[x & read] for x in domain)
        counts.add(len(rows))
    (count,) = counts
    assert reached == set(range(-count, 0))
