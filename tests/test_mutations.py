"""Mutation gate: every signed term of the curvature tables and every
coefficient of a linear relation is read by some verdict.

A mutant changes one number and nothing else:

* the sign of one rank-one term of ``curvature.R_TERMS``,
  ``invariants.H_TERMS`` or ``invariants.RG_TERMS``;
* the sign of one coefficient of a ``LinearRelation``, or its size (times
  1.1), which a sign flip cannot show.

Each mutant runs ``identity_suite`` on the charts of ``CHARTS`` and must fail
at least one row there, unless ``SURVIVORS`` lists it with its reason.  A
listed mutant that is now caught fails the gate too, so the list can only
shrink; today it is empty.  The census, one line per mutant with the first
chart that catches it or the reason it survives, is

    PYTHONPATH=src python tests/test_mutations.py
"""

import contextlib
import sys

import pytest

from charts import cp1_times_ch1
from qsc_lab import curvature, invariants
from qsc_lab.diff import DiffConfig
from qsc_lab.geometry import manifold_by_name, parse_generator_spec, sample_points
from qsc_lab.invariants import IDENTITY_CATALOG, LinearRelation, identity_suite

TABLES = {
    "R_TERMS": curvature.R_TERMS,
    "H_TERMS": invariants.H_TERMS,
    "RG_TERMS": invariants.RG_TERMS,
}
GENERATORS = "zero,linear_j,grad,random_poly:3"
# P vanishes on every complex space form of the catalog; CP^1 x CH^1 reads P
CHART_NAMES = ("flat", "fs", "hyperbolic", "conformal-nonkahler", "cp1xch1")

# (table, kind, index) -> why flipping that term's sign changes no verdict
SURVIVORS: dict[tuple, str] = {}

RELATIONS = {
    ident: entry.evaluate
    for ident, entry in IDENTITY_CATALOG.items()
    if isinstance(entry.evaluate, LinearRelation)
}
# (source, key, index, operation): source a table or "LinearRelation", key a
# kind, a tensor name or an identity id
MUTANTS = [
    (source, key, index, "flip")
    for source, table in TABLES.items()
    for key, terms in table.items()
    for index in range(len(terms))
] + [
    ("LinearRelation", ident, index, op)
    for op in ("flip", "scale")
    for ident, relation in RELATIONS.items()
    for index in range(len(relation.terms))
]


def _chart(name: str):
    m = cp1_times_ch1() if name == "cp1xch1" else manifold_by_name(name, k=2)
    gens = [parse_generator_spec(spec, m.n) for spec in GENERATORS.split(",")]
    return m, sample_points(m, 2, seed=0), gens


CHARTS = {name: _chart(name) for name in CHART_NAMES}


def _rows_pass(name: str) -> bool:
    m, points, gens = CHARTS[name]
    return all(r.passed.all() for r in identity_suite(m, points, gens, DiffConfig()))


def _changed(c, factor: float):
    """The coefficient c, a number or a function of n, times `factor`."""
    return lambda n: factor * (c(n) if callable(c) else c)


@contextlib.contextmanager
def mutated(source: str, key, index: int, op: str):
    """The package with one term of `source` changed, restored on exit."""
    if source == "LinearRelation":
        holder, slot = vars(RELATIONS[key]), "terms"
    else:
        holder, slot = TABLES[source], key
    original = holder[slot]
    c, *rest = original[index]
    changed = _changed(c, -1.0 if op == "flip" else 1.1)
    holder[slot] = original[:index] + ((changed, *rest),) + original[index + 1 :]
    try:
        yield
    finally:
        holder[slot] = original


def first_catch(mutant) -> str | None:
    """The first chart on which the mutant fails a row, or None."""
    with mutated(*mutant):
        return next((name for name in CHARTS if not _rows_pass(name)), None)


@pytest.mark.parametrize("name", CHART_NAMES)
def test_every_row_passes_unmutated(name):
    assert _rows_pass(name)


def test_mutants_cover_every_term_and_the_survivors_name_table_terms():
    assert sum(len(terms) for table in TABLES.values() for terms in table.values()) == 64
    assert sum(len(r.terms) for r in RELATIONS.values()) == 33
    assert len(MUTANTS) == 64 + 2 * 33
    assert set(SURVIVORS) <= {m[:3] for m in MUTANTS if m[0] in TABLES}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: "-".join(map(str, m)))
def test_mutant_fails_a_row_unless_listed(mutant):
    caught = first_catch(mutant)
    if mutant[:3] in SURVIVORS:
        assert caught is None, f"caught on {caught}: take it off SURVIVORS"
    else:
        assert caught is not None, "survives every chart"


if __name__ == "__main__":
    wrong = 0
    for mutant in MUTANTS:
        caught = first_catch(mutant)
        listed = mutant[:3] in SURVIVORS
        wrong += listed == (caught is not None)
        reason = SURVIVORS.get(mutant[:3], "NOT LISTED")
        verdict = f"caught by {caught}" if caught else f"survives: {reason}"
        print(*mutant, verdict)
    sys.exit(1 if wrong else 0)
