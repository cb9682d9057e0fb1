"""Property checks shared by ``speedup-learn verify --all`` and the
acceptance tests.

Each check returns ``(ok, detail)``.  Callers pass in the expensive inputs
(the 181 440 boards, the exhaustive table) and their own random streams and
counts, so each caller draws exactly the instances it always has.  The
integration domain's numeric value and symbolic derivative live here too,
written independently of its rewrite operators so they can check them.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Optional

from . import eight_puzzle as ep
from . import integration
from .core import frozen_between_units, sample_size
from .errors import ParameterError
from .grammar import msg
from .integration import (
    COS, DIFF, NAMED, NEG, NUM, ONE, POWER, PROD, QUOT, SIN, SUM, VAR, ZERO,
    Expr, _bottom_up, add, cosx, div, mul, neg, num, powx, sinx, sub,
)
from .macro_tables import MacroTable, check_serial_decomposability, verify_table, walk_columns


def check_count(name: str, value, low: int = 0) -> int:
    """``value`` if it is an integer of at least ``low``, else ParameterError."""
    if not isinstance(value, int) or value < low:
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def sample_bounds():
    """bound(0.1, 0.1, 81) = 585 and bound(0.1, 0.1, 35) = 266."""
    got = (sample_size(0.1, 0.1, 81), sample_size(0.1, 0.1, 35))
    return got == (585, 266), f"{got[0]}/{got[1]}"


def msg_worked_example():
    """The msg of the two worked problems is ``∫ Trig + P-term d x``."""
    form = msg(integration.GRAMMAR, ["∫ ( sin x ) + ( x ^ 2 ) d x".split(),
                                     "∫ ( cos x ) + ( sin x ) d x".split()])
    return form.symbols == ("∫", "Trig", "+", "P-term", "d", "x"), " ".join(form.symbols)


def state_count(boards):
    """There are 181 440 = 9!/2 solvable boards."""
    return len(boards) == 181440 == math.factorial(9) // 2, str(len(boards))


def decomposability(boards):
    """Blank-first is serially decomposable; blank-last fails with a witness."""
    domain = ep.domain_spec()
    ok, witness = check_serial_decomposability(domain, ep.blank_first_ordering(), boards)
    if not ok:
        return False, f"blank-first witness={witness}"
    ok, witness = check_serial_decomposability(domain, ep.blank_last_ordering(), boards)
    if ok:
        return False, "blank-last found decomposable"
    op_index, position, s_a, s_b = witness
    return True, (f"blank-last witness: operator {op_index} at ordered position {position}, "
                  f"boards {ep.board_to_text(s_a)} vs {ep.board_to_text(s_b)}")


def exhaustive_table(table: MacroTable, boards):
    """44 filled cells, 35 nonempty macros, and the macro-table property and
    nonredundancy over the boards."""
    counts = (table.filled_count(), table.nonempty_count())
    if counts != (44, 35):
        return False, f"{counts[0]} filled, {counts[1]} nonempty"
    ok, witness = verify_table(table, ep.domain_spec(), boards)
    return ok, f"witness={witness}" if witness else f"verified over {len(boards)} boards"


def subgoal_optimality(rng: random.Random, count: int, max_column: int,
                       table: Optional[MacroTable] = None):
    """IDA* subgoal lengths equal BFS ones on ``count`` random boards, each
    with a column drawn from 1..max_column.  With a table, each board is
    first walked through the table's earlier columns."""
    check_count("count", count)
    check_count("max_column", max_column, 1)
    if max_column > ep.N_TILES:
        raise ParameterError(f"max_column must be at most {ep.N_TILES}, got {max_column}")
    ordering = ep.blank_first_ordering()
    for _ in range(count):
        board = ep.random_solvable(rng)
        i = rng.randrange(1, max_column + 1)
        if table is not None:
            board = walk_columns(table, board, ep.apply_macro, last=i - 1)[1]
        got = len(ep.ida_star_subgoal(board, i, ordering))
        opt = len(ep.bfs_subgoal(board, i, ordering))
        if got != opt:
            return False, f"board {ep.board_to_text(board)} column {i}: IDA* {got}, BFS {opt}"
    return True, f"{count} subgoals"


def teacher_soundness(rng: random.Random, draws: int, numeric_checks: int):
    """The teacher normalizes ``draws`` random problems, and on the first
    ``numeric_checks`` the derivative of its answer equals the integrand at
    three points."""
    check_count("draws", draws)
    check_count("numeric_checks", numeric_checks)
    bad_solve = bad_numeric = 0
    with frozen_between_units() as freeze:
        for t in range(draws):
            freeze()
            p = integration.generate_problem(rng)
            record = integration.teacher_record(p)
            if record is None or not integration.is_goal(record.normal_form):
                bad_solve += 1
            elif t < numeric_checks:
                d = differentiate(record.normal_form)
                bad_numeric += not all(
                    math.isclose(numeric_value(d, x), numeric_value(p.args[0], x),
                                 rel_tol=1e-6, abs_tol=1e-9)
                    for x in (0.1, 0.5, 1.3))
    return bad_solve == bad_numeric == 0, (
        f"{bad_solve} of {draws} not normalized, "
        f"{bad_numeric} of {min(draws, numeric_checks)} numerically unsound")


# ---------------------------------------------------------------------------
# The integration domain's numeric and symbolic oracles, independent of its
# rewrite operators
# ---------------------------------------------------------------------------


_ARITH = {SUM: operator.add, DIFF: operator.sub, PROD: operator.mul,
          QUOT: operator.truediv, POWER: operator.pow}


def numeric_value(e: Expr, x: float) -> float:
    """The value of ``e`` at ``x``, an int or float, subterm by subterm on
    ``_bottom_up``."""
    if not isinstance(x, (int, float)):
        raise ParameterError(f"x must be an int or float, got {x!r}")
    value: dict = {}

    def make(n: Expr) -> float:
        k, l, r = n.kind, n.args[0], n.args[-1]
        if k == NUM:
            return float(l)
        if k == VAR:
            return x
        if k == SIN:
            return math.sin(x)
        if k == COS:
            return math.cos(x)
        if k == NEG:
            return -value[l]
        if k in _ARITH:
            return _ARITH[k](value[l], value[r])
        raise ParameterError(f"cannot evaluate {k} node numerically")

    try:
        return _bottom_up(e, value, make)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"cannot evaluate numerically: {exc}") from exc


def differentiate(e: Expr) -> Expr:
    """Symbolic d/dx, independent of the rewrite operators, subterm by
    subterm on ``_bottom_up``."""
    d: dict = {}

    def make(n: Expr) -> Expr:
        k, l, r = n.kind, n.args[0], n.args[-1]
        if k in (NUM, NAMED):
            return ZERO
        if k == VAR:
            return ONE
        if k == SIN:
            return cosx()
        if k == COS:
            return neg(sinx())
        if k == NEG:
            return neg(d[l])
        if k == SUM:
            return add(d[l], d[r])
        if k == DIFF:
            return sub(d[l], d[r])
        if k == PROD:
            return add(mul(d[l], r), mul(l, d[r]))
        if k == QUOT:
            return div(sub(mul(d[l], r), mul(l, d[r])), mul(r, r))
        if k != POWER:
            raise ParameterError(f"cannot differentiate {k} node")
        if r.kind != NUM:
            raise ParameterError("can only differentiate integer powers")
        m = r.args[0]
        if m == 0:
            return ZERO
        return mul(r, powx(num(m - 1)) if m != 1 else ONE)

    return _bottom_up(e, d, make)
