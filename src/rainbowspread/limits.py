"""The one size policy of every array stage.

`BLOCK_ELEMENTS` bounds one block of array work: a stage whose rows hold
e elements works on `block_rows(e)` rows at a time.  `MEMORY_BYTES`
bounds one table built before a stage runs, checked in bytes before it
is allocated.  Stages read both when they run, so setting them here
takes effect everywhere.
"""

from .errors import RainbowSpreadError

BLOCK_ELEMENTS = 1 << 17
MEMORY_BYTES = 1 << 30


class LimitExceeded(RainbowSpreadError, RuntimeError):
    pass


def block_rows(elements_per_row: int) -> int:
    """Rows per block for rows of this many elements; at least one."""
    return max(1, BLOCK_ELEMENTS // max(elements_per_row, 1))


def check_bytes(need: int, what: str, hint: str) -> None:
    """Refuse a table of `need` bytes above MEMORY_BYTES, before it exists."""
    if need > MEMORY_BYTES:
        raise LimitExceeded(f"{what} need {need} bytes, above the budget of {MEMORY_BYTES}; {hint}")
