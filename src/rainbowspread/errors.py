"""The base class of the library's own exceptions.

Each subclass also keeps its builtin base (ValueError or RuntimeError),
so existing handlers keep their meaning; the CLI catches this class and
reports it as a usage or input error.
"""


class RainbowSpreadError(Exception):
    pass
