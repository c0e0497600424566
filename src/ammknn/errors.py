"""The package's two fault families, one per CLI exit code.

ConfigError (exit 2): the configuration or generator spec cannot drive
the run. It is missing, unreadable, not JSON, holds an unknown key or a
value out of range, names one column for two roles, or names a column
the input does not have, or an aggregation group like one it has.

DataError (exit 3): the input cannot be scored. A file is missing,
unreadable or malformed, a row has the wrong number of fields, a cell is
missing, non-numeric or non-finite, a training table has no feature
columns or fewer than 2 rows, a cohort's columns differ from training's,
or an operation's precondition fails.

Each fault's family is chosen where it is raised, and nothing
downstream translates it; the message names the file, row, column,
stanza or key at fault.
"""


class ConfigError(Exception):
    """Invalid pipeline configuration or generator spec."""


class DataError(Exception):
    """Invalid input data or violated operation precondition."""
