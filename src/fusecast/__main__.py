"""``python -m fusecast``: the command-line interface of :mod:`fusecast.cli`."""

from .cli import entry

if __name__ == "__main__":
    entry()
