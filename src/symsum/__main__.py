"""``python -m symsum``: the same command line as the ``symsum`` script."""

from .search_cli import console_entry

if __name__ == "__main__":
    console_entry()
