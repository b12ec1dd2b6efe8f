"""``python -m crtasep``: the same command line as the ``crtasep`` script."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
