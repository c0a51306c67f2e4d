"""``python -m lrsdp``: the ``lrsdp`` command line, as the console script
runs it."""

from .io_cli import main

main()
