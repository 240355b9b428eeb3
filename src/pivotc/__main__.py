import gc

gc.disable()  # a command's modules load with no collection; cli.main keeps it off

from .cli import entry

entry()
