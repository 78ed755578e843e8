import gc
import sys

from observkit.cli import main


def run():
    code = main()
    gc.freeze()  # the exit's last collection then skips the import-time heap
    sys.exit(code)


if __name__ == "__main__":
    run()
