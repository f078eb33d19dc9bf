"""`python -m loophomology`: the command-line front end of cli.main.

The call is guarded so that importing this module, as a walk over the
package's modules does, runs nothing.
"""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
