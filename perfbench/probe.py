"""One fresh-process metaline invocation that also reports its set-up time.

Usage: ``python3 perfbench/probe.py <metaline arguments...>`` with the
package on PYTHONPATH.  It does what the ``metaline`` entry point does
(import ``metaline.cli``, call ``main``), after first parsing the config
once more to timestamp the end of set-up.  ``--setup-only`` stops there.
The last stdout line is JSON with wall-clock timestamps: ``t_entry``
(first statement), ``t_import`` (after the import) and ``t_parsed``.
"""

import time

t_entry = time.time()

import json  # noqa: E402
import sys  # noqa: E402

import metaline.cli as cli  # noqa: E402

t_import = time.time()
argv = sys.argv[1:]
setup_only = "--setup-only" in argv
if setup_only:
    argv.remove("--setup-only")
cli.parse_config(argv[argv.index("--config") + 1])
t_parsed = time.time()
rc = 0 if setup_only else cli.main(argv)
print(json.dumps({"t_entry": t_entry, "t_import": t_import,
                  "t_parsed": t_parsed, "rc": rc, "module": cli.__file__}))
sys.exit(rc)
