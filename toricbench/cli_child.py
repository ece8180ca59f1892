"""Run one toricctl command under the benchmark tracer and write its spans.

Usage: python3 toricbench/cli_child.py SPANS_OUT ARG...

ARG... are toricctl arguments, as after ``python -m toricstab.cli``.  The
package is found through PYTHONPATH; the exit code is toricctl's.
"""

import sys

import tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    mods = tracer.load_layers()
    tr = tracer.Tracer(mods)
    tr.install()
    code = 0
    try:
        code = mods["cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tr.uninstall()
        tracer.write_spans(out_path, [tr.snapshot()])
        sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
