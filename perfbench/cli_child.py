"""Run one `tautres` CLI call in this process, as `python -m tautres.cli` would.

Usage: cli_child.py ITEM_ID CLI_ARGS...    (ITEM_ID "-" runs untraced)

The CLI's output goes to stdout unchanged.  The last stderr line starts
with REPORT_MARKER and holds JSON: this process's peak resident memory,
the spans when traced, and when untraced the reference-kernel samples
taken while the CLI ran (speed.py), so the parent can scale and correct
this call's CPU time.  The peak is read here because the parent's
rusage for a child also counts the parent's own pages from before exec.
"""

import json
import resource
import sys

REPORT_MARKER = "#perfbench-report "


def peak_rss_kb() -> int:
    """VmHWM: the high-water mark of this program's own address space."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(argv: list) -> int:
    import tautres.cli

    try:
        code = tautres.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code if isinstance(code, int) else (0 if code is None else 1)


def main() -> int:
    item, argv = sys.argv[1], sys.argv[2:]
    spans = ref = None
    if item == "-":
        from speed import Speed  # imports nothing the CLI does not

        speed = Speed()
        with speed.probing():
            code = run_cli(argv)
        speed.sample()  # so that calls shorter than the probe interval are sampled too
        ref = speed.report()
    else:
        import tautres.cli  # noqa: F401  (imported before tracing, as untraced calls do)
        import tracer  # only here, so that untraced calls import what a user's would

        t = tracer.Tracer()
        t.item = item
        with tracer.installed(t):
            idx = t.open("cli")
            try:
                code = run_cli(argv)
            finally:
                t.close(idx)
        spans = t.spans
    sys.stdout.flush()
    report = {"peak_rss_kb": peak_rss_kb(), "spans": spans, "ref": ref}
    sys.stderr.write(REPORT_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
