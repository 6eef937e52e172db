"""Set-up probe: a fresh interpreter does what a benchmark run does before
its first timed call, then prints "ready".  run.py times it from spawn to
that line, so the figure includes interpreter start-up."""

import workloads

workloads.prepare()
print("ready", flush=True)
