"""One timed command in a fresh process: ``python child.py SPEC.json``.

Runs what ``radrep extract`` or ``radrep analyze`` + ``radrep plotdata``
run, with the set-up (``radrep`` import plus ``load_manifest``, or the
input glob for analysis) before the ``ready`` stamp and the command
after it. The stamp is ``time.monotonic()``, which on Linux is the
system-wide CLOCK_MONOTONIC, so the parent can subtract its own stamp
taken before it spawned this process. Writes a JSON result to the
spec's ``result`` path; a traced command's result also holds its spans.
"""

import contextlib
import glob
import json
import sys
import time
from pathlib import Path


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import radrep.pipeline as pipeline

    src = Path(spec["src"]).resolve()
    if src not in Path(pipeline.__file__).resolve().parents:
        raise SystemExit(f"radrep imported from {pipeline.__file__}, not {src}")
    out = Path(spec["out"])
    if spec["command"] == "extract":
        manifest = pipeline.load_manifest(spec["manifest"])
    else:
        csv_paths = sorted(glob.glob(spec["csv_glob"]))

    if spec["traced"]:
        from tracing import Tracer
        tracing = Tracer()
    else:
        tracing = contextlib.nullcontext()
    failures = 0
    with tracing as tracer:
        ready = time.monotonic()
        start = time.perf_counter()
        if spec["command"] == "extract":
            _, failed = pipeline.extract_run(manifest, out / "features",
                                             jobs=spec["jobs"])
            failures = len(failed)
        else:
            pipeline.analyze_run(csv_paths, out / "reports",
                                 compare=tuple(spec["compare"]))
            pipeline.plotdata_run(out / "reports", out / "plots")
        command_s = time.perf_counter() - start
    result = {"ready": ready, "command_s": command_s, "failures": failures}
    if tracer is not None:
        result["spans"] = tracer.to_records()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
