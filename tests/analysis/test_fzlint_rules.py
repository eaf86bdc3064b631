"""Per-rule contract tests: every rule fires on a known-bad fixture and
stays silent on the known-good twin."""

from __future__ import annotations

from conftest import rules_fired


# --------------------------------------------------------------------- #
# FZL001 kernel purity                                                   #
# --------------------------------------------------------------------- #
BAD_PURITY = """
_TABLE = {}
COUNT = 0

def memoised(x):
    _TABLE[x] = x * 2
    return _TABLE[x]

def bump():
    global COUNT
    COUNT += 1

def enrol(entry):
    _TABLE.update(entry)
"""

GOOD_PURITY = """
import numpy as np

_LIMIT = 64  # read-only module constant

def kernel(x, table=None):
    table = {} if table is None else table
    table[0] = x
    np.add(x, 1, out=x)  # module *call*, not module mutation
    return x + _LIMIT
"""


def test_fzl001_fires_on_module_state_writes(lint):
    result = lint({"kernels/bad.py": BAD_PURITY})
    assert rules_fired(result) == {"FZL001"}
    assert len(result.findings) == 3  # subscript write, global, .update()


def test_fzl001_silent_on_pure_kernel(lint):
    assert lint({"kernels/good.py": GOOD_PURITY}).findings == []


def test_fzl001_scoped_to_kernels_dir(lint):
    assert lint({"core/bad.py": BAD_PURITY}).findings == []


# --------------------------------------------------------------------- #
# FZL002 out= contract                                                   #
# --------------------------------------------------------------------- #
BAD_OUT_IGNORED = """
def scale(x, *, out=None):
    return x * 2.0
"""

BAD_OUT_NOT_RETURNED = """
def scale(x, *, out=None):
    if out is not None:
        out[...] = x * 2.0
    return x * 2.0
"""

GOOD_OUT = """
def scale(x, *, out=None):
    if out is None:
        out = x * 2.0
    else:
        out[...] = x * 2.0
    return out

def scale_view(x, *, out=None):
    flat = x if out is None else out.reshape(-1)[: x.size]
    flat[...] = x * 2.0
    return flat.reshape(x.shape)

def pack(out):
    # positional arg *named* out without a None default is not the
    # buffer protocol (e.g. an OutlierSet operand)
    return out.count
"""


def test_fzl002_fires_when_out_is_ignored(lint):
    result = lint({"anywhere.py": BAD_OUT_IGNORED})
    assert rules_fired(result) == {"FZL002"}
    assert "never reads" in result.findings[0].message


def test_fzl002_fires_when_out_is_never_returned(lint):
    result = lint({"anywhere.py": BAD_OUT_NOT_RETURNED})
    assert rules_fired(result) == {"FZL002"}
    assert "return" in result.findings[0].message


def test_fzl002_silent_on_honoured_contract(lint):
    assert lint({"anywhere.py": GOOD_OUT}).findings == []


# --------------------------------------------------------------------- #
# FZL003 plan-cache safety                                               #
# --------------------------------------------------------------------- #
BAD_CACHE = """
def hot(cache, key, build):
    plan = cache.get_or_build(key, build)
    plan[0] = 99
    return plan

def unlock(cache, key, build):
    plan = cache.get_or_build(key, build)
    plan.setflags(write=True)
    return plan

def alias_out(np, cache, key, build, x):
    plan = cache.get_or_build(key, build)
    np.add(x, 1, out=plan)
    return plan
"""

GOOD_CACHE = """
def hot(cache, key, build):
    plan = cache.get_or_build(key, build)
    fresh = plan.astype("int64")
    fresh[0] = 99
    return fresh

def lock(cache, key, build):
    plan = cache.get_or_build(key, build)
    plan.setflags(write=False)
    return plan
"""


def test_fzl003_fires_on_cached_plan_mutation(lint):
    result = lint({"anywhere.py": BAD_CACHE})
    assert rules_fired(result) == {"FZL003"}
    assert len(result.findings) == 3


def test_fzl003_silent_on_copy_then_mutate(lint):
    assert lint({"anywhere.py": GOOD_CACHE}).findings == []


# --------------------------------------------------------------------- #
# FZL004 shard determinism                                               #
# --------------------------------------------------------------------- #
BAD_DETERMINISM = """
import random
import time

import numpy as np


def pack(header):
    header["stamp"] = time.time()
    header["salt"] = random.random()
    header["noise"] = np.random.normal()
    for key in {"b", "a"}:
        header[key] = 1
    return header
"""

GOOD_DETERMINISM = """
import time


def pack(header, keys, rng):
    t0 = time.perf_counter()
    for key in sorted(set(keys)):
        header[key] = 1
    header["salt"] = rng.random()  # caller-seeded Generator
    header["seconds"] = time.perf_counter() - t0
    return header
"""


def test_fzl004_fires_on_nondeterminism_in_parallel(lint):
    result = lint({"parallel/bad.py": BAD_DETERMINISM})
    assert rules_fired(result) == {"FZL004"}
    assert len(result.findings) == 4  # time, random, np.random, set iter


def test_fzl004_applies_to_header_py_anywhere(lint):
    result = lint({"core/header.py": BAD_DETERMINISM})
    assert rules_fired(result) == {"FZL004"}


def test_fzl004_silent_outside_serialization_paths(lint):
    assert lint({"core/other.py": BAD_DETERMINISM}).findings == []


def test_fzl004_silent_on_deterministic_code(lint):
    assert lint({"parallel/good.py": GOOD_DETERMINISM}).findings == []


# --------------------------------------------------------------------- #
# FZL005 swallowed exceptions                                            #
# --------------------------------------------------------------------- #
BAD_SWALLOW = """
def load(path):
    try:
        return open(path).read()
    except Exception:
        return None

def load_bare(path):
    try:
        return open(path).read()
    except:
        return None
"""

GOOD_SWALLOW = """
def load(path, log):
    try:
        return open(path).read()
    except OSError:
        return None

def load_logged(path, log):
    try:
        return open(path).read()
    except Exception as exc:
        log.warning("load failed: %s", exc)
        return None

def load_reraise(path):
    try:
        return open(path).read()
    except Exception as exc:
        raise RuntimeError(f"loading {path}") from exc
"""


def test_fzl005_fires_on_swallowed_broad_except(lint):
    result = lint({"anywhere.py": BAD_SWALLOW})
    assert rules_fired(result) == {"FZL005"}
    assert len(result.findings) == 2


def test_fzl005_silent_on_narrow_logged_or_reraised(lint):
    assert lint({"anywhere.py": GOOD_SWALLOW}).findings == []


# --------------------------------------------------------------------- #
# FZL006 dtype discipline                                                #
# --------------------------------------------------------------------- #
BAD_DTYPE = """
import numpy as np


def center(x):
    return x - np.mean(x)


def widen(x):
    return x.astype(float)
"""

GOOD_DTYPE = """
import numpy as np


def center(x):
    return x - np.mean(x, dtype=x.dtype)


def widen(x):
    return x.astype(np.float32)
"""


def test_fzl006_fires_on_implicit_upcasts_in_kernels(lint):
    result = lint({"kernels/bad.py": BAD_DTYPE})
    assert rules_fired(result) == {"FZL006"}
    assert len(result.findings) == 2


def test_fzl006_silent_with_pinned_dtypes(lint):
    assert lint({"kernels/good.py": GOOD_DTYPE}).findings == []


def test_fzl006_scoped_to_kernels(lint):
    assert lint({"metrics/bad.py": BAD_DTYPE}).findings == []


# --------------------------------------------------------------------- #
# FZL007 registry contract                                               #
# --------------------------------------------------------------------- #
BAD_REGISTRY = """
class PredictorModule:
    pass


class Registry:
    def module(self, cls):
        return cls


reg = Registry()


@reg.module
class Mystery:
    pass


@reg.module
class HalfPredictor(PredictorModule):
    name = "half"

    def encode(self, data):
        return data
"""

GOOD_REGISTRY = """
class PredictorModule:
    pass


class Registry:
    def module(self, cls):
        return cls


reg = Registry()


@reg.module
class FullPredictor(PredictorModule):
    name = "full"

    def encode(self, data, eb_abs, radius):
        return data

    def decode(self, artifacts, shape, dtype, eb_abs, radius):
        return artifacts


class Unregistered:
    # no decorator, no contract to check
    pass
"""


def test_fzl007_fires_on_incomplete_registered_modules(lint):
    result = lint({"anywhere.py": BAD_REGISTRY})
    assert rules_fired(result) == {"FZL007"}
    messages = " | ".join(f.message for f in result.findings)
    assert "declare a `name`" in messages          # Mystery
    assert "declares no stage" in messages         # Mystery
    assert "missing PredictorModule.decode" in messages
    assert "passes 3" in messages                  # encode arity


def test_fzl007_silent_on_conforming_module(lint):
    assert lint({"anywhere.py": GOOD_REGISTRY}).findings == []


# --------------------------------------------------------------------- #
# FZL008 pool hygiene                                                    #
# --------------------------------------------------------------------- #
BAD_POOL = """
def leaky(pool, shape):
    buf = pool.acquire(shape, "f8")
    buf[...] = 0.0
    total = float(buf.sum())
    return total
"""

GOOD_POOL = """
def tidy(pool, shape):
    buf = pool.acquire(shape, "f8")
    try:
        buf[...] = 0.0
        return float(buf.sum())
    finally:
        pool.release(buf)


def handoff(pool, shape):
    buf = pool.acquire(shape, "f8")
    buf[...] = 0.0
    return buf  # ownership moves to the caller


def unrelated(queue):
    token = queue.acquire()  # not a pool: out of scope
    return None
"""


def test_fzl008_fires_on_leaked_pool_buffer(lint):
    result = lint({"anywhere.py": BAD_POOL})
    assert rules_fired(result) == {"FZL008"}
    assert "never released" in result.findings[0].message


def test_fzl008_silent_on_release_or_handoff(lint):
    assert lint({"anywhere.py": GOOD_POOL}).findings == []


# --------------------------------------------------------------------- #
# FZL009 telemetry hygiene                                               #
# --------------------------------------------------------------------- #
BAD_TELEMETRY = """
from repro.obs import span

def detached():
    s = span("stage.work")   # not a with-item: leaks on exceptions
    s.__enter__()
    return s

def manual(tracer):
    tracer.begin_span("stage.work")
    tracer.end_span()
"""

BAD_TELEMETRY_NAMES = """
from repro.obs import span

def run(registry, data):
    with span("Stage.Work"):          # uppercase: bad span name
        registry.counter("bytes-in").inc()   # dash: bad metric name
"""

GOOD_TELEMETRY = """
from repro.obs import span

def run(registry, data):
    with span("stage.work", rows=len(data), bytes_in=len(data)) as s:
        registry.counter("pipeline.bytes_in").inc(len(data))
        registry.histogram("pipeline.stage_seconds", stage="work")
        s.set(done=True, bytes_out=len(data))
    return data
"""


def test_fzl009_fires_on_detached_and_manual_spans(lint):
    result = lint({"core/bad.py": BAD_TELEMETRY})
    assert rules_fired(result) == {"FZL009"}
    msgs = " ".join(f.message for f in result.findings)
    assert "with" in msgs and "manual span lifecycle" in msgs
    assert len(result.findings) == 3  # detached span + begin + end


def test_fzl009_fires_on_bad_telemetry_names(lint):
    result = lint({"core/names.py": BAD_TELEMETRY_NAMES})
    assert rules_fired(result) == {"FZL009"}
    named = [f for f in result.findings if "does not match" in f.message]
    assert len(named) == 2


def test_fzl009_silent_on_context_manager_spans(lint):
    assert lint({"core/good.py": GOOD_TELEMETRY}).findings == []


# --------------------------------------------------------------------- #
# FZL010 streaming-path hygiene                                          #
# --------------------------------------------------------------------- #
BAD_STREAMING = """
import numpy as np

def pump(source, fh):
    whole = np.asarray(source)        # materialises the full field
    dup = whole.copy()                # full-array duplicate
    raw = fh.read()                   # unbounded slurp
    return dup, raw
"""

BAD_STREAMING_MAP = """
import numpy as np

def sneak(path, shape):
    return np.memmap(path, dtype="f4", mode="r", shape=shape)
"""

BAD_STREAMING_TOKEN_NAME = """
def fetch(tok_fetch):
    return tok_fetch.read()           # a token-like name is still a slurp
"""

GOOD_STREAMING = """
import numpy as np

def pump(source, pool, bounds, fh):
    for start, stop in bounds:
        view = source.slab(start, stop)       # slab handle, not a copy
        buf = pool.acquire(view.shape, view.dtype)
        buf[...] = view                       # one slab into a pooled buffer
        chunk = fh.read(8 << 20)              # bounded read
        yield buf, chunk
        pool.release(buf)                     # recycled once the consumer is done
"""

GOOD_STREAMING_SOURCE = """
import numpy as np

def open_field(path, shape):
    # source.py owns the file-to-array boundary
    return np.memmap(path, dtype="f4", mode="r", shape=shape)
"""


def test_fzl010_fires_on_materialising_streaming_code(lint):
    result = lint({"streaming/bad.py": BAD_STREAMING})
    assert rules_fired(result) == {"FZL010"}
    msgs = " ".join(f.message for f in result.findings)
    assert "materialises" in msgs and ".copy()" in msgs
    assert "argless .read()" in msgs
    assert len(result.findings) == 3


def test_fzl010_reserves_file_mapping_to_source_py(lint):
    result = lint({"streaming/engine.py": BAD_STREAMING_MAP})
    assert rules_fired(result) == {"FZL010"}
    assert "FieldSource" in result.findings[0].message


def test_fzl010_allows_mapping_inside_source_py(lint):
    assert lint({"streaming/source.py": GOOD_STREAMING_SOURCE}).findings == []


def test_fzl010_argless_read_has_no_name_exemption(lint):
    result = lint({"streaming/engine.py": BAD_STREAMING_TOKEN_NAME})
    assert rules_fired(result) == {"FZL010"}
    assert "argless .read()" in result.findings[0].message


def test_fzl010_silent_on_slab_discipline(lint):
    assert lint({"streaming/good.py": GOOD_STREAMING}).findings == []


def test_fzl010_scoped_to_streaming_dir(lint):
    assert lint({"core/bad.py": BAD_STREAMING}).findings == []


# --------------------------------------------------------------------- #
# FZL011 facade discipline                                               #
# --------------------------------------------------------------------- #
BAD_FACADE = """
from repro.parallel.executor import compress_sharded
from repro.streaming import engine

def shortcut(data, pipe, eb):
    cf = compress_sharded(data, pipe, eb, workers=4)
    engine.decompress_stream("field.fzms", workers=4)
    return cf
"""

GOOD_FACADE = """
import repro

def front_door(data, pipe, eb):
    cf = repro.compress(data, pipe, eb, workers=4)
    return repro.decompress(cf.blob)
"""


def test_fzl011_fires_on_direct_engine_calls(lint):
    result = lint({"core/shortcut.py": BAD_FACADE})
    assert rules_fired(result) == {"FZL011"}
    assert len(result.findings) == 2  # plain and attribute-qualified call
    msgs = " ".join(f.message for f in result.findings)
    assert "facade" in msgs and "compress_sharded" in msgs


def test_fzl011_silent_on_facade_calls(lint):
    assert lint({"core/front.py": GOOD_FACADE}).findings == []


def test_fzl011_allows_the_engines_and_dispatchers(lint):
    # the facade, the Pipeline dispatcher and the engine packages own
    # the raw entrypoints — the rule must not fire on any of them
    files = {
        "api.py": BAD_FACADE,
        "core/pipeline.py": BAD_FACADE,
        "parallel/executor.py": BAD_FACADE,
        "streaming/engine.py": BAD_FACADE,
    }
    for rel, src in files.items():
        assert lint({rel: src}).findings == [], rel


def test_fzl011_fires_in_the_cli(lint):
    # cli.py is deliberately NOT allowlisted: the CLI proves the facade
    # covers every engine path
    result = lint({"cli.py": BAD_FACADE})
    assert rules_fired(result) == {"FZL011"}


# --------------------------------------------------------------------- #
# FZL012 decode out= contract                                            #
# --------------------------------------------------------------------- #
BAD_DECODE_OUT = """
import numpy as np

def decompress(result) -> np.ndarray:
    return np.zeros(result.shape, dtype=result.dtype)

def reconstruct_field(codes, shape) -> np.ndarray:
    return np.asarray(codes).reshape(shape)
"""

GOOD_DECODE_OUT = """
import numpy as np

def decompress(result, *, out: np.ndarray | None = None) -> np.ndarray:
    recon = np.empty(result.shape, dtype=result.dtype) if out is None else out
    recon[...] = 0
    return recon

def decode(enc) -> np.ndarray:
    # entropy decoders return data-dependent streams; exempt by name
    return np.frombuffer(enc.payload, dtype=np.uint16)

def decompress_bytes(blob: bytes) -> bytes:
    return blob  # bytes-to-bytes codec, no field reconstruction
"""


def test_fzl012_fires_on_outless_reconstruction(lint):
    result = lint({"kernels/bad.py": BAD_DECODE_OUT})
    assert rules_fired(result) == {"FZL012"}
    assert len(result.findings) == 2
    msgs = " ".join(f.message for f in result.findings)
    assert "out=" in msgs and "staging copy" in msgs


def test_fzl012_silent_on_honoured_out_and_exempt_shapes(lint):
    assert lint({"kernels/good.py": GOOD_DECODE_OUT}).findings == []


def test_fzl012_scoped_to_kernels_dir(lint):
    assert lint({"core/bad.py": BAD_DECODE_OUT}).findings == []


# --------------------------------------------------------------------- #
# FZL019 span bandwidth accounting                                       #
# --------------------------------------------------------------------- #
BAD_BANDWIDTH = """
from repro.obs.spans import span

def compress(data):
    with span("kernel.fake.compress", elements=int(data.size)):
        return data * 2

def drive(blob):
    with span(f"stream.huffman_decode:{3}", shard=3):
        return blob
"""

GOOD_BANDWIDTH = """
from repro.obs.spans import span

def compress(data):
    with span("kernel.fake.compress", bytes_in=int(data.nbytes)) as sp:
        out = data * 2
        sp.set(bytes_out=int(out.nbytes))
        return out

def fetch(reader, k, blob):
    with span(f"stream.fetch:{k}", shard=k) as sp:
        sp.set(bytes_in=len(blob), bytes_out=len(blob))
        return blob

def schedule(step, state):
    # scheduler envelope and computed names are out of scope: the
    # name owner (the plan step) carries the byte accounting
    with span("stf.task"):
        with span(step.span_name, **step.span_attrs):
            return state
"""


def test_fzl019_fires_on_byteless_data_spans(lint):
    result = lint({"core/bad.py": BAD_BANDWIDTH})
    assert rules_fired(result) == {"FZL019"}
    assert len(result.findings) == 2
    msgs = " ".join(f.message for f in result.findings)
    assert "bytes_in" in msgs and "bandwidth" in msgs


def test_fzl019_silent_on_accounted_and_exempt_spans(lint):
    assert lint({"core/good.py": GOOD_BANDWIDTH}).findings == []


# --------------------------------------------------------------------- #
# FZL020 slab task isolation                                             #
# --------------------------------------------------------------------- #
BAD_SLAB = """
from repro.runtime.threads import run_slabs
from concurrent.futures import as_completed

_PARTIALS = {}

def coordinator(pool, items):
    def task(item):
        global _PARTIALS
        _PARTIALS[item] = item * 2
        return item

    results = run_slabs(task, items)
    futures = [pool.submit(task, it) for it in items]
    pool.run_ordered(lambda it: _PARTIALS.update({it: 1}), items)
    for fut in as_completed(futures):
        results.append(fut.result())
    return results
"""

GOOD_SLAB = """
import numpy as np
from repro.runtime.threads import run_slabs, thread_arena

def coordinator(data, ranges, threads):
    codes = np.empty(data.size, dtype=np.int64)
    plane = data.size // data.shape[0]

    def task(bounds):
        s, e = bounds
        arena = thread_arena()  # per-thread scratch, never shared
        local = data[s:e] * 2
        codes[s * plane:e * plane] = local.reshape(-1)  # disjoint slice
        return int(local.sum())

    partials = run_slabs(task, ranges, threads=threads)
    return codes, sum(partials)  # merged in slab order
"""


def test_fzl020_fires_on_shared_state_and_unordered_merge(lint):
    result = lint({"compile/bad.py": BAD_SLAB})
    assert rules_fired(result) == {"FZL020"}
    # global decl, subscript write, lambda .update(), as_completed
    assert len(result.findings) == 4
    msgs = " ".join(f.message for f in result.findings)
    assert "global" in msgs and "as_completed" in msgs


def test_fzl020_silent_on_disjoint_slab_views(lint):
    assert lint({"compile/good.py": GOOD_SLAB}).findings == []


def test_fzl020_silent_without_slab_scheduling(lint):
    # module-state writes outside a scheduling file are other rules' turf
    src = "TABLE = {}\ndef f(x):\n    TABLE[x] = x\n"
    assert lint({"core/plain.py": src}).findings == []
