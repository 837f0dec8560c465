"""``serve-mixed``: a ``repro serve`` subprocess under mixed read/write load.

The server runs with 2 job workers and no on-disk compile cache.  Set-up
stores ``HIT_KEYS`` ``gen-random`` results (quick preset, seeded
``rng``) and keeps the bytes first stored under each key.  Two client
threads then each hold one persistent HTTP/1.1 connection -- the
protocol the server advertises -- and send ``POST /run`` requests
closed-loop: one request in every ``MISS_EVERY``, at a seeded place in
each block, is a miss (a fresh ``rng``, so the job queues, compiles, and
writes an envelope and a ledger line); the others are hits on a seeded
choice of stored key.

The traffic mix is a fixed assumption, not measured from any deployment
(the repository records none): ``MISS_EVERY`` and ``HIT_KEYS`` say why
each number was chosen, and the report lines give the measured share of
hits and misses in each run.

Checks: every response is 200 with the expected ``X-Repro-Store``; a
hit's body equals the bytes first stored under its key; a miss's body
equals the bytes the store now holds under its key and is the envelope
of the requested run; the server's ``GET /metrics`` counters agree with
what was sent.  A failed check, a non-200 or a timeout counts as failed.

The traced run sends the same fixed request sequence (``TRACED_REQUESTS``
per connection) to an untraced server and then to a ``--trace-dir``
server with the layer probes installed, and reads each request's spans
back through ``GET /trace/<id>``.  It also measures the ``cli`` layer:
interpreter start-up and the ``-X importtime`` cost of the ``repro``
package, which every server start (and every ``python -m repro``
command) pays before it serves anything.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (HERE, SRC, WALL_FACTOR, HostSpeed, compile_layer_metrics,
                    highest_tail, latency_metrics, process_peak_rss_mb,
                    repeat_setup, self_time_metrics, tail, tail_ready)

#: Stored keys the hits choose from: more than the connections, so the
#: two rarely read one key at once, and few enough that storing them (one
#: ``gen-random`` compile each) keeps set-up under a second.
HIT_KEYS = 16
#: One miss in every 10 requests per connection: most requests are
#: reads, and a run of about 1300 requests still holds about 130 misses,
#: enough for a miss median and for misses to fill the ``op_tail_ms``
#: tail.
MISS_EVERY = 10
CONNECTIONS = 2
#: About 1300 requests per run, and at least 500: p98 leaves 10 or more
#: beyond.
TAIL_PERCENTILE = 98
TRACED_REQUESTS = 60
FLOOR_REPEATS = 5
TIMEOUT_S = 30.0
EXPERIMENT = "gen-random"


def run_body(rng):
    return json.dumps({"experiment": EXPERIMENT, "quick": True,
                       "params": {"rng": rng}, "wait": True}).encode()


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, opts, name, traced=False):
        self.store = opts.path(name, "store")
        self.trace_dir = opts.path(name, "traces") if traced else None
        log = opts.path(name, "serve.log")
        entry = ([os.path.join(HERE, "traced_repro.py")] if traced
                 else ["-m", "repro"])
        command = [sys.executable, *entry, "serve", "--port", "0",
                   "--store", self.store, "--jobs", "2", "--no-cache",
                   "--quiet", "--circuit-dir", opts.path(name, "circuits")]
        if traced:
            command += ["--trace-dir", self.trace_dir]
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(log, "w") as handle:
            self.process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=handle, env=env)
        self.port = self._wait_for_port(log)

    def _wait_for_port(self, log):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            with open(log) as handle:
                first = handle.readline()
            if "listening on" in first:
                return int(first.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(f"server did not start: {open(log).read()[-500:]}")

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)

    def once(self, method, path, body=None, headers=None):
        """One request on a fresh connection: (status, headers, body)."""
        conn = self.connect()
        try:
            return request(conn, method, path, body, headers)
        finally:
            conn.close()

    def stored_bytes(self, key):
        with open(os.path.join(self.store, key[:2], key + ".json"),
                  "rb") as handle:
            return handle.read()

    def peak_rss_mb(self):
        return process_peak_rss_mb(self.process.pid)

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def request(conn, method, path, body=None, headers=None):
    headers = dict(headers or {})
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


class Load:
    """The seeded request sequences and their checks."""

    def __init__(self, seed):
        self.seed = seed
        picker = random.Random(seed)
        self.hit_rngs = [picker.randrange(10**6, 2 * 10**6)
                         for _ in range(HIT_KEYS)]
        self.stored = {}

    def populate(self, server):
        """Store every hit key; remember the bytes first stored."""
        for rng in self.hit_rngs:
            status, headers, body = server.once("POST", "/run", run_body(rng))
            key = headers.get("X-Repro-Key")
            if status != 200 or key is None:
                raise RuntimeError(f"set-up run failed: {status} {body[:200]}")
            self.stored[rng] = server.stored_bytes(key)

    def sequence(self, connection):
        """Connection ``connection``'s endless seeded request stream:
        ``(is_miss, rng)``."""
        chooser = random.Random(self.seed * 1_000_003 + connection)
        fresh = 10**7 * (1 + self.seed % 97) + connection
        block = 0
        while True:
            miss = chooser.randrange(MISS_EVERY)
            for i in range(MISS_EVERY):
                if i == miss:
                    yield True, fresh + block * CONNECTIONS
                else:
                    yield False, chooser.choice(self.hit_rngs)
            block += 1

    def check(self, server, is_miss, rng, status, headers, body):
        """``None`` when the response is right, else the reason."""
        if status != 200:
            return f"status {status}: {body[:200]!r}"
        expected = "miss" if is_miss else "hit"
        got = headers.get("X-Repro-Store")
        if got != expected:
            return f"X-Repro-Store {got} != {expected}"
        if not is_miss:
            if body != self.stored[rng]:
                return f"hit rng={rng}: bytes differ from first stored"
            return None
        key = headers.get("X-Repro-Key", "")
        try:
            if body != server.stored_bytes(key):
                return f"miss rng={rng}: bytes differ from the store"
        except OSError:
            return f"miss rng={rng}: nothing stored under {key[:12]}"
        envelope = json.loads(body)
        if (envelope.get("experiment") != EXPERIMENT
                or envelope["data"]["fields"].get("rng") != rng):
            return f"miss rng={rng}: envelope is for another run"
        return None


def drive(server, load, out, stop, records=None):
    """Run the two closed-loop connections; ``stop(i, elapsed, n)`` ends a
    connection's loop after its ``i`` requests, ``elapsed`` seconds and
    ``n`` successful requests on both.  Returns (samples, window seconds)
    where samples are ``(is_miss, seconds)``; ``records`` also collects
    each request's ``X-Repro-Trace`` header."""
    samples = []
    errors = []
    lock = threading.Lock()

    def client(index):
        conn = server.connect()
        started = time.perf_counter()
        try:
            for i, (is_miss, rng) in enumerate(load.sequence(index)):
                elapsed = time.perf_counter() - started
                if stop(i, elapsed, len(samples)):
                    break
                start = time.perf_counter()
                try:
                    status, headers, body = request(conn, "POST", "/run",
                                                    run_body(rng))
                except (OSError, http.client.HTTPException) as error:
                    status, headers, body = 0, {}, repr(error).encode()
                    conn.close()
                    conn = server.connect()
                seconds = time.perf_counter() - start
                problem = load.check(server, is_miss, rng, status, headers,
                                     body)
                with lock:
                    out.attempted += 1
                    if problem is None:
                        samples.append((is_miss, seconds))
                        if records is not None:
                            records.append((is_miss, seconds,
                                            headers.get("X-Repro-Trace")))
                    else:
                        errors.append(problem)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CONNECTIONS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = time.perf_counter() - start
    for problem in errors:
        out.fail(problem)
    return samples, window


def check_counters(out, server, samples):
    """The server's own ``GET /metrics`` counters must match what was
    sent; returns the snapshot."""
    status, _, body = server.once("GET", "/metrics")
    out.attempted += 1
    if status != 200:
        out.fail(f"GET /metrics: {status}")
        return None
    snapshot = json.loads(body)
    misses = sum(1 for is_miss, _ in samples if is_miss)
    hits = len(samples) - misses
    got = (snapshot["store"]["hits"], snapshot["store"]["misses"],
           snapshot["jobs"]["submitted"])
    want = (hits, misses + HIT_KEYS, misses + HIT_KEYS)
    if got != want:
        out.fail(f"/metrics (hits, misses, jobs) {got} != {want}")
    return snapshot


def start_populated(opts, load, name, traced=False):
    server = Server(opts, name, traced)
    try:
        load.populate(server)
    except BaseException:
        server.stop()
        raise
    return server


def run(opts, out):
    load = Load(opts.seed)
    servers = []

    def setup():
        # Each repeat starts a fresh server and store; only the last
        # one stays up for the measurement.
        if servers:
            servers[-1].stop()
        servers.append(start_populated(opts, load, f"setup{len(servers)}"))
        return servers[-1]

    try:
        host = HostSpeed()
        server, setup_s = repeat_setup(setup, host)
        if opts.trace:
            server.stop()
            return traced(opts, out, load)
        def stop(i, elapsed, n):
            return ((elapsed >= opts.seconds
                     and tail_ready(n, TAIL_PERCENTILE))
                    or elapsed >= WALL_FACTOR * opts.seconds)

        samples, window = drive(server, load, out, stop)
        check_counters(out, server, samples)
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
    everything = [s for _, s in samples]
    hits = [s for is_miss, s in samples if not is_miss]
    misses = [s for is_miss, s in samples if is_miss]
    latency_metrics(out, "op_", everything, "POST /run, hits and misses",
                    TAIL_PERCENTILE, tail_mean=False)
    if samples:
        out.metric("ops_per_s", len(samples) / window, "1/s",
                   f"{len(samples)} requests on {CONNECTIONS} connections")
    out.metric("setup_s", setup_s, "s", "server start + store fill")
    out.metric("peak_rss_mb", rss, "MB", "server process")
    host.note(out)
    out.note("  (only setup_s is scaled: request latencies are client-seen "
             "wall time, most of it a kernel timer's)")
    out.note(f"  (mix: {len(hits)} hits, {len(misses)} misses = "
             f"{len(misses) / max(1, len(samples)):.3f} of "
             f"{len(samples)} successful requests; serve_rps = ops_per_s)")
    for label, values in (("hit", hits), ("miss", misses)):
        percentile = highest_tail(len(values))
        if percentile is not None:
            value, beyond = tail(values, percentile, mean=False)
            out.note(f"  (serve_{label}_p50_ms = "
                     f"{statistics.median(values) * 1000:.3f}, serve_{label}"
                     f"_tail_ms = {value * 1000:.3f} at p{percentile}, "
                     f"n={len(values)}, {beyond} beyond)")


def import_profile(env):
    """``(seconds, repro modules, numpy loaded)`` from ``-X importtime``
    of ``python -m repro list``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "list"],
        env=env, capture_output=True, timeout=TIMEOUT_S, check=True)
    rows = []
    for line in done.stderr.decode().splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(),
                     int(cumulative)))
    repro = [row for row in rows if row[1].split(".")[0] == "repro"]
    top = min(indent for indent, _, _ in repro)
    seconds = sum(us for indent, _, us in repro if indent == top) / 1e6
    modules = len({name for _, name, _ in repro})
    return seconds, modules, any(name == "numpy" for _, name, _ in rows)


def cli_layer_metrics(out):
    env = dict(os.environ, PYTHONPATH=SRC)
    floor = []
    for _ in range(FLOOR_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=TIMEOUT_S)
        floor.append(time.perf_counter() - start)
    import_s, modules, numpy_loaded = import_profile(env)
    m = out.metric
    m("cli.interpreter_floor_s", statistics.median(floor), "s",
      "python -c pass")
    m("cli.import_s", import_s, "s", "-X importtime, repro package")
    m("cli.repro_modules", modules, "count")
    m("cli.numpy_loaded", int(numpy_loaded), "count")


def traced(opts, out, load):
    def fixed(i, elapsed, n):
        return i >= TRACED_REQUESTS or elapsed >= WALL_FACTOR * opts.seconds

    plain = start_populated(opts, load, "untraced")
    try:
        _, untraced_wall = drive(plain, load, out, fixed)
    finally:
        plain.stop()
    server = start_populated(opts, load, "traced", traced=True)
    try:
        records = []
        samples, traced_wall = drive(server, load, out, fixed, records)
        snapshot = check_counters(out, server, samples) or {
            "jobs": {"submitted": 0, "coalesced": 0},
            "store": {"hits": 0, "misses": 0}}
        fresh = []
        for rng in load.hit_rngs:
            start = time.perf_counter()
            status, _, body = server.once("POST", "/run", run_body(rng))
            fresh.append(time.perf_counter() - start)
            out.attempted += 1
            if status != 200 or body != load.stored[rng]:
                out.fail(f"fresh-connection hit rng={rng}: {status}")
        spans = []
        hit_handle = []
        for is_miss, _, header in records:
            trace_id = (header or "").split("-")[0]
            status, _, body = server.once("GET", f"/trace/{trace_id}")
            if status != 200:
                out.attempted += 1
                out.fail(f"GET /trace/{trace_id[:12]}: {status}")
                continue
            trace_spans = json.loads(body)["spans"]
            spans.extend(trace_spans)
            if not is_miss:
                hit_handle.extend(s["duration_s"] for s in trace_spans
                                  if s["name"] == "server.request")
    finally:
        server.stop()
    client_hits = [s for is_miss, s in samples if not is_miss]
    app_ms = statistics.median(hit_handle) * 1000 if hit_handle else 0.0
    client_ms = statistics.median(client_hits) * 1000 if client_hits else 0.0
    m = out.metric
    compile_layer_metrics(out, spans)
    m("serve.app_handle_ms", app_ms, "ms", "server.request span, hits")
    m("serve.transport_gap_ms", client_ms - app_ms, "ms",
      "client hit p50 - app p50 (keep-alive)")
    m("serve.fresh_conn_hit_ms", statistics.median(fresh) * 1000, "ms",
      f"hit on a new connection, n={len(fresh)}")
    m("serve.queue_wait_s",
      sum(s["duration_s"] for s in spans if s["name"] == "queue.wait"), "s")
    m("serve.jobs_submitted", snapshot["jobs"]["submitted"], "count")
    m("serve.jobs_coalesced", snapshot["jobs"]["coalesced"], "count")
    m("serve.store_hits", snapshot["store"]["hits"], "count")
    m("serve.store_misses", snapshot["store"]["misses"], "count")
    cli_layer_metrics(out)
    self_time_metrics(out, spans, sum(s for _, s in samples),
                      "client-seen request time")
    m("obs.trace_overhead_ratio", traced_wall / untraced_wall, "ratio",
      f"traced / untraced wall of {TRACED_REQUESTS} requests per connection")
    m("bench.ops_n", len(samples), "count")
    m("bench.round_wall_s", traced_wall, "s", "traced requests")
