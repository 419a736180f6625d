//! The `prio serve` daemon: connection handling, the worker pool, and
//! the graceful-shutdown protocol.
//!
//! # Architecture
//!
//! ```text
//!              accept thread (TCP) / inline loop (stdio)
//!                     │ one reader per connection
//!            ┌────────┴────────┐
//!   control verbs          prioritize requests
//!   (ping/stats/shutdown,  ──▶ bounded RequestQueue ──▶ worker pool
//!    answered inline —          │ full? shed with          │ PrioContext
//!    they respond even          │ an `overloaded`          │ per worker,
//!    when the queue is          ▼ response                 ▼ shared cache
//!    saturated)            response written through the connection's
//!                          mutexed writer, id-matched, any order
//! ```
//!
//! # Shutdown protocol
//!
//! A `shutdown` verb (or [`Server::stop`]) must never drop a response for
//! a request that was already accepted. The teardown order guarantees it:
//!
//! 1. the shutdown flag flips; the accept loop stops taking connections;
//! 2. every open connection's **read half** is shut down, so readers see
//!    EOF after their current line — no new requests enter;
//! 3. reader threads are joined — only then can no push race the close;
//! 4. the queue closes; workers drain until it is closed *and* empty;
//! 5. workers are joined, and only now are the write halves dropped.
//!
//! # Worker hygiene
//!
//! Input errors (bad format, parse failure, cycles) are a normal part of
//! serving and reuse the worker's [`PrioContext`]. An *internal* pipeline
//! error is different: it means the scratch state is suspect, so the
//! worker replaces its context with a fresh one before the next request —
//! one poisoned request cannot degrade the requests after it.

use crate::cache::{render_key, text_key, workflow_key, CacheStats, ResultCache, TextKey};
use crate::protocol::{
    error_response, ok_response_literal, overloaded_response, ping_response, prio_error_response,
    Verb, WireRequest,
};
use crate::queue::RequestQueue;
use prio_core::{PrioContext, PrioError, Prioritizer};
use prio_ir::{Frontend, Priorities, Workflow};
use prio_obs::json::escape;
use prio_obs::scan;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Capacity of each connection's read buffer: a typical request line
/// (tens of KB of workflow text) arrives in one or two `read`s.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// Daemon configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads pulling from the request queue.
    pub threads: usize,
    /// Bounded request-queue capacity, exact (0 counts as 1); overflow
    /// sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Maximum accepted request line length in bytes; longer lines get a
    /// structured error and are discarded without buffering them.
    pub max_request_bytes: usize,
    /// Default input format when a request names none (`None`/`"auto"` =
    /// content detection via the registry).
    pub default_format: Option<String>,
    /// Artificial per-request worker delay — a chaos/test hook used by
    /// the backpressure suite to hold the queue full deterministically.
    pub worker_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 2,
            queue_capacity: 1024,
            cache_bytes: 64 << 20,
            max_request_bytes: 16 << 20,
            default_format: None,
            worker_delay: Duration::ZERO,
        }
    }
}

/// Per-server request counters (the `stats` verb reads these; the global
/// `serve.*` observability counters aggregate across all servers in the
/// process).
#[derive(Default)]
struct Counters {
    received: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
}

/// A point-in-time statistics snapshot (the `stats` verb payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines received (including malformed ones).
    pub received: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests answered with a structured error.
    pub errors: u64,
    /// Requests shed with `overloaded` (equals the queue's shed count for
    /// this server).
    pub shed: u64,
    /// Result-cache counters and occupancy.
    pub cache: CacheStats,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Worker-pool size.
    pub threads: usize,
}

/// One accepted connection's write half, shared by the reader (control
/// verbs, shed responses) and every worker holding one of its jobs.
struct Conn {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl Conn {
    fn new(writer: Box<dyn Write + Send>) -> Arc<Conn> {
        Arc::new(Conn {
            writer: Mutex::new(writer),
        })
    }

    /// Writes one response line, newline appended, in one `write_all`. A
    /// failed write (client went away) is counted, not fatal: the daemon
    /// and its workers keep serving.
    fn send_line(&self, mut line: String) {
        line.push('\n');
        let mut w = self.writer.lock().unwrap();
        let result = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        if result.is_err() {
            prio_obs::counter!("serve.conn.write_errors").inc();
        }
    }
}

/// One queued prioritize request.
struct Job {
    request: WireRequest,
    conn: Arc<Conn>,
    enqueued: Instant,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    config: ServeConfig,
    registry: prio_ir::FormatRegistry,
    queue: RequestQueue<Job>,
    cache: ResultCache,
    counters: Counters,
    shutdown: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
}

impl Shared {
    fn new(config: ServeConfig) -> Arc<Shared> {
        Arc::new(Shared {
            queue: RequestQueue::with_capacity(config.queue_capacity),
            cache: ResultCache::new(config.cache_bytes),
            config,
            registry: prio_dagman::registry(),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
        })
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cvar) = &self.shutdown_signal;
        *lock.lock().unwrap() = true;
        cvar.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            received: self.counters.received.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            shed: self.counters.overloaded.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            threads: self.config.threads.max(1),
        }
    }
}

/// The `stats` verb response body.
fn stats_response(id: &str, s: &ServeStats) -> String {
    prio_obs::json::JsonObject::typed("response")
        .str("id", id)
        .str("status", "ok")
        .u64("received", s.received)
        .u64("ok", s.ok)
        .u64("errors", s.errors)
        .u64("shed", s.shed)
        .u64("cache_hits", s.cache.hits)
        .u64("cache_misses", s.cache.misses)
        .u64("cache_evictions", s.cache.evictions)
        .u64("cache_entries", s.cache.entries)
        .u64("cache_bytes", s.cache.bytes)
        .u64("queue_depth", s.queue_depth as u64)
        .u64("queue_capacity", s.queue_capacity as u64)
        .u64("threads", s.threads as u64)
        .finish()
}

fn shutdown_response(id: &str) -> String {
    prio_obs::json::JsonObject::typed("response")
        .str("id", id)
        .str("status", "ok")
        .bool("shutdown", true)
        .finish()
}

/// Runs one prioritize request to a response line. `ctx` is the calling
/// worker's scratch context; on an internal pipeline error it is replaced
/// with a fresh one so the failure cannot poison later requests.
fn handle_prioritize(shared: &Shared, request: &WireRequest, ctx: &mut PrioContext) -> String {
    match prioritize_request(shared, request, ctx) {
        Ok(line) => {
            shared.counters.ok.fetch_add(1, Ordering::Relaxed);
            prio_obs::counter!("serve.request.ok").inc();
            line
        }
        Err(error) => {
            if error.is_internal() {
                *ctx = PrioContext::new();
            }
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            prio_obs::counter!("serve.request.error").inc();
            prio_error_response(&request.id, &error)
        }
    }
}

/// Resolves the requested output frontend. The error for an unknown name
/// carries the *input* format's provenance, matching the one-shot facade.
fn output_frontend<'r>(
    registry: &'r prio_ir::FormatRegistry,
    output: Option<&str>,
    input: &'r dyn Frontend,
) -> Result<&'r dyn Frontend, PrioError> {
    match output {
        Some(name) => registry.by_name(name).ok_or_else(|| {
            PrioError::from(prio_ir::ImportError::whole_file(
                input.id(),
                format!("unknown output format {name:?}"),
            ))
        }),
        None => Ok(input),
    }
}

/// The warm fast path: this exact workflow literal was served before, its
/// result entry is still live, and the export for the requested output
/// format is already rendered — so the response copies the cold
/// request's escaped bytes without unescaping, parsing, prioritizing,
/// exporting or escaping anything.
/// `Ok(None)` falls through to the full path; the only error it can
/// produce (an unknown output format name) is byte-identical to the full
/// path's.
fn try_fast_path(
    shared: &Shared,
    request: &WireRequest,
    tk: TextKey,
) -> Result<Option<String>, PrioError> {
    let Some((key, in_fmt, n, render)) = shared.cache.memo_get(tk) else {
        return Ok(None);
    };
    let Some(input) = shared.registry.get(in_fmt) else {
        return Ok(None);
    };
    let out_id = output_frontend(&shared.registry, request.output.as_deref(), input)?.id();
    Ok(shared
        .cache
        .rendered_hit(key, n, render, out_id)
        .map(|literal| ok_response_literal(&request.id, out_id.name(), true, &literal)))
}

/// Answers one prioritize request. The text memo is keyed on the workflow
/// literal exactly as sent — equal literals are equal texts — and the
/// rendered memo holds exports already escaped, so a memo hit never
/// touches the workflow's text; only a miss unescapes it, once.
fn prioritize_request(
    shared: &Shared,
    request: &WireRequest,
    ctx: &mut PrioContext,
) -> Result<String, PrioError> {
    let format = request
        .format
        .as_deref()
        .or(shared.config.default_format.as_deref());
    let tk = text_key(format.unwrap_or("auto"), request.workflow_literal());
    if let Some(line) = try_fast_path(shared, request, tk)? {
        return Ok(line);
    }
    let text = request.workflow();
    let frontend = shared.registry.resolve(format, None, &text)?;
    let workflow: Workflow = frontend.import(&text)?;
    // The unescaped copy lives only for the import; the job keeps its line.
    drop(text);
    let n = workflow.num_jobs();
    let key = workflow_key(workflow.dag());
    // The schedule is shared by CSR alone; the rendered bytes also hinge
    // on what the exporter reads beyond it (source format, metadata).
    let rk = render_key(&workflow);
    let out = output_frontend(&shared.registry, request.output.as_deref(), frontend)?;
    let render = |order: &[prio_graph::NodeId]| -> Arc<str> {
        let priorities = Priorities::from_order(order, n);
        escape(&out.export(&workflow, &priorities)).into()
    };
    let (cached, rendered) = match shared.cache.get_with_rendered(key, n, rk, out.id()) {
        Some((_, Some(text))) => (true, text),
        Some((order, None)) => {
            // The schedule is cached but this (metadata, output format)
            // has not been rendered yet; render it once and memoize.
            let text = render(&order);
            shared
                .cache
                .note_rendered(key, rk, out.id(), Arc::clone(&text));
            (true, text)
        }
        None => {
            let result = Prioritizer::new().prioritize_workflow_in(&workflow, ctx)?;
            let order: crate::cache::CachedOrder = result.schedule.order().into();
            shared.cache.insert(key, order.clone());
            let text = render(&order);
            shared
                .cache
                .note_rendered(key, rk, out.id(), Arc::clone(&text));
            (false, text)
        }
    };
    shared.cache.memo_insert(tk, key, frontend.id(), n, rk);
    Ok(ok_response_literal(
        &request.id,
        out.id().name(),
        cached,
        &rendered,
    ))
}

/// The worker loop: drain the queue until it is closed and empty.
fn worker_loop(shared: &Arc<Shared>) {
    let mut ctx = PrioContext::new();
    while let Some(job) = shared.queue.pop_wait() {
        if !shared.config.worker_delay.is_zero() {
            std::thread::sleep(shared.config.worker_delay);
        }
        let response = handle_prioritize(shared, &job.request, &mut ctx);
        job.conn.send_line(response);
        let micros = job.enqueued.elapsed().as_micros() as u64;
        prio_obs::histogram!("serve.request.micros").record(micros);
    }
}

/// Handles one request line from a connection. Control verbs answer
/// inline (they work even with a saturated queue); prioritize requests
/// enqueue or shed.
fn handle_line(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    line: String,
    first_version: &mut Option<u64>,
) {
    shared.counters.received.fetch_add(1, Ordering::Relaxed);
    prio_obs::counter!("serve.request.received").inc();
    let request = match WireRequest::decode(line, first_version) {
        Ok(request) => request,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            prio_obs::counter!("serve.request.error").inc();
            conn.send_line(error_response(e.id.as_deref(), "request", &e.message));
            return;
        }
    };
    match request.verb {
        Verb::Ping => conn.send_line(ping_response(&request.id)),
        Verb::Stats => conn.send_line(stats_response(&request.id, &shared.stats())),
        Verb::Shutdown => {
            conn.send_line(shutdown_response(&request.id));
            shared.begin_shutdown();
        }
        Verb::Prioritize => {
            let job = Job {
                conn: Arc::clone(conn),
                request,
                enqueued: Instant::now(),
            };
            if let Err(job) = shared.queue.push(job) {
                shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                prio_obs::counter!("serve.request.overloaded").inc();
                job.conn.send_line(overloaded_response(&job.request.id));
            }
        }
    }
}

/// The result of reading one length-limited line.
enum Line {
    /// A complete line (without the newline).
    Text(String),
    /// The line exceeded the limit; the remainder was discarded.
    TooLong,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line of at most `limit` bytes. An oversized
/// line is consumed to its newline *without buffering it* — the daemon's
/// memory use stays bounded no matter what a client sends — and reported
/// as [`Line::TooLong`]. A final unterminated fragment (a mid-request
/// disconnect) is returned as a normal line so it still gets a response
/// attempt.
///
/// A line that spans buffer fills is gathered in `spill`, the
/// connection's reusable buffer, and copied out once complete. Every line
/// thus costs one allocation of exactly its length, whatever its size, and
/// a queued job holds no slack.
fn read_line_limited(
    reader: &mut impl BufRead,
    limit: usize,
    spill: &mut Vec<u8>,
) -> std::io::Result<Line> {
    spill.clear();
    let mut discarding = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(match (discarding, spill.is_empty()) {
                (true, _) => Line::TooLong,
                (false, true) => Line::Eof,
                (false, false) => Line::Text(into_text(spill.to_vec())),
            });
        }
        let (chunk, terminated) = match scan::find_byte(buf, b'\n') {
            Some(i) => (i, true),
            None => (buf.len(), false),
        };
        if terminated && spill.is_empty() && !discarding && chunk <= limit {
            // The whole line is in the buffer: copy it out directly.
            let line = buf[..chunk].to_vec();
            reader.consume(chunk + 1);
            return Ok(Line::Text(into_text(line)));
        }
        if !discarding {
            if spill.len() + chunk > limit {
                discarding = true;
                spill.clear();
            } else {
                spill.extend_from_slice(&buf[..chunk]);
            }
        }
        reader.consume(chunk + usize::from(terminated));
        if terminated {
            return Ok(if discarding {
                Line::TooLong
            } else {
                Line::Text(into_text(spill.to_vec()))
            });
        }
    }
}

/// The line as text: its own buffer when it is valid UTF-8 (no copy),
/// else the same bytes with invalid sequences replaced.
fn into_text(line: Vec<u8>) -> String {
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// The connection reader loop, shared by TCP and stream serving.
fn read_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, reader: &mut impl BufRead) {
    let mut first_version: Option<u64> = None;
    // Sized like the read buffer up front: grown by doubling from the
    // first partial line instead, it raised `serve-mix`'s peak RSS by
    // about 4%.
    let mut spill = Vec::with_capacity(READ_BUFFER_BYTES);
    loop {
        if shared.shutting_down() {
            return;
        }
        match read_line_limited(reader, shared.config.max_request_bytes, &mut spill) {
            Ok(Line::Eof) | Err(_) => return,
            Ok(Line::TooLong) => {
                shared.counters.received.fetch_add(1, Ordering::Relaxed);
                prio_obs::counter!("serve.request.received").inc();
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                prio_obs::counter!("serve.request.error").inc();
                conn.send_line(error_response(
                    None,
                    "request",
                    &format!(
                        "request: line exceeds max request bytes ({})",
                        shared.config.max_request_bytes
                    ),
                ));
            }
            Ok(Line::Text(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(shared, conn, line, &mut first_version);
            }
        }
    }
}

fn spawn_workers(shared: &Arc<Shared>) -> Vec<std::thread::JoinHandle<()>> {
    (0..shared.config.threads.max(1))
        .map(|_| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect()
}

/// A running TCP daemon. Dropping the handle without calling
/// [`Server::wait`] leaks the serving threads; call
/// [`Server::stop`] + [`Server::wait`] (or send a `shutdown` verb and
/// [`Server::wait`]) for a clean exit.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections.
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Shared::new(config);
        let workers = spawn_workers(&shared);
        let streams: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let streams = Arc::clone(&streams);
            std::thread::spawn(move || accept_loop(&listener, &shared, &streams))
        };
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            workers,
            streams,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A statistics snapshot (what the `stats` verb reports).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Triggers a graceful shutdown, as if a `shutdown` verb arrived.
    pub fn stop(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until a shutdown is requested (verb or [`Server::stop`]),
    /// then runs the drain protocol to completion and returns the final
    /// statistics. See the module docs for the teardown order.
    pub fn wait(mut self) -> ServeStats {
        {
            let (lock, cvar) = &self.shared.shutdown_signal;
            let mut done = lock.lock().unwrap();
            while !*done {
                done = cvar.wait(done).unwrap();
            }
        }
        // 1–2. The accept loop observed the flag and exits; shut down
        // every connection's read half so readers see EOF.
        let readers = self
            .accept_thread
            .take()
            .expect("wait runs once")
            .join()
            .expect("accept thread never panics");
        for stream in self.streams.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        // 3. No readers ⇒ no more pushes.
        for reader in readers {
            let _ = reader.join();
        }
        // 4–5. Close, drain, join; then the write halves drop.
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.streams.lock().unwrap().clear();
        self.shared.stats()
    }
}

/// Accepts connections until shutdown; returns the reader join handles.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    streams: &Arc<Mutex<Vec<TcpStream>>>,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut readers = Vec::new();
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                prio_obs::counter!("serve.conn.accepted").inc();
                // Every response leaves in one write: send it at once
                // rather than hold it until the peer acknowledges the
                // previous one, which a delayed ACK stalls by ~40 ms.
                let _ = stream.set_nodelay(true);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                streams.lock().unwrap().push(write_half);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let conn = Conn::new(Box::new(write_half));
                let shared = Arc::clone(shared);
                readers.push(std::thread::spawn(move || {
                    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
                    read_loop(&shared, &conn, &mut reader);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    readers
}

/// Serves a single connection over an arbitrary reader/writer pair —
/// the stdin/stdout mode of the CLI (`prio serve --stdio`) and the
/// in-process harness used by the test suites. Returns the final
/// statistics once the input ends (EOF or `shutdown` verb) and the queue
/// has drained.
pub fn serve_streams(
    reader: impl Read,
    writer: Box<dyn Write + Send>,
    config: ServeConfig,
) -> ServeStats {
    let shared = Shared::new(config);
    let workers = spawn_workers(&shared);
    let conn = Conn::new(writer);
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, reader);
    read_loop(&shared, &conn, &mut reader);
    // Reading is done (the only producer), so close-and-drain is safe:
    // every accepted request still gets its response written.
    shared.queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    shared.stats()
}

/// [`serve_streams`] over this process's stdin/stdout.
pub fn serve_stdio(config: ServeConfig) -> ServeStats {
    serve_streams(std::io::stdin().lock(), Box::new(std::io::stdout()), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A writer handing its bytes back through a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn serve_text(input: &str, config: ServeConfig) -> (Vec<String>, ServeStats) {
        let buf = SharedBuf::default();
        let stats = serve_streams(Cursor::new(input.to_owned()), Box::new(buf.clone()), config);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        (text.lines().map(str::to_owned).collect(), stats)
    }

    fn get<'v>(v: &'v prio_obs::json::JsonValue, k: &str) -> Option<&'v str> {
        v.get(k).and_then(prio_obs::json::JsonValue::as_str)
    }

    #[test]
    fn serves_a_prioritize_request_over_streams() {
        let line = crate::protocol::encode_request("r1", "a\tb\n", Some("edges"), None);
        let (lines, stats) = serve_text(&format!("{line}\n"), ServeConfig::default());
        assert_eq!(lines.len(), 1);
        let v = prio_obs::json::parse(&lines[0]).unwrap();
        assert_eq!(get(&v, "id"), Some("r1"));
        assert_eq!(get(&v, "status"), Some("ok"));
        assert_eq!(get(&v, "format"), Some("edges"));
        assert!(get(&v, "output").unwrap().contains("@priority\ta\t2"));
        assert_eq!((stats.received, stats.ok, stats.errors), (1, 1, 0));
    }

    #[test]
    fn warm_cache_is_byte_identical_and_flagged() {
        let line = crate::protocol::encode_request("r", "a\tb\nb\tc\n", None, None);
        let input = format!("{line}\n{line}\n");
        // One worker: with two, both pipelined copies could miss the
        // cache before either result is stored.
        let config = ServeConfig {
            threads: 1,
            ..Default::default()
        };
        let (lines, stats) = serve_text(&input, config);
        assert_eq!(lines.len(), 2);
        let a = prio_obs::json::parse(&lines[0]).unwrap();
        let b = prio_obs::json::parse(&lines[1]).unwrap();
        assert_eq!(get(&a, "output"), get(&b, "output"));
        let cached: Vec<bool> = [&a, &b]
            .iter()
            .map(|v| {
                v.get("cached")
                    .and_then(prio_obs::json::JsonValue::as_bool)
                    .unwrap()
            })
            .collect();
        assert_eq!(cached.iter().filter(|&&c| c).count(), 1, "{cached:?}");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn control_verbs_answer_inline() {
        let input = [
            crate::protocol::encode_control("p1", "ping"),
            crate::protocol::encode_control("s1", "stats"),
            crate::protocol::encode_control("q1", "shutdown"),
        ]
        .join("\n");
        let (lines, stats) = serve_text(&(input + "\n"), ServeConfig::default());
        assert_eq!(lines.len(), 3);
        assert_eq!(stats.received, 3);
        let stats_line = prio_obs::json::parse(&lines[1]).unwrap();
        assert_eq!(
            stats_line
                .get("received")
                .and_then(prio_obs::json::JsonValue::as_u64),
            Some(2)
        );
        let bye = prio_obs::json::parse(&lines[2]).unwrap();
        assert_eq!(
            bye.get("shutdown")
                .and_then(prio_obs::json::JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn shutdown_verb_stops_reading_further_requests() {
        let input = [
            crate::protocol::encode_control("q1", "shutdown"),
            crate::protocol::encode_request("r2", "a\tb\n", Some("edges"), None),
        ]
        .join("\n");
        let (lines, stats) = serve_text(&(input + "\n"), ServeConfig::default());
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert_eq!(stats.received, 1);
    }

    #[test]
    fn errors_are_structured_and_do_not_stop_serving() {
        let input = [
            "this is not json".to_owned(),
            crate::protocol::encode_request("bad", "JOB broken", Some("dagman"), None),
            crate::protocol::encode_request("good", "a\tb\n", Some("edges"), None),
        ]
        .join("\n");
        let (lines, stats) = serve_text(&(input + "\n"), ServeConfig::default());
        assert_eq!(lines.len(), 3);
        assert_eq!((stats.ok, stats.errors), (1, 2));
        let by_id = |id: &str| {
            lines
                .iter()
                .map(|l| prio_obs::json::parse(l).unwrap())
                .find(|v| get(v, "id") == Some(id))
                .unwrap()
        };
        assert_eq!(get(&by_id("bad"), "status"), Some("error"));
        assert_eq!(get(&by_id("bad"), "stage"), Some("parse"));
        assert_eq!(get(&by_id("good"), "status"), Some("ok"));
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering() {
        let big = crate::protocol::encode_request("big", &"a\tb\n".repeat(4000), None, None);
        let small = crate::protocol::encode_request("ok", "a\tb\n", Some("edges"), None);
        let config = ServeConfig {
            max_request_bytes: 1024,
            ..ServeConfig::default()
        };
        let (lines, stats) = serve_text(&format!("{big}\n{small}\n"), config);
        assert_eq!(lines.len(), 2);
        let first = prio_obs::json::parse(&lines[0]).unwrap();
        assert_eq!(get(&first, "status"), Some("error"));
        assert!(get(&first, "error").unwrap().contains("max request bytes"));
        let second = prio_obs::json::parse(&lines[1]).unwrap();
        assert_eq!(get(&second, "status"), Some("ok"));
        assert_eq!((stats.ok, stats.errors), (1, 1));
    }

    #[test]
    fn lines_spanning_buffer_fills_hold_exactly_their_bytes() {
        let long = "x".repeat(40);
        let input = format!("{long}\nshort\n{}\n{long}\ntail", "y".repeat(70));
        let mut reader = BufReader::with_capacity(16, input.as_bytes());
        let mut spill = Vec::new();
        let mut next = || read_line_limited(&mut reader, 64, &mut spill).unwrap();
        let mut texts = Vec::new();
        loop {
            match next() {
                Line::Text(line) => {
                    assert_eq!(line.capacity(), line.len(), "{line:?} holds slack");
                    texts.push(Some(line));
                }
                Line::TooLong => texts.push(None),
                Line::Eof => break,
            }
        }
        let expected = [
            Some(long.as_str()),
            Some("short"),
            None,
            Some(&long),
            Some("tail"),
        ];
        assert_eq!(
            texts.iter().map(Option::as_deref).collect::<Vec<_>>(),
            expected
        );
    }

    #[test]
    fn tcp_round_trip_and_graceful_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let write = |line: &str| {
            let mut s = &stream;
            s.write_all(line.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
        };
        write(&crate::protocol::encode_request(
            "r1",
            "a\tb\n",
            Some("edges"),
            Some("json"),
        ));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = prio_obs::json::parse(&line).unwrap();
        assert_eq!(get(&v, "status"), Some("ok"));
        assert_eq!(get(&v, "format"), Some("json"));
        write(&crate::protocol::encode_control("q", "shutdown"));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"shutdown\":true"), "{line}");
        let stats = server.wait();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.received, 2);
    }
}
