//! TCP serving frontend: framed wire protocol, connection lifecycle,
//! per-tenant rate classes, and idle reaping.
//!
//! [`NetServer`] multiplexes many client connections onto one
//! [`SharkServer`]: each accepted socket gets a dedicated handler thread
//! and its own [`SessionHandle`], so the *existing* serving-layer
//! controls — admission queueing, per-session memory quotas, the shared
//! prefetch budget and the plan cache — govern wire traffic with no new
//! policy code. Three properties the frontend adds:
//!
//! * **Client-paced backpressure.** Result partitions stream as
//!   [`frame::Frame::ResultBatch`] frames over blocking writes; a slow
//!   client stalls the write, which stalls the cursor's `next_batch` loop,
//!   and the query's run-ahead stays bounded by the prefetch grant the
//!   cursor took from [`crate::ServerConfig::max_total_prefetch`]. No
//!   unbounded result buffering anywhere in the server.
//! * **Idle reaping by read timeout.** A handler blocks in `read_frame`
//!   between requests; the socket's receive timeout is its rate class's
//!   idle deadline, so a read that times out *is* an idle connection: the
//!   handler counts the reap and closes. No reaper thread, no per-frame
//!   bookkeeping — and a connection in the middle of a query is never in
//!   that read, so it is never idle by construction.
//! * **Per-tenant rate classes.** The Hello handshake names a tenant;
//!   its [`RateClass`] sets the session's streaming prefetch depth, the
//!   result-batch row cap and the idle timeout — layered on top of the
//!   per-session memory quota, which is enforced by session id exactly as
//!   for embedded sessions.
//!
//! Frames leave through a per-connection buffer: a result's schema rides
//! with its first batch (a batch ships the moment it exists), and
//! `QueryDone` follows once the query has settled — so a small result is
//! two `write`s, not four frames of two each. Cancellation is polled with a
//! batch just shipped and another coming: the handler peeks the socket for
//! a buffered [`frame::Frame::Cancel`], so a client can abandon an
//! expensive query without tearing down its connection.
//! A client that *does* disconnect mid-stream surfaces as a write error;
//! dropping the cursor releases its permit, pins and prefetch grant
//! ([`crate::QueryCursor`]'s idempotent finalize), so an abandoned query
//! leaks nothing — `examples/server_tcp.rs` and the CI `net-smoke` job
//! assert exactly that from the [`crate::ServerReport`] gauges.

pub mod frame;

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use shark_common::{Result, Row, Schema, SharkError};

use crate::metrics::ServerMetrics;
use crate::server::{SessionHandle, SharkServer};
use frame::{Frame, FrameError};

/// The frontend's events, each one call on the server's metrics table
/// (the `connections_*` / `wire_bytes_*` / `net_*` rows, all zero until
/// `serve` is called).
impl ServerMetrics {
    fn connection_opened(&self) {
        self.connections_opened.inc();
        self.connections_active.add(1);
    }

    fn connection_closed(&self) {
        self.connections_closed.inc();
        self.connections_active.add(-1);
    }

    fn frame_sent(&self, bytes: u64) {
        self.net_frames_sent.inc();
        self.wire_bytes_sent.add(bytes);
        self.net_frame_bytes.observe(bytes as f64);
    }

    fn frame_received(&self, bytes: u64) {
        self.net_frames_received.inc();
        self.wire_bytes_received.add(bytes);
    }
}

/// A tenant's serving parameters, selected by the Hello handshake's tenant
/// name and layered on top of the per-session memory quota.
#[derive(Debug, Clone)]
pub struct RateClass {
    /// Tenant name clients put in their Hello frame.
    pub name: String,
    /// Streaming prefetch depth requested for the tenant's sessions
    /// (still clamped under the server-wide prefetch budget).
    pub stream_prefetch: usize,
    /// Max rows per [`Frame::ResultBatch`]; smaller classes pace slow
    /// consumers harder.
    pub max_batch_rows: usize,
    /// Idle deadline for the tenant's connections.
    pub idle_timeout: Duration,
}

impl Default for RateClass {
    fn default() -> RateClass {
        RateClass {
            name: "default".to_string(),
            stream_prefetch: 2,
            max_batch_rows: 1024,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Configuration for [`SharkServer::serve`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`NetServer::local_addr`]).
    pub addr: String,
    /// Hard cap on concurrently open connections; excess accepts are
    /// answered with an Error frame and closed immediately.
    pub max_connections: usize,
    /// Shared-secret token Hello must present; `None` disables auth.
    pub auth_token: Option<String>,
    /// Serving parameters for tenants not naming a configured rate class.
    pub default_class: RateClass,
    /// Named per-tenant rate classes.
    pub rate_classes: Vec<RateClass>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 1024,
            auth_token: None,
            default_class: RateClass::default(),
            rate_classes: Vec::new(),
        }
    }
}

impl NetConfig {
    /// Require this shared-secret token in every Hello.
    pub fn with_auth_token(mut self, token: impl Into<String>) -> NetConfig {
        self.auth_token = Some(token.into());
        self
    }

    /// Idle timeout for the default rate class.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> NetConfig {
        self.default_class.idle_timeout = timeout;
        self
    }

    /// Max rows per result batch for the default rate class.
    pub fn with_max_batch_rows(mut self, rows: usize) -> NetConfig {
        self.default_class.max_batch_rows = rows;
        self
    }

    /// Register a named per-tenant rate class.
    pub fn with_rate_class(mut self, class: RateClass) -> NetConfig {
        self.rate_classes.push(class);
        self
    }

    fn class_for(&self, tenant: &str) -> RateClass {
        self.rate_classes
            .iter()
            .find(|c| c.name == tenant)
            .cloned()
            .unwrap_or_else(|| self.default_class.clone())
    }
}

/// The running TCP frontend: accept loop and per-connection handler
/// threads. Dropping it (or calling [`NetServer::shutdown`])
/// stops accepting, force-closes every connection and joins all threads —
/// after which the report's `connections_active` is zero or the teardown
/// failed.
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<NetShared>,
}

struct NetShared {
    server: SharkServer,
    config: NetConfig,
    shutdown: Arc<AtomicBool>,
    /// A clone of every open connection's socket, so
    /// [`NetServer::shutdown`] can `shutdown()` it (erroring its handler
    /// out of a blocking read).
    connections: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
}

impl NetShared {
    fn metrics(&self) -> &ServerMetrics {
        self.server.metrics()
    }
}

impl NetServer {
    /// Bind `config.addr` and start serving `server` over TCP.
    pub fn start(server: SharkServer, config: NetConfig) -> Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| SharkError::Config(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SharkError::Config(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| SharkError::Config(format!("set_nonblocking: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(NetShared {
            server,
            config,
            shutdown: shutdown.clone(),
            connections: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(1),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("shark-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| SharkError::Config(format!("spawn accept thread: {e}")))?;
        Ok(NetServer {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            shared,
        })
    }

    /// The bound address (read the OS-assigned port back when binding
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, force-close every open connection, and join the
    /// accept and handler threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for conn in self.shared.connections.lock().values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handlers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.handlers.lock());
        for t in handlers {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<NetShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let metrics = shared.metrics();
                metrics.connection_opened();
                if metrics.connections_active.get() > shared.config.max_connections as i64 {
                    // Over capacity: answer with an Error frame and close.
                    let _ = FrameWriter::new(&stream, metrics).send(&Frame::Error {
                        kind: "capacity".to_string(),
                        message: "server at connection capacity".to_string(),
                    });
                    let _ = stream.shutdown(Shutdown::Both);
                    metrics.connection_closed();
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let registry_stream = match stream.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => {
                        metrics.connection_closed();
                        continue;
                    }
                };
                shared.connections.lock().insert(id, registry_stream);
                let handler_shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("shark-net-conn-{id}"))
                    .spawn(move || {
                        handle_connection(stream, handler_shared.clone());
                        handler_shared.connections.lock().remove(&id);
                        handler_shared.metrics().connection_closed();
                    });
                match handle {
                    Ok(handle) => shared.handlers.lock().push(handle),
                    Err(_) => {
                        shared.connections.lock().remove(&id);
                        metrics.connection_closed();
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_finished_handlers(&shared);
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

/// Join handler threads that already exited, so a long-lived server's
/// handle list tracks open connections instead of growing forever.
fn reap_finished_handlers(shared: &NetShared) {
    let mut finished = Vec::new();
    {
        let mut handlers = shared.handlers.lock();
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                finished.push(handlers.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    for handle in finished {
        let _ = handle.join();
    }
}

/// Arm the socket's receive timeout with an idle deadline. Every blocking
/// read between requests then doubles as the idle timer.
fn set_idle_timeout(stream: &TcpStream, timeout: Duration) {
    // A zero timeout is rejected by the OS (it would mean "block forever").
    let _ = stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
}

/// Whether a failed between-requests read is the receive timeout firing —
/// an idle connection — rather than a disconnect.
fn is_idle_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connection's outgoing frames. Frames are appended to one buffer and
/// leave together on [`FrameWriter::flush`]; the metrics are fed when the
/// bytes have actually been written.
struct FrameWriter<'a> {
    stream: &'a TcpStream,
    metrics: &'a ServerMetrics,
    buf: Vec<u8>,
    /// Sizes of the frames sitting in `buf`.
    unsent: Vec<u64>,
}

/// Buffered result frames are written out once they exceed this, so a wide
/// partition split into many batches never sits in memory twice.
const FLUSH_THRESHOLD_BYTES: usize = 64 * 1024;

impl<'a> FrameWriter<'a> {
    fn new(stream: &'a TcpStream, metrics: &'a ServerMetrics) -> FrameWriter<'a> {
        FrameWriter {
            stream,
            metrics,
            buf: Vec::new(),
            unsent: Vec::new(),
        }
    }

    /// Append a frame to the buffer without writing it.
    fn push(&mut self, frame: &Frame) {
        let bytes = frame::append_frame(&mut self.buf, frame);
        self.unsent.push(bytes);
    }

    /// Write everything buffered in one call.
    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.buf);
        self.buf.clear();
        let sent = self.unsent.drain(..);
        written?;
        for bytes in sent {
            self.metrics.frame_sent(bytes);
        }
        Ok(())
    }

    /// Append a frame and write out the buffer.
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.push(frame);
        self.flush()
    }
}

/// What the between-batches poll of the client socket found.
enum ClientSignal {
    /// Nothing buffered; keep streaming.
    Idle,
    /// A buffered Cancel frame.
    Cancel,
    /// A buffered Close frame (cancel, then hang up).
    Close,
    /// Disconnected or sent garbage mid-query.
    Abort,
}

/// Peek the socket for a buffered client frame without blocking the
/// stream. A complete or in-flight frame is consumed (the tail read
/// blocks only for bytes the client has already committed to sending).
fn poll_client(stream: &TcpStream, metrics: &ServerMetrics) -> ClientSignal {
    if stream.set_nonblocking(true).is_err() {
        return ClientSignal::Abort;
    }
    let mut probe = [0u8; 1];
    let peeked = stream.peek(&mut probe);
    if stream.set_nonblocking(false).is_err() {
        return ClientSignal::Abort;
    }
    match peeked {
        Ok(0) => ClientSignal::Abort, // orderly disconnect mid-query
        Ok(_) => match frame::read_frame(&mut &*stream) {
            Ok((frame, bytes)) => {
                metrics.frame_received(bytes);
                match frame {
                    Frame::Cancel => ClientSignal::Cancel,
                    Frame::Close => ClientSignal::Close,
                    _ => {
                        metrics.net_protocol_errors.inc();
                        ClientSignal::Abort
                    }
                }
            }
            Err(FrameError::Io(_)) => ClientSignal::Abort,
            Err(FrameError::Protocol(_)) => {
                metrics.net_protocol_errors.inc();
                ClientSignal::Abort
            }
        },
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => ClientSignal::Idle,
        Err(_) => ClientSignal::Abort,
    }
}

/// What a request handler decided about the connection's future.
enum After {
    /// Keep serving requests.
    Continue,
    /// Tear the connection down (client close, disconnect, or protocol
    /// violation — already counted).
    Hangup,
}

fn handle_connection(stream: TcpStream, shared: Arc<NetShared>) {
    let metrics = shared.metrics();
    let mut out = FrameWriter::new(&stream, metrics);
    // Until the handshake names a tenant the default class's deadline runs.
    set_idle_timeout(&stream, shared.config.default_class.idle_timeout);

    // --- Handshake -------------------------------------------------------
    let hello = match frame::read_frame(&mut &stream) {
        Ok((frame, bytes)) => {
            metrics.frame_received(bytes);
            frame
        }
        Err(FrameError::Io(err)) => {
            if is_idle_timeout(&err) {
                metrics.connections_reaped.inc();
            }
            return;
        }
        Err(FrameError::Protocol(_)) => {
            metrics.net_protocol_errors.inc();
            let _ = out.send(&Frame::Error {
                kind: "protocol".to_string(),
                message: "malformed handshake frame".to_string(),
            });
            return;
        }
    };
    let (token, tenant) = match hello {
        Frame::Hello { token, tenant } => (token, tenant),
        _ => {
            metrics.net_protocol_errors.inc();
            let _ = out.send(&Frame::Error {
                kind: "protocol".to_string(),
                message: "expected Hello as the first frame".to_string(),
            });
            return;
        }
    };
    if let Some(expected) = &shared.config.auth_token {
        if &token != expected {
            metrics.net_auth_failures.inc();
            let _ = out.send(&Frame::Error {
                kind: "auth".to_string(),
                message: "invalid auth token".to_string(),
            });
            return;
        }
    }
    let class = shared.config.class_for(&tenant);
    let mut session = shared.server.session();
    session.set_stream_prefetch(class.stream_prefetch);
    set_idle_timeout(&stream, class.idle_timeout);
    if out
        .send(&Frame::HelloOk {
            session_id: session.id(),
            version: frame::PROTOCOL_VERSION,
        })
        .is_err()
    {
        return;
    }

    // --- Request loop ----------------------------------------------------
    let mut prepared: HashMap<u64, String> = HashMap::new();
    let mut next_statement_id: u64 = 1;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match frame::read_frame(&mut &stream) {
            Ok((frame, bytes)) => {
                metrics.frame_received(bytes);
                frame
            }
            // Idle past the deadline, disconnect, or torn frame: either way
            // the connection is done.
            Err(FrameError::Io(err)) => {
                if is_idle_timeout(&err) {
                    metrics.connections_reaped.inc();
                }
                return;
            }
            Err(FrameError::Protocol(msg)) => {
                metrics.net_protocol_errors.inc();
                let _ = out.send(&Frame::Error {
                    kind: "protocol".to_string(),
                    message: msg,
                });
                return;
            }
        };
        let after = match request {
            Frame::Query { sql } => {
                metrics.net_queries.inc();
                run_statement(&mut out, &session, &class, &sql)
            }
            Frame::Prepare { sql } => match session.parse_statement(&sql) {
                Ok(_) => {
                    metrics.net_prepared_statements.inc();
                    let statement_id = next_statement_id;
                    next_statement_id += 1;
                    let fingerprint = shark_sql::statement_fingerprint(&sql);
                    prepared.insert(statement_id, sql);
                    match out.send(&Frame::Prepared {
                        statement_id,
                        fingerprint,
                    }) {
                        Ok(()) => After::Continue,
                        Err(_) => After::Hangup,
                    }
                }
                Err(err) => send_error(&mut out, &err),
            },
            Frame::Execute { statement_id } => match prepared.get(&statement_id).cloned() {
                Some(sql) => {
                    metrics.net_queries.inc();
                    run_statement(&mut out, &session, &class, &sql)
                }
                None => {
                    let err = SharkError::Execution(format!(
                        "unknown prepared statement id {statement_id}"
                    ));
                    send_error(&mut out, &err)
                }
            },
            // A Cancel with nothing in flight is a no-op, not an error:
            // the query it raced may have finished a moment ago.
            Frame::Cancel => After::Continue,
            Frame::Close => After::Hangup,
            _ => {
                metrics.net_protocol_errors.inc();
                let _ = out.send(&Frame::Error {
                    kind: "protocol".to_string(),
                    message: "unexpected server-to-client frame type".to_string(),
                });
                After::Hangup
            }
        };
        if matches!(after, After::Hangup) {
            return;
        }
    }
}

/// Send an Error frame for a failed statement; the connection survives.
fn send_error(out: &mut FrameWriter<'_>, err: &SharkError) -> After {
    match out.send(&Frame::Error {
        kind: err.kind().to_string(),
        message: err.to_string(),
    }) {
        Ok(()) => After::Continue,
        Err(_) => After::Hangup,
    }
}

/// Run one statement and stream its results back. SELECTs go through the
/// streaming cursor (client-paced, partitions executed as batches are
/// written); other statements run to completion first.
fn run_statement(
    out: &mut FrameWriter<'_>,
    session: &SessionHandle,
    class: &RateClass,
    sql: &str,
) -> After {
    if is_select(sql) {
        let cursor = match session.sql_stream(sql) {
            Ok(cursor) => cursor,
            Err(err) => return send_error(out, &err),
        };
        let schema = cursor.schema().clone();
        write_result(
            out,
            class,
            schema,
            cursor,
            |cursor| cursor.next_batch(),
            |cursor| cursor.is_exhausted(),
            |cursor, cancelled| {
                let progress = cursor.progress().clone();
                let done = Frame::QueryDone {
                    rows: progress.rows_streamed,
                    partitions: progress.partitions_streamed as u64,
                    plan_cache_hit: cursor.plan_cache_hit(),
                    sim_seconds: cursor.sim_seconds(),
                    cancelled,
                };
                // Explicit close: releases the admission permit, pins and
                // prefetch grant (and records the query's metrics) before
                // QueryDone is sent, so a client observing QueryDone
                // observes a quiescent server.
                drop(cursor);
                done
            },
        )
    } else {
        let outcome = match session.sql(sql) {
            Ok(outcome) => outcome,
            Err(err) => return send_error(out, &err),
        };
        let schema = outcome.result.schema.clone();
        write_result(
            out,
            class,
            schema,
            outcome,
            |outcome| {
                let rows = std::mem::take(&mut outcome.result.rows);
                Ok((!rows.is_empty()).then_some(rows))
            },
            // The whole result is handed over as one batch.
            |outcome| outcome.result.rows.is_empty(),
            |outcome, cancelled| Frame::QueryDone {
                rows: outcome.metrics.rows_streamed,
                partitions: 0,
                plan_cache_hit: outcome.metrics.plan_cache_hit,
                sim_seconds: outcome.result.sim_seconds,
                cancelled,
            },
        )
    }
}

fn is_select(sql: &str) -> bool {
    sql.trim_start()
        .get(..6)
        .is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

/// Write one result sequence: `ResultSchema`, the batches `next_batch`
/// pulls out of `source` (split to the rate class's row cap), then the
/// `QueryDone` that `done` builds from the spent source. Frames gather in
/// the connection's buffer and are written out as soon as they hold a
/// batch — rows ship the moment they exist, the schema riding with the first
/// of them — and once more after `QueryDone`. A source that reports
/// `exhausted` after a batch is closed without asking it for another, and
/// without the Cancel/Close poll: that runs only when another batch is
/// coming. Whatever `source` holds is dropped on every early return.
fn write_result<S>(
    out: &mut FrameWriter<'_>,
    class: &RateClass,
    schema: Schema,
    mut source: S,
    next_batch: impl Fn(&mut S) -> Result<Option<Vec<Row>>>,
    exhausted: impl Fn(&S) -> bool,
    done: impl FnOnce(S, bool) -> Frame,
) -> After {
    out.push(&Frame::ResultSchema { schema });
    let mut cancelled = false;
    let mut close_after = false;
    let max_rows = class.max_batch_rows.max(1);
    loop {
        let mut rows = match next_batch(&mut source) {
            Ok(Some(batch)) => batch,
            Ok(None) => break,
            // A cursor finalized itself on the error path.
            Err(err) => return send_error(out, &err),
        };
        while !rows.is_empty() {
            let rest = rows.split_off(rows.len().min(max_rows));
            out.push(&Frame::ResultBatch { rows });
            if out.buf.len() >= FLUSH_THRESHOLD_BYTES && out.flush().is_err() {
                return After::Hangup;
            }
            rows = rest;
        }
        // Rows leave before the next batch is computed and before the
        // source is closed: closing settles the query (quota and budget
        // enforcement, WAL commit), which can take far longer than
        // producing the rows did.
        if out.flush().is_err() {
            // Client went away mid-result.
            return After::Hangup;
        }
        if exhausted(&source) {
            break;
        }
        // Between batches is the cancellation point: a buffered Cancel or
        // Close stops the result; a cursor dropped with `source` releases
        // its permit, pins and prefetch grant.
        match poll_client(out.stream, out.metrics) {
            ClientSignal::Idle => {}
            ClientSignal::Cancel => {
                out.metrics.net_cancels.inc();
                cancelled = true;
                break;
            }
            ClientSignal::Close => {
                cancelled = true;
                close_after = true;
                break;
            }
            ClientSignal::Abort => return After::Hangup,
        }
    }
    match (out.send(&done(source, cancelled)), close_after) {
        (Ok(()), false) => After::Continue,
        _ => After::Hangup,
    }
}
