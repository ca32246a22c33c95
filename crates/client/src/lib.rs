//! # shark-client
//!
//! A small blocking client for the shark-server TCP wire protocol
//! (`docs/wire-protocol.md`). It speaks the same frame codec the server
//! does ([`shark_server::net::frame`]), so there is exactly one encoder /
//! decoder in the workspace and a protocol change cannot silently fork.
//!
//! ```no_run
//! use shark_client::SharkClient;
//!
//! let mut client = SharkClient::connect("127.0.0.1:4848", "", "").unwrap();
//! let result = client.query("SELECT 1").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```
//!
//! Results stream: [`SharkClient::query_stream`] returns a [`RowStream`]
//! that yields batches as the server sends them, and reads exactly as
//! fast as the caller consumes — a paused consumer eventually blocks the
//! server's writes, which is the protocol's backpressure. Call
//! [`RowStream::cancel`] to stop an expensive query without dropping the
//! connection.

#![forbid(unsafe_code)]

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use shark_common::{Result, Row, Schema, SharkError};
use shark_server::net::frame::{self, Frame};

/// A fully drained query result.
#[derive(Debug, Clone)]
pub struct ClientResult {
    /// The result schema.
    pub schema: Schema,
    /// All delivered rows.
    pub rows: Vec<Row>,
    /// Result partitions the server streamed (0 for non-SELECTs).
    pub partitions: u64,
    /// Whether the server answered from its plan cache.
    pub plan_cache_hit: bool,
    /// Simulated cluster seconds the query cost.
    pub sim_seconds: f64,
    /// Whether the stream ended on a cancel instead of exhaustion.
    pub cancelled: bool,
}

/// A prepared statement registered on the server.
#[derive(Debug, Clone, Copy)]
pub struct PreparedStatement {
    /// Connection-scoped id to execute.
    pub statement_id: u64,
    /// The server's plan-cache fingerprint for the statement.
    pub fingerprint: u64,
}

/// A blocking connection to a shark server.
pub struct SharkClient {
    /// Reads are buffered: the server sends a result's schema and first
    /// batch in one segment, and one `read` should take both. Writes go
    /// straight to the socket.
    stream: BufReader<TcpStream>,
    session_id: u64,
}

impl SharkClient {
    /// Connect, handshake, and authenticate. `token` must match the
    /// server's configured auth token (empty when auth is disabled);
    /// `tenant` selects a server-side rate class ("" = default).
    pub fn connect(addr: impl ToSocketAddrs, token: &str, tenant: &str) -> Result<SharkClient> {
        let stream =
            TcpStream::connect(addr).map_err(|e| SharkError::Execution(format!("connect: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut client = SharkClient {
            stream: BufReader::new(stream),
            session_id: 0,
        };
        client.send(&Frame::Hello {
            token: token.to_string(),
            tenant: tenant.to_string(),
        })?;
        match client.recv()? {
            Frame::HelloOk { session_id, .. } => {
                client.session_id = session_id;
                Ok(client)
            }
            Frame::Error { kind, message } => {
                Err(SharkError::Execution(format!("{kind}: {message}")))
            }
            other => Err(SharkError::Execution(format!(
                "unexpected handshake reply: {other:?}"
            ))),
        }
    }

    /// The server-side session id backing this connection.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Run one statement and drain the whole result.
    pub fn query(&mut self, sql: &str) -> Result<ClientResult> {
        self.send(&Frame::Query {
            sql: sql.to_string(),
        })?;
        self.drain_result()
    }

    /// Run a SELECT and consume its batches incrementally.
    pub fn query_stream(&mut self, sql: &str) -> Result<RowStream<'_>> {
        self.send(&Frame::Query {
            sql: sql.to_string(),
        })?;
        self.start_stream()
    }

    /// Register a statement for repeated execution.
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedStatement> {
        self.send(&Frame::Prepare {
            sql: sql.to_string(),
        })?;
        match self.recv()? {
            Frame::Prepared {
                statement_id,
                fingerprint,
            } => Ok(PreparedStatement {
                statement_id,
                fingerprint,
            }),
            Frame::Error { kind, message } => {
                Err(SharkError::Execution(format!("{kind}: {message}")))
            }
            other => Err(SharkError::Execution(format!(
                "unexpected Prepare reply: {other:?}"
            ))),
        }
    }

    /// Execute a prepared statement and drain the whole result.
    pub fn execute(&mut self, statement: PreparedStatement) -> Result<ClientResult> {
        self.send(&Frame::Execute {
            statement_id: statement.statement_id,
        })?;
        self.drain_result()
    }

    /// Orderly goodbye; the connection is unusable afterwards.
    pub fn close(mut self) -> Result<()> {
        self.send(&Frame::Close)
    }

    fn start_stream(&mut self) -> Result<RowStream<'_>> {
        let schema = match self.recv()? {
            Frame::ResultSchema { schema } => schema,
            Frame::Error { kind, message } => {
                return Err(SharkError::Execution(format!("{kind}: {message}")));
            }
            other => {
                return Err(SharkError::Execution(format!(
                    "expected ResultSchema, got {other:?}"
                )));
            }
        };
        Ok(RowStream {
            client: self,
            schema: Arc::new(schema),
            done: None,
            cancel_requested: false,
        })
    }

    fn drain_result(&mut self) -> Result<ClientResult> {
        let mut stream = self.start_stream()?;
        let mut rows = Vec::new();
        while let Some(batch) = stream.next_batch()? {
            rows.extend(batch);
        }
        let schema = (*stream.schema()).clone();
        let done = stream.finish()?;
        Ok(ClientResult {
            schema,
            rows,
            partitions: done.partitions,
            plan_cache_hit: done.plan_cache_hit,
            sim_seconds: done.sim_seconds,
            cancelled: done.cancelled,
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<()> {
        frame::write_frame(self.stream.get_mut(), frame)
            .map(|_| ())
            .map_err(|e| SharkError::Execution(format!("send: {e}")))
    }

    fn recv(&mut self) -> Result<Frame> {
        frame::read_frame(&mut self.stream)
            .map(|(frame, _)| frame)
            .map_err(|e| SharkError::Execution(format!("recv: {e}")))
    }
}

/// The terminal summary of one query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySummary {
    /// Total rows the server delivered.
    pub rows: u64,
    /// Result partitions streamed.
    pub partitions: u64,
    /// Whether the plan came from the server's plan cache.
    pub plan_cache_hit: bool,
    /// Simulated cluster seconds.
    pub sim_seconds: f64,
    /// Whether a cancel ended the stream early.
    pub cancelled: bool,
}

/// An in-flight streamed query. Must be driven to completion (or
/// cancelled) before the connection can issue another request.
pub struct RowStream<'c> {
    client: &'c mut SharkClient,
    schema: Arc<Schema>,
    done: Option<QuerySummary>,
    cancel_requested: bool,
}

impl RowStream<'_> {
    /// The result schema.
    pub fn schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    /// The next batch of rows, or `None` once the server sent QueryDone.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Row>>> {
        if self.done.is_some() {
            return Ok(None);
        }
        match self.client.recv()? {
            Frame::ResultBatch { rows } => Ok(Some(rows)),
            Frame::QueryDone {
                rows,
                partitions,
                plan_cache_hit,
                sim_seconds,
                cancelled,
            } => {
                self.done = Some(QuerySummary {
                    rows,
                    partitions,
                    plan_cache_hit,
                    sim_seconds,
                    cancelled,
                });
                Ok(None)
            }
            Frame::Error { kind, message } => {
                Err(SharkError::Execution(format!("{kind}: {message}")))
            }
            other => Err(SharkError::Execution(format!(
                "unexpected mid-stream frame: {other:?}"
            ))),
        }
    }

    /// Ask the server to stop the query at its next batch boundary. The
    /// stream must still be drained to its QueryDone.
    pub fn cancel(&mut self) -> Result<()> {
        if !self.cancel_requested && self.done.is_none() {
            self.cancel_requested = true;
            self.client.send(&Frame::Cancel)?;
        }
        Ok(())
    }

    /// Drain any remaining batches and return the terminal summary.
    pub fn finish(mut self) -> Result<QuerySummary> {
        while self.next_batch()?.is_some() {}
        Ok(self
            .done
            .expect("next_batch returned None without a summary"))
    }
}
