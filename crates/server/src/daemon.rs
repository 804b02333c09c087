//! Unix-domain-socket front end for the serving [`Engine`].
//!
//! The daemon is std-only: a nonblocking [`UnixListener`] accept loop
//! (polled so shutdown is noticed promptly), one thread per connection,
//! and newline-delimited request/response lines dispatched through
//! [`Engine::handle_line`]. A connection may pipeline any number of
//! requests; replies come back in request order on the same connection.
//!
//! Shutdown is graceful: a `shutdown` request flips the engine's drain
//! flag (new predicts are refused with a structured `shutdown` error),
//! the batcher finishes every accepted job, the acknowledgement is sent,
//! and [`Server::run`] joins its threads and removes the socket file.

use crate::engine::{Control, Engine, EngineConfig, ServeModel, DEFAULT_QUEUE_CAPACITY};
use crate::ServerError;
use hotspot_core::api::{ApiError, ErrorKind};
use std::fs;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the accept loop and idle connections check the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Read timeout on connection sockets, so idle readers notice shutdown.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send, newline excluded. A longer
/// line gets one `data` error reply and the connection is closed, so one
/// client cannot grow daemon memory without bound. The largest requests
/// seen in practice are far below it: `tools/serve_smoke.sh` sends at
/// most ~4.1 KB (a predict of its whole test split) and the benchmark's
/// serve session ~2.0 KB (a four-clip predict); a scan of a 52×52-tile
/// `genlayout` chip is ~0.8 MB.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Filesystem path of the Unix domain socket to listen on. A stale
    /// file at this path is removed on bind.
    pub socket: PathBuf,
    /// Micro-batch queue bound (see [`EngineConfig`]).
    pub queue_capacity: usize,
}

impl ServerConfig {
    /// Config listening on `socket` with the default queue bound.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    engine: Arc<Engine>,
    listener: UnixListener,
    socket: PathBuf,
}

impl Server {
    /// Binds the socket and prepares the engine. The daemon does not
    /// serve until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Socket-level failures ([`ServerError::Io`]).
    pub fn bind(model: ServeModel, config: &ServerConfig) -> Result<Server, ServerError> {
        match fs::remove_file(&config.socket) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let listener = UnixListener::bind(&config.socket)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            engine: Arc::new(Engine::new(
                model,
                EngineConfig {
                    queue_capacity: config.queue_capacity,
                },
            )),
            listener,
            socket: config.socket.clone(),
        })
    }

    /// The serving engine (for in-process inspection in tests/benches).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The socket path this daemon listens on.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Serves until a `shutdown` request completes: spawns the batcher,
    /// accepts connections, drains, joins every thread, removes the
    /// socket file.
    ///
    /// # Errors
    ///
    /// Accept-loop failures other than `WouldBlock`/`Interrupted`; the
    /// daemon shuts down before reporting them.
    pub fn run(self) -> Result<(), ServerError> {
        let engine = self.engine.clone();
        let batcher = thread::Builder::new()
            .name("hotspot-batcher".into())
            .spawn({
                let engine = engine.clone();
                move || engine.run_batcher()
            })?;
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut accept_error = None;
        while !engine.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let engine = engine.clone();
                    // Reap closed connections so a long-lived daemon does
                    // not keep one handle per connection it ever served.
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(
                        thread::Builder::new()
                            .name("hotspot-conn".into())
                            .spawn(move || handle_connection(&engine, stream))?,
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    engine.begin_shutdown();
                    accept_error = Some(e);
                    break;
                }
            }
        }
        let _ = batcher.join();
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = fs::remove_file(&self.socket);
        match accept_error {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }
}

/// Reads newline-delimited request lines, writes one reply line each.
/// A line longer than [`MAX_LINE_BYTES`] is answered with a `data` error
/// and ends the connection.
fn handle_connection(engine: &Engine, stream: UnixStream) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut reader = &stream;
    let writer = &stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                // Bytes before `from` hold no newline: scan only new ones,
                // so a long line costs linear, not quadratic, time.
                let mut from = buf.len();
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    let pos = buf[from..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|p| from + p);
                    if pos.unwrap_or(buf.len()) > MAX_LINE_BYTES {
                        let reply = engine.error_reply(
                            None,
                            ApiError::new(
                                ErrorKind::Data,
                                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                            ),
                        );
                        let _ = write_line(writer, &reply);
                        return;
                    }
                    let Some(pos) = pos else { break };
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    from = 0;
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                    if line.trim().is_empty() {
                        continue;
                    }
                    let (reply, control) = engine.handle_line(&line);
                    if write_line(writer, &reply).is_err() {
                        return;
                    }
                    if control == Control::Shutdown {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: drop the connection once draining begins so
                // `run` can join us; any queued reply was already written.
                if engine.is_shutdown() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Writes one reply line and flushes it.
fn write_line(mut writer: &UnixStream, reply: &str) -> io::Result<()> {
    writer.write_all(reply.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// A persistent client connection for streaming requests.
///
/// Used by the CLI `client` subcommand, the integration tests and the
/// serve bench; protocol errors still arrive as reply lines (`"ok":
/// false), only transport failures surface as [`io::Error`].
pub struct ClientConn {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl ClientConn {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(socket: &Path) -> io::Result<ClientConn> {
        Ok(ClientConn {
            stream: UnixStream::connect(socket)?,
            buf: Vec::new(),
        })
    }

    /// Sends one request line and blocks for its reply line.
    ///
    /// # Errors
    ///
    /// Transport failures, including the daemon closing the connection
    /// before replying.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection before replying",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One-shot request helper: connect, send `line`, return the reply line.
///
/// # Errors
///
/// Transport failures (see [`ClientConn::request`]).
pub fn client_roundtrip(socket: &Path, line: &str) -> io::Result<String> {
    ClientConn::connect(socket)?.request(line)
}
