//! The listener front end: binds the socket, starts the event loop,
//! and owns graceful shutdown.
//!
//! [`Server::start`] hands the listener to
//! [`event_loop`](crate::event_loop): one `poll(2)`-driven thread owns
//! every socket — the listener is part of the poll set, so there is no
//! sleep-polling anywhere — and a pool of worker threads, popping one
//! dispatch queue, runs the router. Keep-alive, pipelining, per-connection deadlines and load
//! shedding live there.
//!
//! [`ServerHandle::shutdown`] flips the stop flag and writes a wake
//! byte so a sleeping poll notices immediately: new connects are
//! refused at the OS level, idle keep-alive connections close,
//! in-flight requests finish, and finally the warm cache is flushed to
//! disk.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use webssari_engine::Engine;

use crate::{AppState, ServerConfig};

/// Builds and starts daemon instances.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the event loop. Returns once the
    /// socket is listening; serving continues on background threads
    /// until [`ServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    #[cfg(unix)]
    pub fn start(config: ServerConfig, engine: Engine) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(config, engine));
        let stop = Arc::new(AtomicBool::new(false));
        let (threads, wake) =
            crate::event_loop::spawn(listener, Arc::clone(&state), Arc::clone(&stop))?;
        Ok(ServerHandle {
            addr,
            state,
            stop,
            threads,
            wake,
        })
    }

    /// The event loop is built on `poll(2)`; there is no other
    /// transport.
    ///
    /// # Errors
    ///
    /// Always [`io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn start(_config: ServerConfig, _engine: Engine) -> io::Result<ServerHandle> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "webssari serve needs a unix target",
        ))
    }
}

/// A running daemon. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (the process keeps
/// serving); tests and the CLI should shut down explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Wake writer: interrupts a sleeping poll.
    wake: TcpStream,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared application state — tests and embedders can inspect
    /// metrics and the engine snapshot through it.
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, close idle connections,
    /// finish in-flight requests, join every thread, then flush the
    /// warm cache. Returns the cache file path when persistence is
    /// configured.
    ///
    /// # Errors
    ///
    /// Propagates cache-flush I/O errors (the drain itself cannot
    /// fail).
    pub fn shutdown(self) -> io::Result<Option<PathBuf>> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.wake).write(&[1u8]);
        for t in self.threads {
            let _ = t.join();
        }
        self.state.engine.flush_cache()
    }
}
