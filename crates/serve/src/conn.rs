//! Connection multiplexing: a bounded handler pool with idle-socket
//! parking, so 1k idle keep-alive connections cost ~0 threads.
//!
//! The thread-per-connection model spent a parked OS thread per idle
//! keep-alive socket. This module replaces it with three pieces, all
//! std-only:
//!
//! * an **idle set** of non-blocking parked sockets, owned by one
//!   **poller** thread that sweeps them with `TcpStream::peek` — a
//!   readiness probe that consumes nothing: `WouldBlock` means still idle,
//!   `Ok(0)` means the peer closed (reap), `Ok(n)` means a request has
//!   started arriving (dispatch);
//! * a **ready queue** feeding a bounded pool of **handler workers**. A
//!   worker checks a connection out, switches it to blocking mode, serves
//!   exactly one request through the unchanged `http` layer (per-read
//!   timeouts, the slow-loris [`BudgetReader`] budget and write timeouts
//!   all apply exactly as before), then parks it back — or requeues it
//!   immediately if pipelined bytes are already buffered in userspace,
//!   where `peek` on the socket could never see them;
//! * a **reading registry** of sockets currently blocked in a request
//!   *read*. Shutdown closes exactly these (their request has not fully
//!   arrived — nothing accepted is dropped) plus every parked socket,
//!   while a worker that is routing or writing a response is spared until
//!   the response is flushed. These are the same shutdown semantics the
//!   thread-per-connection server had, keyed off "is the request fully
//!   read" instead of a per-connection busy bit.
//!
//! A connection therefore cycles through three states — **parked**
//! (non-blocking, watched by the poller), **ready** (queued for a worker)
//! and **checked-out** (owned by a worker, blocking) — and is always owned
//! by exactly one thread, so no per-connection lock exists.
//!
//! The poller's sweep interval adapts: any dispatch (or a newly parked or
//! accepted socket) snaps it to [`MIN_POLL`], and consecutive empty sweeps
//! back it off exponentially to [`MAX_POLL`] — a server with a thousand
//! parked sockets and no traffic does a few peeks-per-socket every
//! [`MAX_POLL`] instead of burning a core, at the cost of up to
//! [`MAX_POLL`] of first-byte latency after a long idle gap. Threads are
//! bounded by the worker pool (`ServerConfig::handler_threads`), not by
//! connection count: an *idle* socket costs a queue slot and two file
//! descriptors; only an *in-flight request* costs a thread.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::http::BudgetReader;

/// Floor of the adaptive sweep interval (active traffic).
pub(crate) const MIN_POLL: Duration = Duration::from_micros(500);
/// Ceiling of the adaptive sweep interval (long-idle connections).
pub(crate) const MAX_POLL: Duration = Duration::from_millis(25);
/// How long the poller parks when it has no connections at all.
const EMPTY_POLL: Duration = Duration::from_millis(50);

/// One multiplexed connection, owned by exactly one thread at a time.
pub(crate) struct Conn {
    /// Monotonic id (used by the reading registry).
    pub(crate) id: u64,
    /// Buffered reader over a socket clone, wrapped in the slow-loris
    /// budget. Persists across parks so pipelined bytes survive.
    pub(crate) reader: BudgetReader<BufReader<TcpStream>>,
    /// Buffered writer over the original socket.
    pub(crate) writer: BufWriter<TcpStream>,
    /// When this connection was last parked (for the idle timeout).
    idle_since: Instant,
}

impl Conn {
    /// The underlying socket (shared by reader and writer clones — mode
    /// changes and `peek` act on the one OS socket).
    pub(crate) fn socket(&self) -> &TcpStream {
        self.reader.get_ref().get_ref()
    }

    /// Whether pipelined request bytes already sit in the userspace read
    /// buffer (such a connection must be requeued, never parked: `peek`
    /// on the socket cannot see them).
    pub(crate) fn has_buffered_input(&self) -> bool {
        !self.reader.get_ref().buffer().is_empty()
    }
}

/// The shared multiplexer state: idle set, ready queue, reading registry.
pub(crate) struct Mux {
    /// Parked (non-blocking) connections, swept by the poller.
    idle: Mutex<Vec<Conn>>,
    /// Wakes the poller early (new parked/accepted socket, stop).
    idle_wake: Condvar,
    /// Connections with a request arriving, awaiting a worker.
    ready: Mutex<VecDeque<Conn>>,
    ready_wake: Condvar,
    /// Socket clones for connections currently blocked in a request
    /// *read*; shutdown closes exactly these so no worker waits out a
    /// read timeout on a request that will never finish arriving.
    reading: Mutex<HashMap<u64, TcpStream>>,
    stop: AtomicBool,
    /// Registered connections (accepted and not yet dropped).
    active: AtomicUsize,
    next_id: AtomicU64,
    /// Parked sockets idle longer than this are reaped.
    idle_timeout: Duration,
}

impl Mux {
    pub(crate) fn new(idle_timeout: Duration) -> Mux {
        Mux {
            idle: Mutex::new(Vec::new()),
            idle_wake: Condvar::new(),
            ready: Mutex::new(VecDeque::new()),
            ready_wake: Condvar::new(),
            reading: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            idle_timeout,
        }
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Registered connections right now (for the accept-time limit and
    /// the `/healthz` connections component).
    pub(crate) fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Parked connections right now (for `/healthz`).
    pub(crate) fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// Registers a freshly accepted socket and parks it (its first
    /// request will arrive shortly; the poller dispatches on first byte).
    pub(crate) fn register(&self, stream: TcpStream, read_budget: Duration) -> std::io::Result<()> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let read_half = stream.try_clone()?;
        let conn = Conn {
            id,
            reader: BudgetReader::new(BufReader::new(read_half), read_budget),
            writer: BufWriter::new(stream),
            idle_since: Instant::now(),
        };
        self.active.fetch_add(1, Ordering::SeqCst);
        self.park(conn);
        Ok(())
    }

    /// Parks a connection into the idle set (non-blocking) and nudges the
    /// poller. During shutdown the connection is dropped instead.
    pub(crate) fn park(&self, mut conn: Conn) {
        if self.stopping() || conn.socket().set_nonblocking(true).is_err() {
            self.discard(conn);
            return;
        }
        conn.idle_since = Instant::now();
        self.idle.lock().push(conn);
        self.idle_wake.notify_all();
    }

    /// Queues a connection for a worker (request bytes are waiting).
    pub(crate) fn enqueue_ready(&self, conn: Conn) {
        if self.stopping() {
            self.discard(conn);
            return;
        }
        self.ready.lock().push_back(conn);
        self.ready_wake.notify_one();
    }

    /// Unregisters and drops a connection (sockets close on drop).
    pub(crate) fn discard(&self, conn: Conn) {
        drop(conn);
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Blocks until a ready connection is available; `None` on shutdown.
    pub(crate) fn next_ready(&self) -> Option<Conn> {
        let mut queue = self.ready.lock();
        loop {
            if self.stopping() {
                return None;
            }
            if let Some(conn) = queue.pop_front() {
                return Some(conn);
            }
            queue = self.ready_wake.wait(queue);
        }
    }

    /// Marks `conn` as blocked in a request read (stores a socket clone
    /// shutdown can close). Pair with [`done_reading`](Self::done_reading).
    pub(crate) fn note_reading(&self, conn: &Conn) {
        if let Ok(clone) = conn.socket().try_clone() {
            self.reading.lock().insert(conn.id, clone);
        }
    }

    /// Clears the reading mark: the request is fully read, and from here
    /// to the flushed response the connection is spared by shutdown.
    pub(crate) fn done_reading(&self, id: u64) {
        self.reading.lock().remove(&id);
    }

    /// Begins shutdown: stops poller and workers, closes every socket
    /// currently blocked in a request read (their handlers wake with a
    /// read error), and leaves response-writing workers alone.
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for stream in self.reading.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Notify under each condvar's own lock. A waiter checks
        // `stopping()` and then waits while holding that lock, so once we
        // hold it the waiter has either not checked yet (and will see the
        // flag) or is already waiting (and gets this wake-up). Notifying
        // without the lock can land between its check and its wait, and
        // a worker in `next_ready` would then sleep through shutdown.
        {
            let _idle = self.idle.lock();
            self.idle_wake.notify_all();
        }
        let _ready = self.ready.lock();
        self.ready_wake.notify_all();
    }

    /// Drops every parked and queued connection (the shutdown tail; idle
    /// peers' next request had not arrived, so nothing accepted is lost).
    pub(crate) fn drain(&self) {
        let idle: Vec<Conn> = std::mem::take(&mut *self.idle.lock());
        for conn in idle {
            self.discard(conn);
        }
        let ready: Vec<Conn> = self.ready.lock().drain(..).collect();
        for conn in ready {
            self.discard(conn);
        }
    }

    /// The poller loop: sweep parked sockets, dispatch readiness, reap
    /// closed and over-idle peers, adapt the sweep interval to traffic.
    pub(crate) fn poll_loop(&self) {
        let mut interval = MIN_POLL;
        loop {
            let idle = self.idle.lock();
            if self.stopping() {
                break;
            }
            let timeout = if idle.is_empty() {
                EMPTY_POLL
            } else {
                interval
            };
            let (mut idle, timed_out) = self.idle_wake.wait_timeout(idle, timeout);
            if self.stopping() {
                break;
            }
            let mut dispatched = 0usize;
            let now = Instant::now();
            let mut probe = [0u8; 1];
            let mut i = 0;
            while i < idle.len() {
                match idle[i].socket().peek(&mut probe) {
                    // Still idle — reap only if parked beyond the timeout.
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if now.duration_since(idle[i].idle_since) > self.idle_timeout {
                            let conn = idle.swap_remove(i);
                            self.discard(conn);
                        } else {
                            i += 1;
                        }
                    }
                    // First byte of a request: hand to a worker (blocking
                    // mode again; a failed toggle poisons the socket).
                    Ok(n) if n > 0 => {
                        let conn = idle.swap_remove(i);
                        if conn.socket().set_nonblocking(false).is_ok() {
                            self.ready.lock().push_back(conn);
                            self.ready_wake.notify_one();
                            dispatched += 1;
                        } else {
                            self.discard(conn);
                        }
                    }
                    // EOF or socket error: the peer is gone.
                    _ => {
                        let conn = idle.swap_remove(i);
                        self.discard(conn);
                    }
                }
            }
            drop(idle);
            // A dispatch or an early wake (new socket) means traffic:
            // sweep fast. Consecutive quiet sweeps back off.
            interval = if dispatched > 0 || !timed_out {
                MIN_POLL
            } else {
                (interval * 2).min(MAX_POLL)
            };
        }
        // Stop: drop every parked connection (lock released first — the
        // break paths above still hold the guard).
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpListener;
    use std::sync::Arc;

    fn pipe() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn poller_dispatches_on_first_byte_and_reaps_closed_peers() {
        let mux = Arc::new(Mux::new(Duration::from_secs(60)));
        let (mut client_a, server_a) = pipe();
        let (client_b, server_b) = pipe();
        mux.register(server_a, Duration::from_secs(5)).unwrap();
        mux.register(server_b, Duration::from_secs(5)).unwrap();
        assert_eq!(mux.active_connections(), 2);

        let poller = {
            let mux = Arc::clone(&mux);
            std::thread::spawn(move || mux.poll_loop())
        };
        // A written byte promotes the connection to the ready queue…
        client_a.write_all(b"G").unwrap();
        let conn = mux.next_ready().expect("dispatch before shutdown");
        assert!(!conn.has_buffered_input(), "byte still in the socket");
        mux.discard(conn);
        // …and a closed peer is reaped without a worker.
        drop(client_b);
        let deadline = Instant::now() + Duration::from_secs(10);
        while mux.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(mux.active_connections(), 0, "closed peer must be reaped");

        mux.begin_stop();
        poller.join().unwrap();
        assert!(mux.next_ready().is_none(), "workers stop on shutdown");
    }

    #[test]
    fn over_idle_connections_are_reaped() {
        let mux = Arc::new(Mux::new(Duration::from_millis(50)));
        let (client, server) = pipe();
        mux.register(server, Duration::from_secs(5)).unwrap();
        let poller = {
            let mux = Arc::clone(&mux);
            std::thread::spawn(move || mux.poll_loop())
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while mux.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(mux.active_connections(), 0, "idle timeout must reap");
        drop(client);
        mux.begin_stop();
        poller.join().unwrap();
    }
}
