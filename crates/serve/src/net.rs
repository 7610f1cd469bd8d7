//! Deadline-guarded sockets.
//!
//! [`DeadlineStream`] is the only way serve-path code touches a
//! `TcpStream`: its two constructors, [`DeadlineStream::connect`] and
//! [`DeadlineStream::accept`], install both the read and the write
//! timeout before the socket is ever used, so no IO on these paths can
//! block forever. Clippy holds the discipline: `clippy.toml`'s
//! `disallowed-methods` rejects `TcpStream::connect`,
//! `TcpStream::connect_timeout`, `TcpListener::accept` and
//! `TcpListener::incoming` in every crate, tests included, and these
//! two constructors carry the crate's only allows.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// A `TcpStream` whose read and write deadlines were configured at
/// construction. Implements [`Read`] and [`Write`] by delegation; a
/// stalled peer surfaces as `WouldBlock`/`TimedOut` instead of a hang.
#[derive(Debug)]
pub struct DeadlineStream {
    inner: TcpStream,
}

impl DeadlineStream {
    /// Install `deadline` for both reads and writes. `deadline` must be
    /// nonzero (`set_read_timeout` rejects zero by contract).
    fn new(stream: TcpStream, deadline: Duration) -> std::io::Result<DeadlineStream> {
        stream.set_read_timeout(Some(deadline))?;
        stream.set_write_timeout(Some(deadline))?;
        Ok(DeadlineStream { inner: stream })
    }

    /// Connect with `deadline` as the connect timeout, then install it
    /// as the read/write deadline too.
    #[allow(clippy::disallowed_methods)] // sets both deadlines before the stream is returned
    pub fn connect(addr: SocketAddr, deadline: Duration) -> std::io::Result<DeadlineStream> {
        let stream = TcpStream::connect_timeout(&addr, deadline)?;
        DeadlineStream::new(stream, deadline)
    }

    /// Block until `listener` accepts a connection, then install
    /// `deadline` as its read/write deadline. `Ok(None)` when the
    /// deadlines could not be set (the peer vanished between accept and
    /// setsockopt): the stream is dropped, and the listener is fine.
    /// `Err` is the accept's own error.
    #[allow(clippy::disallowed_methods)] // sets both deadlines before the stream is returned
    pub fn accept(
        listener: &TcpListener,
        deadline: Duration,
    ) -> std::io::Result<Option<DeadlineStream>> {
        let (stream, _) = listener.accept()?;
        Ok(DeadlineStream::new(stream, deadline).ok())
    }

    /// The peer's address.
    pub fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.peer_addr()
    }

    /// Disable Nagle's algorithm (request/reply traffic wants every
    /// frame out immediately).
    pub fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        self.inner.set_nodelay(on)
    }

    /// Shut down the write half, signalling EOF to the peer while
    /// still allowing reads to drain.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        self.inner.shutdown(std::net::Shutdown::Write)
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
