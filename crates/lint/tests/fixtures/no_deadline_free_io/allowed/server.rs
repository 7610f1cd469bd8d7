//! Fixture: the escaped twin, plus the pattern the rule wants.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

pub fn fetch(mut sock: TcpStream) -> std::io::Result<Vec<u8>> {
    sock.write_all(b"ping")?; // lint: allow(no-deadline-free-io)
    let mut buf = Vec::new();
    sock.read_to_end(&mut buf)?; // lint: allow(no-deadline-free-io)
    Ok(buf)
}

pub fn relay(mut from: TcpStream, mut to: TcpStream) -> std::io::Result<()> {
    from.set_read_timeout(Some(Duration::from_millis(50)))?;
    from.set_write_timeout(Some(Duration::from_millis(50)))?;
    let mut buf = [0u8; 512];
    let n = from.read(&mut buf)?;
    to.write_all(&buf[..n])?; // in bounds: read() returns n <= buf.len()
    Ok(())
}
