//! Fixture: deadline-free socket IO on a serve path.

use std::io::{Read, Write};
use std::net::TcpStream;

pub fn fetch(mut sock: TcpStream) -> std::io::Result<Vec<u8>> {
    sock.write_all(b"ping")?;
    let mut buf = Vec::new();
    sock.read_to_end(&mut buf)?;
    Ok(buf)
}

pub fn relay(mut from: TcpStream, mut to: TcpStream) -> std::io::Result<()> {
    from.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;
    let mut buf = [0u8; 512];
    let n = from.read(&mut buf)?;
    to.write_all(&buf[..n])?; // in bounds: read() returns n <= buf.len()
    Ok(())
}
