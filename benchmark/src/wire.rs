//! The benchmark's own line-framed TCP client: blocking socket I/O and
//! newline scanning, with nothing borrowed from the program's client code.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::check::Failure;

const INITIAL_BUF: usize = 256 * 1024;

/// One connection to a shard or router.
pub struct Wire {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`; `buf[start..scanned]` holds
    /// no newline.
    start: usize,
    scanned: usize,
    end: usize,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Result<Wire, Failure> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A reply that takes this long means the program hung: fail the run
        // well inside its time limit instead of waiting forever.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Wire {
            stream,
            buf: vec![0; INITIAL_BUF],
            start: 0,
            scanned: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), Failure> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Blocks until at least one complete line has arrived, then hands
    /// every complete buffered line (without its newline) to `each`.
    /// Returns how many lines were handled.
    pub fn recv_lines(
        &mut self,
        mut each: impl FnMut(&[u8]) -> Result<(), Failure>,
    ) -> Result<usize, Failure> {
        loop {
            let mut lines = 0;
            while let Some(off) = self.buf[self.scanned..self.end]
                .iter()
                .position(|&b| b == b'\n')
            {
                let nl = self.scanned + off;
                each(&self.buf[self.start..nl])?;
                lines += 1;
                self.start = nl + 1;
                self.scanned = self.start;
            }
            self.scanned = self.end;
            if lines > 0 {
                return Ok(lines);
            }
            self.fill()?;
        }
    }

    /// Sends one request line and returns its reply (depth 1).
    pub fn roundtrip(&mut self, line: &[u8]) -> Result<Vec<u8>, Failure> {
        self.send(line)?;
        let mut reply = Vec::new();
        let got = self.recv_lines(|l| {
            reply = l.to_vec();
            Ok(())
        })?;
        if got != 1 {
            return Err(Failure::Io(format!("expected one reply line, got {got}")));
        }
        Ok(reply)
    }

    fn fill(&mut self) -> Result<(), Failure> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(Failure::Io("connection closed by peer".into())),
                Ok(got) => {
                    self.end += got;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn splits_replies_across_reads_and_batches_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(b"{\"a\":1}\n{\"b\"").unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(b":2}\n{\"c\":3}\n").unwrap();
        });
        let mut wire = Wire::connect(addr).unwrap();
        let mut seen = Vec::new();
        while seen.len() < 3 {
            wire.recv_lines(|l| {
                seen.push(String::from_utf8(l.to_vec()).unwrap());
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(seen, ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]);
        server.join().unwrap();
    }
}
