//! Minimal `poll(2)` and nonblocking-connect shim under the connection
//! core ([`crate::conn`]): the only FFI this workspace declares. std has
//! no nonblocking connect, so `socket(2)`/`connect(2)` start one here;
//! everything else (nonblocking mode, socket options, the connect result
//! via `take_error`) goes through std. The declared symbols are
//! non-variadic, so no ABI subtleties apply.

use std::ffi::c_int;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::FromRawFd;

/// Readable (or about to EOF).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Descriptor not open (revents only).
pub const POLLNVAL: i16 = 0x020;

/// `struct pollfd` as the kernel expects it.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: c_int,
    /// Requested readiness ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Kernel-reported readiness.
    pub revents: i16,
}

#[cfg(target_os = "macos")]
type NfdsT = std::ffi::c_uint;
#[cfg(not(target_os = "macos"))]
type NfdsT = std::ffi::c_ulong;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
}

/// Waits for readiness on `fds`; `timeout_ms` of -1 blocks without
/// bound. EINTR retries internally; other errors report as zero ready
/// descriptors, so the caller simply re-polls.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            return rc as usize;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return 0;
        }
    }
}

// The socket constants and sockaddr layout are spelled out for Linux and
// macOS only.
#[cfg(not(any(target_os = "linux", target_os = "macos")))]
compile_error!("the nonblocking-connect shim supports Linux and macOS only");

const AF_INET: c_int = 2;
#[cfg(target_os = "linux")]
const AF_INET6: c_int = 10;
#[cfg(target_os = "macos")]
const AF_INET6: c_int = 30;
const SOCK_STREAM: c_int = 1;
/// Linux takes close-on-exec at creation, as std's own sockets do.
#[cfg(target_os = "linux")]
const SOCK_FLAGS: c_int = 0o2_000_000;
#[cfg(target_os = "macos")]
const SOCK_FLAGS: c_int = 0;
#[cfg(target_os = "linux")]
const EINPROGRESS: i32 = 115;
#[cfg(target_os = "macos")]
const EINPROGRESS: i32 = 36;

/// `sockaddr_in`/`sockaddr_in6` bytes for `addr`. macOS leads with a
/// length byte and a one-byte family; Linux has a native-endian 16-bit
/// family.
fn sockaddr(addr: &SocketAddr) -> (c_int, Vec<u8>) {
    let (family, len) = match addr {
        SocketAddr::V4(_) => (AF_INET, 16usize),
        SocketAddr::V6(_) => (AF_INET6, 28usize),
    };
    let mut raw = Vec::with_capacity(len);
    if cfg!(target_os = "linux") {
        raw.extend_from_slice(&(family as u16).to_ne_bytes());
    } else {
        raw.extend_from_slice(&[len as u8, family as u8]);
    }
    raw.extend_from_slice(&addr.port().to_be_bytes());
    match addr {
        SocketAddr::V4(a) => {
            raw.extend_from_slice(&a.ip().octets());
            raw.extend_from_slice(&[0u8; 8]);
        }
        SocketAddr::V6(a) => {
            raw.extend_from_slice(&a.flowinfo().to_ne_bytes());
            raw.extend_from_slice(&a.ip().octets());
            raw.extend_from_slice(&a.scope_id().to_ne_bytes());
        }
    }
    (family, raw)
}

/// Starts a nonblocking TCP connect to `addr`. The stream is returned
/// at once; it polls writable when the handshake ends, and its
/// `take_error` then holds the outcome.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let (family, raw) = sockaddr(addr);
    // SAFETY: socket(2) takes plain integers and touches no memory of ours.
    let fd = unsafe { socket(family, SOCK_STREAM | SOCK_FLAGS, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh, open socket that nothing else owns; the
    // stream takes sole ownership, so every early return closes it.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    // SAFETY: `raw` is a complete sockaddr of the family the socket was
    // made with, valid for `raw.len()` bytes for the whole call, and `fd`
    // stays open because `stream` owns it.
    if unsafe { connect(fd, raw.as_ptr(), raw.len() as u32) } == 0 {
        return Ok(stream);
    }
    let e = io::Error::last_os_error();
    // In progress, or interrupted (which carries on in the background):
    // either way the handshake ends in a writable event.
    if e.raw_os_error() == Some(EINPROGRESS) || e.kind() == io::ErrorKind::Interrupted {
        Ok(stream)
    } else {
        Err(e)
    }
}
