//! Minimal `poll(2)` shim under the connection core ([`crate::conn`]):
//! the only FFI this workspace declares. Everything else (nonblocking
//! mode, socket options) goes through std, and the declared symbol is
//! non-variadic, so no ABI subtleties apply.

use std::ffi::c_int;

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
