//! The one binding std lacks for the serve event loop: `poll(2)`.
//!
//! std links libc already, so the symbol is declared here rather than
//! pulled in through a crate. This is the only module of the workspace
//! that may use `unsafe`.

use std::ffi::{c_int, c_short, c_ulong};
use std::io;

/// Readable (or a pending accept, or end of file).
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;

/// One entry of a poll set, laid out like `struct pollfd`. An `fd` of -1
/// is skipped by the kernel and reports no events.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The descriptor to watch.
    pub fd: c_int,
    /// Events of interest.
    pub events: c_short,
    /// Events that occurred; `POLLHUP` and `POLLERR` are always reported.
    pub revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: c_int, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout_ms` passes (-1
/// waits forever). Returns how many entries have `revents` set; retries
/// when a signal interrupts the wait.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records, and its length is passed with it;
        // the kernel writes only the `revents` fields within that length.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}
