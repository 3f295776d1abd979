//! Waiting on the load generator's sockets with `ppoll(2)`, declared
//! here because the benchmark has no libc crate (libc itself is always
//! linked). `ppoll` takes its timeout in nanoseconds, so the generator
//! wakes both when an answer arrives and at the next request's due time,
//! without sleep-polling between the two.

use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data (or a closed peer) is available.
pub const POLLIN: c_short = 0x001;
/// The descriptor accepts writes without blocking.
pub const POLLOUT: c_short = 0x004;

/// `struct pollfd`.
#[repr(C)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub fn new(fd: RawFd, events: c_short) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` has passed; with no
/// descriptors it just sleeps. An error or a signal only ends the wait
/// early: the caller's next round reads or writes and finds out.
pub fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd-layout structs, of which the kernel writes only `revents`;
    // `ts` outlives the call; a null sigmask leaves the mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}
