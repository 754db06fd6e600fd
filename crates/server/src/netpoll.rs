//! Readiness for the worker pool: `poll(2)` and a cross-thread waker.
//!
//! `std` has no readiness API and the workspace is registry-free, so
//! the one foreign call the front end needs is declared here by hand.
//! This module holds the crate's only `unsafe` block; everything else
//! stays under `deny(unsafe_code)`.

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uucs_telemetry::{metrics, Counter};

/// Data may be read without blocking.
pub(crate) const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Reported regardless of the interest set: the descriptor is in error,
/// hung up, or not open.
pub(crate) const POLLDEAD: i16 = 0x008 | 0x010 | 0x020;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// One entry of a `poll(2)` set, laid out as C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    pub(crate) fn set_events(&mut self, events: i16) {
        self.events = events;
    }

    /// What the last [`poll_ready`] reported for this entry.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` elapses, and
/// returns how many entries have non-zero `revents` (0 on timeout or a
/// signal). The timeout is rounded up to whole milliseconds so a short
/// deadline never turns into a busy loop.
#[allow(unsafe_code)]
pub(crate) fn poll_ready(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs with `struct pollfd`'s layout, and the length passed is
    // the slice's own; the kernel reads `fd`/`events` and writes only
    // `revents` within those entries. A stale descriptor number is
    // reported as POLLNVAL, never dereferenced.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// The writing half of a worker's wake-up channel. Any thread may call
/// [`Waker::wake`]; at most one byte is in flight however many do.
pub(crate) struct Waker {
    tx: UnixStream,
    /// A wake-up is already on its way to the sleeper.
    armed: AtomicBool,
    writes: Counter,
}

/// The reading half: the worker puts [`WakeReceiver::poll_fd`] in its
/// `poll` set and calls [`WakeReceiver::disarm`] when it fires.
pub(crate) struct WakeReceiver {
    rx: UnixStream,
    waker: Arc<Waker>,
}

/// A connected waker pair over a nonblocking `UnixStream::pair`.
pub(crate) fn wake_pair() -> io::Result<(Arc<Waker>, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let waker = Arc::new(Waker {
        tx,
        armed: AtomicBool::new(false),
        writes: metrics::counter("server.tcp.waker_writes"),
    });
    Ok((waker.clone(), WakeReceiver { rx, waker }))
}

impl Waker {
    /// Makes the sleeper's next (or current) `poll` return. Publish the
    /// work first: the `SeqCst` swap here pairs with the store in
    /// [`WakeReceiver::disarm`], so either this call writes a byte or
    /// the sleeper's re-examination after `disarm` sees the work.
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            self.writes.inc();
            // A failed write means the sleeper is gone (EPIPE) — nobody
            // left to wake. The pipe cannot fill: `armed` admits one
            // byte per disarm.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl WakeReceiver {
    pub(crate) fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Consumes the pending wake-up. The order is the protocol: drain
    /// the bytes, *then* clear `armed`; the caller re-examines its work
    /// afterwards. Clearing first would let a concurrent `wake` write a
    /// byte that this drain swallows, leaving `armed` set over an empty
    /// pipe — every later wake would be skipped.
    pub(crate) fn disarm(&self) {
        let mut buf = [0u8; 16];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.waker.armed.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn poll_times_out_on_an_idle_set_and_reports_a_wake() {
        let (waker, rx) = wake_pair().unwrap();
        let mut fds = [rx.poll_fd()];
        assert_eq!(poll_ready(&mut fds, Duration::from_millis(1)).unwrap(), 0);
        waker.wake();
        waker.wake();
        assert_eq!(poll_ready(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        rx.disarm();
        assert_eq!(poll_ready(&mut fds, Duration::from_millis(1)).unwrap(), 0);
    }

    /// The lost-wake-up check: a producer publishes work items and
    /// wakes after each; the consumer sleeps in `poll` whenever it has
    /// caught up. A `poll` that times out while published work is
    /// unconsumed means a wake was dropped.
    #[test]
    fn no_wake_is_lost_under_contention() {
        const ITEMS: u64 = 200_000;
        let (waker, rx) = wake_pair().unwrap();
        let published = Arc::new(AtomicU64::new(0));
        let producer = {
            let published = published.clone();
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    published.fetch_add(1, Ordering::SeqCst);
                    waker.wake();
                }
            })
        };
        let mut fds = [rx.poll_fd()];
        let mut consumed = 0u64;
        while consumed < ITEMS {
            let ready = poll_ready(&mut fds, Duration::from_secs(5)).unwrap();
            assert!(
                ready > 0 || published.load(Ordering::SeqCst) == consumed,
                "poll timed out with {} items published and {consumed} consumed",
                published.load(Ordering::SeqCst)
            );
            rx.disarm();
            consumed = published.load(Ordering::SeqCst);
        }
        producer.join().unwrap();
    }
}
