//! SIGTERM/SIGINT → drain bridge for the `reach-served` binary.
//!
//! The workspace carries no external crates, so this is a minimal raw
//! FFI binding to `signal(2)`. The handler sets an atomic flag and writes
//! one byte to a socket pair (the self-pipe trick; `write(2)` is
//! async-signal-safe). The binary parks a watcher thread in
//! [`wait_for_termination`] on the other end, which turns the byte into a
//! [`Server::drain`](crate::server::Server::drain) — all the actual work
//! happens on ordinary threads, never in the handler, and nothing polls.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; never cleared.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    /// `SIGINT` on every unix this builds on.
    pub const SIGINT: i32 = 2;
    /// `SIGTERM` on every unix this builds on.
    pub const SIGTERM: i32 = 15;

    /// The socket pair, never closed: `.0` is read by
    /// [`wait_for_termination`], `.1` is written by the handler and by
    /// [`cancel_wait`].
    static PAIR: OnceLock<(UnixStream, UnixStream)> = OnceLock::new();
    /// The raw fd of `PAIR.1` for the handler, which may not touch a
    /// `OnceLock`; -1 until [`install`].
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn raise(signum: i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store, one load,
        // one write(2). The fd is non-blocking, so a full buffer (bytes
        // nobody has read yet — the waiter is already due to wake) drops
        // the byte instead of blocking the handler.
        super::TERM.store(true, Ordering::SeqCst);
        let fd = WAKE_FD.load(Ordering::SeqCst);
        if fd >= 0 {
            // SAFETY: `fd` is the write end of `PAIR`, which lives in a
            // static and is never closed; the buffer is one valid byte.
            unsafe {
                write(fd, [1u8].as_ptr(), 1);
            }
        }
    }

    pub fn install() -> std::io::Result<()> {
        if PAIR.get().is_none() {
            let (rx, tx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            // A racing `install` loses here and its pair is dropped.
            let _ = PAIR.set((rx, tx));
        }
        let (_, tx) = PAIR.get().expect("socket pair was just set");
        WAKE_FD.store(tx.as_raw_fd(), Ordering::SeqCst);
        // SAFETY: `on_signal` does only async-signal-safe work, and the fd
        // it writes to was published above.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
        Ok(())
    }

    pub fn raise_term() {
        // SAFETY: `raise` has no preconditions; with no handler installed
        // SIGTERM's default action ends the process, as documented.
        unsafe {
            raise(SIGTERM);
        }
    }

    /// Blocks for one byte from the handler or from [`cancel_wait`].
    pub fn wait() {
        if let Some((rx, _)) = PAIR.get() {
            let mut rx: &UnixStream = rx;
            // Ok(1) is the wake-up; an error has nothing to wait for.
            let _ = rx.read(&mut [0u8; 1]);
        }
    }

    pub fn cancel_wait() {
        if let Some((_, tx)) = PAIR.get() {
            let mut tx: &UnixStream = tx;
            let _ = tx.write(&[0u8]);
        }
    }
}

/// Installs the termination handler for SIGTERM and SIGINT. A no-op on
/// non-unix targets (where only wire DRAIN triggers a graceful drain).
/// Fails only when the process cannot open a socket pair, and then
/// installs nothing.
pub fn install() -> std::io::Result<()> {
    #[cfg(unix)]
    imp::install()?;
    Ok(())
}

/// Whether a termination signal has been received since [`install`].
pub fn termination_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Blocks until a termination signal arrives (`true`) or [`cancel_wait`]
/// is called (`false`). Returns at once — `false` unless a signal was
/// already seen — before [`install`] and on non-unix targets, where no
/// signal can arrive. For one waiting thread.
pub fn wait_for_termination() -> bool {
    #[cfg(unix)]
    imp::wait();
    termination_requested()
}

/// Releases the thread blocked in [`wait_for_termination`], so a process
/// that is draining for another reason (a wire DRAIN) can join it.
pub fn cancel_wait() {
    #[cfg(unix)]
    imp::cancel_wait();
}

/// Sends this process a SIGTERM (unix only; no-op elsewhere) — exists so
/// the lifecycle test can exercise the real signal path in-process.
pub fn raise_term_for_test() {
    #[cfg(unix)]
    imp::raise_term();
}
