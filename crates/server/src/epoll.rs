//! Readiness polling for the event-loop server: a thin `epoll` shim
//! over raw syscall FFI, so the workspace stays dependency-free.
//!
//! Every `unsafe` block in the crate lives in this module, and each is
//! a single audited syscall: `epoll_create1`, `epoll_ctl`, `epoll_wait`
//! and `close`. Callers only see the safe [`Poller`] surface — register
//! file descriptors with a `u64` token and an interest pair, then
//! [`Poller::wait`] for [`PollEvent`]s. It is level-triggered, so a fd
//! stays ready until the caller drains it; the reactor relies on that
//! to avoid losing partial reads.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("cbes-server's reactor needs epoll: Linux is the only supported target");

mod sys_epoll {
    //! Raw epoll ABI. The x86-64 kernel packs `epoll_event`; other
    //! architectures align it naturally.

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// One readiness event. `token` is whatever the caller passed at
/// registration. Error and hangup conditions surface as `readable`
/// (and `writable`) so the owner's next read/write observes the actual
/// `io::Error` or EOF — the poller never swallows failure detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// Caller-chosen identity of the registered fd.
    pub token: u64,
    /// The fd can be read (or has hung up / errored).
    pub readable: bool,
    /// The fd can be written (or has hung up / errored).
    pub writable: bool,
}

/// A level-triggered readiness multiplexer over raw fds.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys_epoll::EpollEvent>,
}

/// Millisecond timeout for the syscalls: `None` blocks forever,
/// sub-millisecond waits round up to 1 so a near deadline cannot spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

impl Poller {
    /// A poller watching nothing yet.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers cross the boundary; the returned fd is
        // owned by the Poller and closed on drop.
        let epfd = unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![sys_epoll::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    /// Start watching `fd` under `token` with the given interest.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        ctl(
            self.epfd,
            sys_epoll::EPOLL_CTL_ADD,
            fd,
            epoll_mask(readable, writable),
            token,
        )
    }

    /// Re-arm `fd` with a new token/interest pair.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        ctl(
            self.epfd,
            sys_epoll::EPOLL_CTL_MOD,
            fd,
            epoll_mask(readable, writable),
            token,
        )
    }

    /// Stop watching `fd`. Safe to call right before closing it.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        ctl(self.epfd, sys_epoll::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness or `timeout`, filling `out` (cleared
    /// first) with one event per ready fd. `EINTR` retries the full
    /// timeout — the reactor re-derives its deadlines every pass, so a
    /// marginally longer wait is harmless.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let ms = timeout_ms(timeout);
        loop {
            // SAFETY: `buf` is a live, correctly-typed array; the
            // kernel writes at most `buf.len()` entries.
            let n = unsafe {
                sys_epoll::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for ev in self.buf.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let events = ev.events;
                let token = ev.data;
                let fail = events & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0;
                out.push(PollEvent {
                    token,
                    readable: events & sys_epoll::EPOLLIN != 0 || fail,
                    writable: events & sys_epoll::EPOLLOUT != 0 || fail,
                });
            }
            return Ok(());
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from epoll_create1 and is never used
        // again after this close.
        unsafe { sys_epoll::close(self.epfd) };
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

fn epoll_mask(readable: bool, writable: bool) -> u32 {
    let mut m = 0;
    if readable {
        m |= sys_epoll::EPOLLIN;
    }
    if writable {
        m |= sys_epoll::EPOLLOUT;
    }
    m
}

fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = sys_epoll::EpollEvent {
        events,
        data: token,
    };
    let ptr = if op == sys_epoll::EPOLL_CTL_DEL {
        std::ptr::null_mut()
    } else {
        &mut ev as *mut sys_epoll::EpollEvent
    };
    // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent for
    // the duration of the call; the kernel copies it synchronously.
    let rc = unsafe { sys_epoll::epoll_ctl(epfd, op, fd, ptr) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let a = TcpStream::connect(l.local_addr().expect("addr")).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn readiness_round_trip() {
        let mut poller = Poller::new().expect("epoll_create1");
        let (mut a, b) = pair();
        poller
            .register(b.as_raw_fd(), 7, true, false)
            .expect("register");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "no data yet: {events:?}");

        a.write_all(b"x").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].writable);

        // Write interest on an idle socket fires immediately, and the
        // re-armed token replaces the old one.
        poller
            .modify(b.as_raw_fd(), 9, false, true)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 9 && e.writable),
            "{events:?}"
        );

        poller.deregister(b.as_raw_fd()).expect("deregister");
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn hangup_is_readable() {
        let mut poller = Poller::new().expect("epoll_create1");
        let (a, b) = pair();
        poller
            .register(b.as_raw_fd(), 3, true, false)
            .expect("register");
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "peer close must surface as readable: {events:?}"
        );
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(40))), 40);
    }
}
