//! Blocking-hot-path fixture: the reactor's `run` reaches a sleep
//! directly and an fsync through two calls; the worker's waived park
//! demonstrates the waiver flow; a deadline-bounded call stays clean.

pub fn run(reactor: &mut Reactor) {
    // Planted: thread sleep on the event loop.
    std::thread::sleep(POLL_BACKOFF);
    step(reactor);
}

fn step(reactor: &mut Reactor) {
    persist(&reactor.journal);
}

pub fn worker_loop(rx: &Receiver<Job>) {
    // cbes-analyze: allow(blocking_hot_path, fixture waiver: the idle park is the designed wait point)
    while let Ok(_job) = rx.recv() {
        serve();
    }
}

fn serve() {
    // Deadline-bounded: not a blocking primitive.
    let _s = TcpStream::connect_timeout(&addr(), TIMEOUT);
}
