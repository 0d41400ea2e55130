//! Blocking-hot-path fixture: the router handler's `execute` is an
//! entry point of its own (the I/O layer reaches it only through a
//! generic call), and its forward dials without a deadline. Its `relay`
//! hook runs on the reactor thread, where even a deadline-bounded wait
//! on a backend is a finding.

pub fn execute(line: &str) -> Vec<u8> {
    forward(line)
}

fn forward(line: &str) -> Vec<u8> {
    // Planted: a dial with no deadline on a worker the tier waits on.
    let _s = TcpStream::connect(backend());
    line.as_bytes().to_vec()
}

pub fn relay(line: &str) -> Option<Forward> {
    ask_backend(line)
}

fn ask_backend(line: &str) -> Option<Forward> {
    // Planted: the relay hook dials, asks and waits by itself instead
    // of leaving the dial to a worker job and the reply to the reactor.
    let mut client = Client::connect_timeout(backend(), TIMEOUT);
    let _reply = client.request(line);
    let _done = completions().recv();
    None
}
