//! Blocking-hot-path fixture: the router handler's `execute` is an
//! entry point of its own (the I/O layer reaches it only through a
//! generic call), and its forward dials without a deadline.

pub fn execute(line: &str) -> Vec<u8> {
    forward(line)
}

fn forward(line: &str) -> Vec<u8> {
    // Planted: a dial with no deadline on a worker the tier waits on.
    let _s = TcpStream::connect(backend());
    line.as_bytes().to_vec()
}
