//! Fixture I/O layer: no panics, but a deadline off the wall clock.
pub fn run() -> Result<(), String> {
    let _deadline = std::time::Instant::now();
    Ok(())
}
