//! Fixture I/O layer: no panics.
pub fn run() -> Result<(), String> {
    Ok(())
}
