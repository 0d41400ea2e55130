//! Fixture protocol.
pub enum Request {
    Compare { app: String },
    Stats,
}
