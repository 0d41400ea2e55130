//! Fixture: the reconfig crate exists, but the CLI next door has no
//! `fn artifact` command — the planted artifact-family mismatch.
pub struct ArtifactStore;
