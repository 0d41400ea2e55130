//! The forwarding plan: how each wire-protocol action traverses the
//! tier.
//!
//! [`FORWARD_MODES`] is index-aligned with
//! [`cbes_server::protocol::ACTIONS`] — entry `i` names the forwarding
//! mode of action `i`. The `cbes-analyze` drift rule pins the
//! alignment, the mode vocabulary, and the DESIGN.md forwarding table
//! against this array, so a new protocol action cannot land without a
//! routing decision.

/// Forwarding mode of each action, index-aligned with
/// [`cbes_server::protocol::ACTIONS`]:
///
/// - `"hash"` — dispatched to the consistent-hash owner of the
///   `(cluster, app)` key, failing over along the replica set.
/// - `"leader"` — sent to the replication leader, which then pushes the
///   resulting epoch to followers.
/// - `"merge"` — fanned out to every usable instance; replies are
///   merged into one tier-wide report.
/// - `"broadcast"` — sent to every usable instance; all must accept.
/// - `"local"` — answered by the router itself from its own state.
pub const FORWARD_MODES: [&str; 20] = [
    "broadcast", // register_profile: every instance needs the profile
    "hash",      // compare
    "hash",      // best_of
    "hash",      // schedule
    "leader",    // observe_load: leader observes, then replicates
    "leader",    // observe_partial
    "merge",     // stats
    "merge",     // metrics
    "broadcast", // shutdown: drain the whole tier
    "local",     // route: placement is the router's own state
    "broadcast", // replicate: relay the leader's sweep as-is
    "local",     // membership: the membership table lives here
    "hash",      // batch: same key-owner placement as compare
    "merge",     // trace: a trace's spans are scattered across instances
    "broadcast", // dump_flight: every instance dumps its own recorder
    "broadcast", // stage: every instance journals the same artifact
    "broadcast", // apply: the whole tier flips together
    "broadcast", // accept: tier-wide promotion
    "broadcast", // rollback: tier-wide restore
    "merge",     // artifact_status: one lifecycle row per instance
];

/// A parsed entry of [`FORWARD_MODES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardMode {
    /// Route to the hash owner of the `(cluster, app)` key.
    Hash,
    /// Send to the replication leader.
    Leader,
    /// Fan out to all usable instances and merge the replies.
    Merge,
    /// Send to all usable instances.
    Broadcast,
    /// Answer from the router's own state.
    Local,
}

impl ForwardMode {
    /// Parse one [`FORWARD_MODES`] entry.
    pub fn parse(mode: &str) -> Option<ForwardMode> {
        match mode {
            "hash" => Some(ForwardMode::Hash),
            "leader" => Some(ForwardMode::Leader),
            "merge" => Some(ForwardMode::Merge),
            "broadcast" => Some(ForwardMode::Broadcast),
            "local" => Some(ForwardMode::Local),
            _ => None,
        }
    }
}

/// The forwarding mode of the action at `action_index` (from
/// [`cbes_server::protocol::Request::action_index`]).
pub fn mode_of(action_index: usize) -> ForwardMode {
    FORWARD_MODES
        .get(action_index)
        .and_then(|m| ForwardMode::parse(m))
        // Unknown actions stay at the router boundary instead of being
        // forwarded somewhere surprising.
        .unwrap_or(ForwardMode::Local)
}

/// The forwarding mode of a wire tag — a `Request` variant name, as a
/// frame spells it (`BestOf` for action `best_of`) — if it names an
/// action. Lets the reactor tell a frame it relays from one a worker
/// runs without parsing the latter.
pub fn mode_of_tag(tag: &str) -> Option<ForwardMode> {
    let lowered = || tag.bytes().map(|b| b.to_ascii_lowercase());
    let spelled = |action: &&str| action.bytes().filter(|b| *b != b'_').eq(lowered());
    let actions = cbes_server::protocol::ACTIONS.iter();
    actions.into_iter().position(spelled).map(mode_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_server::protocol::ACTIONS;

    #[test]
    fn every_action_has_a_valid_mode() {
        assert_eq!(FORWARD_MODES.len(), ACTIONS.len());
        for (action, mode) in ACTIONS.iter().zip(FORWARD_MODES) {
            assert!(
                ForwardMode::parse(mode).is_some(),
                "action {action} has invalid mode {mode}"
            );
        }
    }

    #[test]
    fn eval_actions_are_hash_routed() {
        for (i, action) in ACTIONS.iter().enumerate() {
            let hash_routed = mode_of(i) == ForwardMode::Hash;
            let is_eval = matches!(*action, "compare" | "best_of" | "schedule" | "batch");
            assert_eq!(hash_routed, is_eval, "{action}");
        }
    }

    #[test]
    fn wire_tags_resolve_to_their_actions_mode() {
        assert_eq!(mode_of_tag("BestOf"), Some(ForwardMode::Hash));
        assert_eq!(mode_of_tag("Compare"), Some(ForwardMode::Hash));
        assert_eq!(mode_of_tag("RegisterProfile"), Some(ForwardMode::Broadcast));
        assert_eq!(mode_of_tag("ArtifactStatus"), Some(ForwardMode::Merge));
        assert_eq!(mode_of_tag("Comparex"), None);
        assert_eq!(mode_of_tag(""), None);
    }

    #[test]
    fn out_of_range_actions_stay_local() {
        assert_eq!(mode_of(usize::MAX), ForwardMode::Local);
    }
}
