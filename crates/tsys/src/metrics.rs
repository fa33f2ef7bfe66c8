//! Process-wide checker counters for the service `stats` snapshot.
//!
//! Perf work on the checker needs to stay observable from the outside: the
//! `tmg-service/v1` `stats` op (and `reproduce -- sweep --stats`) embeds a
//! snapshot of these counters in its `tmg-tier-stats/v1` payload, so an
//! operator can see how much the cone-of-influence reduction and the
//! explorer are actually doing without attaching a profiler.
//!
//! The counters are monotone process-wide atomics (relaxed ordering; they are
//! statistics, not synchronisation) updated by [`crate::opt`] slicing and the
//! [`crate::multiquery`] explorer.  The five shard and visited-table
//! counters belong to a parallel explorer that no longer exists: nothing
//! bumps them, and they stay in the schema, at 0, for the readers that name
//! their keys.

use std::sync::atomic::{AtomicU64, Ordering};

/// One process-wide monotone counter.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident => $json:literal),+ $(,)?) => {
        $( $(#[$doc])* static $name: AtomicU64 = AtomicU64::new(0); )+

        /// Registers every counter, by its JSON name and in declaration
        /// order, into the unified metrics registry (group `"checker"`).
        /// Idempotent; [`snapshot`] calls it, so any stats consumer sees
        /// the group registered.
        pub fn register() {
            tmg_obs::registry().register_counters(
                "checker",
                None,
                vec![$( ($json, &$name), )+],
            );
        }

        /// A point-in-time copy of every checker counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        #[allow(non_snake_case)]
        pub struct CheckerMetrics {
            $( $(#[$doc])* pub $name: u64, )+
        }

        /// Reads every counter (relaxed; values are monotone but not
        /// mutually consistent to the cycle).
        pub fn snapshot() -> CheckerMetrics {
            register();
            CheckerMetrics {
                $( $name: $name.load(Ordering::Relaxed), )+
            }
        }

        impl CheckerMetrics {
            /// Renders the snapshot as a hand-written JSON object (the
            /// vendored serde is derive-markers only).
            pub fn to_json(&self) -> String {
                let mut out = String::from("{ ");
                let mut first = true;
                $(
                    if !first { out.push_str(", "); }
                    first = false;
                    out.push_str(&format!("\"{}\": {}", $json, self.$name));
                )+
                let _ = first;
                out.push_str(" }");
                out
            }
        }
    };
}

counters! {
    /// States popped by shared (multi-query) explorations.
    STATES_EXPLORED => "states_explored",
    /// Shared explorations that ran on a cone-of-influence slice.
    SLICED_BATCHES => "sliced_batches",
    /// Shared explorations whose batch cone kept the whole function
    /// (slicing was the identity and the cached full model was reused).
    SLICE_IDENTITY_BATCHES => "slice_identity_batches",
    /// Statements removed by slicing, summed over sliced batches.
    STATES_SLICED_STMTS => "sliced_away_stmts",
    /// State variables (domain dimensions) removed by slicing, summed over
    /// sliced batches.
    STATES_SLICED_VARS => "sliced_away_vars",
    /// Sliced witnesses successfully completed against the full model.
    WITNESSES_RECONSTRUCTED => "witnesses_reconstructed",
    /// Always 0: shards executed by the retired parallel explorer.
    SHARDS_EXPLORED => "shards_explored",
    /// Always 0: shards the retired parallel explorer skipped.
    SHARDS_SKIPPED => "shards_skipped",
    /// Always 0: entries inserted into the retired visited table.
    VISITED_INSERTIONS => "visited_insertions",
    /// Always 0: revisits pruned through the retired visited table.
    VISITED_HITS => "visited_hits",
    /// Always 0: contended visited-table stripe locks.
    VISITED_SHARD_COLLISIONS => "shard_collisions",
}

macro_rules! bump_fns {
    ($($fn_name:ident => $name:ident),+ $(,)?) => {
        $(
            /// Adds `n` to the counter (relaxed).
            pub fn $fn_name(n: u64) {
                if n > 0 {
                    $name.fetch_add(n, Ordering::Relaxed);
                }
            }
        )+
    };
}

bump_fns! {
    add_states_explored => STATES_EXPLORED,
    add_sliced_batches => SLICED_BATCHES,
    add_slice_identity_batches => SLICE_IDENTITY_BATCHES,
    add_sliced_stmts => STATES_SLICED_STMTS,
    add_sliced_vars => STATES_SLICED_VARS,
    add_witnesses_reconstructed => WITNESSES_RECONSTRUCTED,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_group_matches_the_struct_renderer() {
        register();
        let registry_json = tmg_obs::registry()
            .group_json("checker")
            .expect("checker group registered");
        let struct_json = snapshot().to_json();
        // Same keys in the same order; values may differ only by counter
        // bumps racing between the two reads, so compare the key skeleton.
        let keys = |json: &str| -> Vec<String> {
            json.split('"')
                .skip(1)
                .step_by(2)
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(keys(&registry_json), keys(&struct_json));
    }

    #[test]
    fn snapshot_is_monotone_and_renders_json() {
        let before = snapshot();
        add_states_explored(3);
        add_sliced_batches(1);
        let after = snapshot();
        assert!(after.STATES_EXPLORED >= before.STATES_EXPLORED + 3);
        assert!(after.SLICED_BATCHES > before.SLICED_BATCHES);
        let json = after.to_json();
        assert!(json.contains("\"states_explored\":"));
        assert!(json.contains("\"sliced_away_vars\":"));
        assert!(json.contains("\"shard_collisions\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
