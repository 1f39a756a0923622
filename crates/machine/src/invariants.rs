//! Runtime protocol-correctness checking (see [`crate::CheckConfig`]).
//!
//! When a machine is configured with `check: Some(..)`, a [`Checker`] rides
//! along with the event loop and asserts, after every coherence transition,
//! that the protocol state is consistent:
//!
//! * **Single writer / multiple readers** — at most one `Modified` copy
//!   exists machine-wide, and it excludes every `Shared` copy.
//! * **Directory/cache consistency** — a `Modified` copy is the directory's
//!   tracked owner; every `Shared` copy is in the directory's sharer set
//!   (the one-sided LimitLESS invariant: stale *directory* sharers are
//!   legal, stale *cache* copies are not).
//! * **No lost invalidations** — a dropped invalidation leaves a stale
//!   cached copy behind, which the directory check above catches the moment
//!   the write transaction completes.
//! * **Message-channel conservation** — every packet the machine injects
//!   for a compute node is consumed exactly once, cross-checked against the
//!   `mesh::recorder` packet ids: no duplicated deliveries, no packets the
//!   network delivered that the machine never consumed, and at the end of
//!   the run `injected = consumed + in-flight envelopes`.
//! * **Link exclusivity** — hop intervals on a link never overlap: no hop
//!   starts before the link's previous hop finished serializing. The
//!   `mesh::recorder` checks every hop (recorded packet or not) against
//!   its link's latest end, so a double-booked wire — which silently
//!   under-models the contention Figures 7/8 measure — fails the run.
//!
//! Checking is bookkeeping plus assertions only — it never schedules
//! events or feeds any time computation, so simulated cycle counts are
//! bit-identical with and without it (pinned by the `check_identity`
//! tests). Violations panic with a message starting with
//! [`INVARIANT_MARKER`], which the litmus fuzzer and `repro`/`litmus`
//! binaries turn into machine-readable failure summaries.

use commsense_cache::{LineId, Protocol};
use commsense_mesh::{Endpoint, LinkOverlap, PacketClass, PacketRecord, NO_RECORD};

use crate::config::CheckConfig;

/// Prefix of every invariant-violation panic message (machine-readable
/// failure classification for the fuzzer and CI).
pub const INVARIANT_MARKER: &str = "PROTOCOL-INVARIANT";

/// Prefix of every sequential-consistency-oracle panic message.
pub const ORACLE_MARKER: &str = "SC-ORACLE";

/// The live checker owned by the machine while a checked run executes.
#[derive(Debug)]
pub(crate) struct Checker {
    /// Node-destined packets injected.
    injected: u64,
    /// Node-destined packets consumed (delivered to the machine layer).
    consumed: u64,
    /// Consumed packets without a record id (recorder table full).
    untracked_consumed: u64,
    /// Per-record-id delivery flags (double-consumption detection).
    delivered: Vec<bool>,
    /// Coherence transitions checked.
    transitions: u64,
}

#[cold]
#[inline(never)]
fn violate(detail: &str) -> ! {
    panic!("{INVARIANT_MARKER} violated: {detail}");
}

impl Checker {
    pub(crate) fn new(_cfg: CheckConfig) -> Self {
        Checker {
            injected: 0,
            consumed: 0,
            untracked_consumed: 0,
            delivered: Vec::new(),
            transitions: 0,
        }
    }

    /// Records the injection of a node-destined packet (`rec` is its
    /// recorder id, [`NO_RECORD`] if the record table was full).
    pub(crate) fn on_inject(&mut self, rec: u32) {
        self.injected += 1;
        if rec != NO_RECORD {
            let i = rec as usize;
            if i >= self.delivered.len() {
                self.delivered.resize(i + 1, false);
            }
        }
    }

    /// Records the consumption of a delivered packet, panicking if the same
    /// record id is consumed twice (a duplicated delivery).
    pub(crate) fn on_deliver(&mut self, rec: u32) {
        self.consumed += 1;
        if rec == NO_RECORD {
            self.untracked_consumed += 1;
            return;
        }
        let i = rec as usize;
        if i >= self.delivered.len() {
            self.delivered.resize(i + 1, false);
        }
        if self.delivered[i] {
            violate(&format!("packet record {rec} consumed twice"));
        }
        self.delivered[i] = true;
    }

    /// Verifies the coherence invariants on `line` after a transition.
    pub(crate) fn check_line(&mut self, proto: &Protocol, line: LineId) {
        self.transitions += 1;
        if let Err(e) = proto.verify_line(line) {
            violate(&format!("after transition: {e}"));
        }
    }

    /// Number of coherence transitions checked so far.
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// End-of-run link-exclusivity check: `overlaps` is the recorder's
    /// count of hops that started on a still-busy link, `first` the first
    /// of them.
    pub(crate) fn check_link_exclusivity(&self, overlaps: u64, first: Option<LinkOverlap>) {
        if let Some(o) = first {
            violate(&format!(
                "link exclusivity: {overlaps} hop(s) started on a busy link; first on \
                 link {} at {}ps while busy until {}ps",
                o.link,
                o.start.as_ps(),
                o.busy_until.as_ps()
            ));
        }
    }

    /// End-of-run conservation check. `live_envelopes` is the number of
    /// message envelopes still in flight when the last program retired
    /// (runs may legitimately end with writebacks or stale acks still
    /// traversing the mesh); `records` is the recorder's packet table.
    pub(crate) fn final_check(&self, live_envelopes: usize, records: Option<&[PacketRecord]>) {
        if self.consumed + live_envelopes as u64 != self.injected {
            violate(&format!(
                "message conservation: injected {} != consumed {} + in-flight {}",
                self.injected, self.consumed, live_envelopes
            ));
        }
        let Some(records) = records else { return };
        // Cross-check against the recorder: the set of record ids the
        // machine consumed must equal the set the network delivered to a
        // compute node.
        let tracked_consumed = self.consumed - self.untracked_consumed;
        let mut recorded_delivered = 0u64;
        for (id, r) in records.iter().enumerate() {
            // Cross-traffic is outside conservation even when a hostile
            // pattern aims it at a compute node: the machine absorbs it at
            // the ejection port without consuming it.
            if !matches!(r.dst, Endpoint::Node(_)) || r.class == PacketClass::CrossTraffic {
                continue;
            }
            let machine_saw = self.delivered.get(id).copied().unwrap_or(false);
            if r.delivered_at.is_some() {
                recorded_delivered += 1;
                if !machine_saw {
                    violate(&format!(
                        "packet record {id} delivered by the network but never consumed"
                    ));
                }
            } else if machine_saw {
                violate(&format!(
                    "packet record {id} consumed but the network never delivered it"
                ));
            }
        }
        if recorded_delivered != tracked_consumed {
            violate(&format!(
                "recorder cross-check: {recorded_delivered} recorded deliveries \
                 != {tracked_consumed} tracked consumptions"
            ));
        }
    }
}
