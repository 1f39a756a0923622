//! Pins the fig4-scale EM3D cycle counts for every mechanism.
//!
//! Determinism is a documented invariant of the simulator (DESIGN.md §4):
//! identical inputs must produce identical event interleavings and hence
//! identical cycle counts, no matter how the hot path is restructured.
//! These constants were captured before the hot-path overhaul (calendar
//! queue, route table, slab tables, allocation elimination) and verified
//! unchanged after it. If a perf change moves any of these numbers, it
//! changed simulation *behaviour*, not just speed.
//!
//! They were re-recorded once, when the link arbiter stopped letting a
//! packet that reaches a link as it frees jump the packets queued for it
//! (two packets used to serialize on one link at once): that moved the
//! shared-memory cycle counts, while the message-passing rows stayed
//! bit-identical. The same change arms `LinkFree` only while packets wait
//! for a link, which removed events but no cycles.
//!
//! Ignored by default because it simulates the full fig4-scale workload
//! (slow without optimizations); run it with
//! `cargo test --release -p commsense-bench -- --ignored`.

use commsense_bench::{perf, Scale};
use commsense_machine::MachineConfig;

/// (mechanism label, runtime cycles, simulation events) at fig4 scale.
const EXPECTED: [(&str, u64, u64); 5] = [
    ("sm", 87767, 246211),
    ("sm+pf", 81157, 244824),
    ("mp-int", 84467, 38233),
    ("mp-poll", 70974, 39258),
    ("bulk", 93943, 25252),
];

#[test]
#[ignore = "fig4-scale simulation; run with --release -- --ignored"]
fn fig4_scale_cycle_counts_are_bit_identical() {
    let report = perf::run_perf(Scale::Bench, &MachineConfig::alewife(), 1);
    assert_eq!(report.runs.len(), EXPECTED.len());
    for (run, (mech, cycles, events)) in report.runs.iter().zip(EXPECTED) {
        assert_eq!(run.mechanism, mech);
        assert!(run.verified, "{mech} failed verification");
        assert_eq!(
            run.runtime_cycles, cycles,
            "{mech}: cycle count drifted from the pinned capture"
        );
        assert_eq!(
            run.events, events,
            "{mech}: event count drifted from the pinned capture"
        );
    }
}
