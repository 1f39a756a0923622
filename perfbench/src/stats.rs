//! The benchmark's own statistics: medians, quartiles, the tail
//! percentile rule, failure fractions, and the per-layer split of a
//! dispatch profile.

use commsense_machine::DispatchProfile;

/// Median of `xs` (the mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, the rule the spread of repeated runs
/// is judged by. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no data");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The smallest value in each slot across equally long samples: with
/// repeats of identical work, each slot's fastest observed time.
///
/// # Panics
///
/// Panics if the samples differ in length.
pub fn best_per_slot<S: AsRef<[f64]>>(samples: &[S]) -> Vec<f64> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    let mut best = first.as_ref().to_vec();
    for s in &samples[1..] {
        let s = s.as_ref();
        assert_eq!(s.len(), best.len(), "samples of unequal length");
        for (b, &x) in best.iter_mut().zip(s) {
            *b = b.min(x);
        }
    }
    best
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, never below the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// The percentile it sits at (50 when the sample is too small for
    /// anything above the median).
    pub percentile: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `xs` (see [`Tail`]). With `n` samples sorted ascending, the
/// value at index `n - 11` has exactly ten samples beyond it; when that
/// index falls at or below the middle the tail is the median.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 50.0,
            samples: 0,
        };
    }
    let s = sorted(xs);
    match n.checked_sub(11) {
        Some(k) if k > (n - 1) / 2 => Tail {
            value: s[k],
            percentile: 100.0 * (k + 1) as f64 / n as f64,
            samples: n,
        },
        _ => Tail {
            value: median(xs),
            percentile: 50.0,
            samples: n,
        },
    }
}

/// Outcome counts of the operations a run attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, panicked, or produced an unverified result.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed operations as a share of those attempted (0 when none were).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Host time and event count of one simulator layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Dispatch self time in seconds.
    pub secs: f64,
    /// Events dispatched.
    pub events: u64,
}

impl Layer {
    fn add(&mut self, secs: f64, events: u64) {
        self.secs += secs;
        self.events += events;
    }
}

/// A dispatch profile regrouped into the simulator's layers. Every event
/// kind the machine profiles lands in exactly one layer, so the layers'
/// self times plus [`Layers::loop_secs`] add up to the simulate time they
/// were split from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// `wake`: the program interpreter resuming a node.
    pub wake: Layer,
    /// `net-try-hop`: a packet attempting its next link.
    pub try_hop: Layer,
    /// `net-link-free`: a link becoming free.
    pub link_free: Layer,
    /// `net-deliver`: a packet reaching its ejection port.
    pub deliver: Layer,
    /// `cross-tick`: the cross-traffic injector.
    pub cross_tick: Layer,
    /// `proto`: a coherence protocol message.
    pub proto: Layer,
    /// `fill-prefetch-rd` and `fill-prefetch-ex`: deferred prefetch fills.
    pub fill_prefetch: Layer,
    /// Simulate time outside every dispatch: the event queue's pops and
    /// pushes, machine construction and output verification.
    pub loop_secs: f64,
    /// The simulate time the layers were split from.
    pub sim_secs: f64,
}

impl Layers {
    /// Adds one run's profile, measured over `sim_secs` of simulate time.
    pub fn add_profile(&mut self, profile: &DispatchProfile, sim_secs: f64) {
        let mut dispatched = 0.0;
        for k in &profile.kinds {
            let layer = match k.kind {
                "wake" => &mut self.wake,
                "net-try-hop" => &mut self.try_hop,
                "net-link-free" => &mut self.link_free,
                "net-deliver" => &mut self.deliver,
                "cross-tick" => &mut self.cross_tick,
                "proto" => &mut self.proto,
                "fill-prefetch-rd" | "fill-prefetch-ex" => &mut self.fill_prefetch,
                other => panic!("dispatch kind {other:?} has no layer"),
            };
            layer.add(k.self_secs, k.events);
            dispatched += k.self_secs;
        }
        self.loop_secs += sim_secs - dispatched;
        self.sim_secs += sim_secs;
    }

    /// The mesh's dispatch self time: hops, link hand-offs, deliveries and
    /// the cross-traffic injector.
    pub fn mesh_secs(&self) -> f64 {
        self.try_hop.secs + self.link_free.secs + self.deliver.secs + self.cross_tick.secs
    }

    /// The cache's dispatch self time: protocol messages and prefetch fills.
    pub fn cache_secs(&self) -> f64 {
        self.proto.secs + self.fill_prefetch.secs
    }

    /// Every layer's self time plus the loop remainder; equals
    /// [`Layers::sim_secs`] up to rounding.
    pub fn total_secs(&self) -> f64 {
        self.wake.secs + self.mesh_secs() + self.cache_secs() + self.loop_secs
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsense_machine::DispatchKindProfile;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: two
        // values extrapolate.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn best_per_slot_takes_each_slots_minimum() {
        let a = vec![3.0, 1.0, 5.0];
        let b = vec![2.0, 4.0, 5.5];
        assert_eq!(best_per_slot(&[&a, &b]), vec![2.0, 1.0, 5.0]);
        assert_eq!(best_per_slot(&[&a]), a);
        assert!(best_per_slot::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        // Input order does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(tail(&rev), t);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        // 21 samples: index 10 is both the middle and n - 11.
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 11.0);
        assert_eq!(tail(&xs).percentile, 50.0);
        // 22 samples: index 11 has ten beyond it and sits above the middle.
        let xs: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 12.0);
        let few = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(tail(&few).value, 2.5);
        assert_eq!(tail(&few).samples, 4);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn failed_frac_counts_unverified_points() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        // A verified point, a panicked point, and a point that ran but
        // did not match its sequential reference.
        for ok in [true, false, false, true] {
            t.record(ok);
        }
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failed, 2);
        assert_eq!(t.failed_frac(), 0.5);
    }

    fn kind(kind: &'static str, events: u64, self_secs: f64) -> DispatchKindProfile {
        DispatchKindProfile {
            kind,
            events,
            self_secs,
        }
    }

    #[test]
    fn layers_plus_loop_sum_to_simulate_time() {
        let profile = DispatchProfile {
            kinds: vec![
                kind("wake", 100, 0.25),
                kind("net-try-hop", 80, 0.125),
                kind("net-link-free", 40, 0.0625),
                kind("net-deliver", 20, 0.03125),
                kind("proto", 30, 0.1),
                kind("fill-prefetch-rd", 5, 0.01),
                kind("fill-prefetch-ex", 3, 0.005),
                kind("cross-tick", 7, 0.02),
            ],
            batches: 90,
        };
        let mut l = Layers::default();
        l.add_profile(&profile, 0.75);
        l.add_profile(&profile, 0.8);
        assert_eq!(l.sim_secs, 1.55);
        assert!((l.total_secs() - l.sim_secs).abs() < 1e-12);
        assert_eq!(l.fill_prefetch.events, 16);
        assert_eq!(l.try_hop.events, 160);
        assert!((l.mesh_secs() - 2.0 * 0.23875).abs() < 1e-12);
        assert!((l.cache_secs() - 2.0 * 0.115).abs() < 1e-12);
        assert!((l.loop_secs - (1.55 - 2.0 * 0.60375)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "has no layer")]
    fn unknown_dispatch_kinds_are_refused() {
        let profile = DispatchProfile {
            kinds: vec![kind("teleport", 1, 0.1)],
            batches: 1,
        };
        Layers::default().add_profile(&profile, 0.2);
    }
}
