//! Pieces the workloads share: input seeding, the output digest, the run
//! budget, and the timed store probe.

use std::path::Path;
use std::time::{Duration, Instant};

use commsense_apps::{suite, AppSpec, RunResult, Scale};
use commsense_core::engine::RunRequest;
use commsense_core::store::ResultStore;

use crate::stats::{median, Layers};

/// Metric values by name, in the order they were set.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// SplitMix64: one well-mixed 64-bit value per state step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bench-scale suite with every generator reseeded from `seed`.
/// Seed 0 keeps the suite's own seeds, so its outputs match `repro`.
pub fn reseeded_suite(seed: u64) -> Vec<AppSpec> {
    suite(Scale::Bench)
        .into_iter()
        .map(|spec| {
            if seed == 0 {
                return spec;
            }
            let mut state = seed;
            let salt = splitmix64(&mut state);
            match spec {
                AppSpec::Em3d(mut p) => {
                    p.seed ^= salt;
                    AppSpec::Em3d(p)
                }
                AppSpec::Unstruc(mut p) => {
                    p.seed ^= salt;
                    AppSpec::Unstruc(p)
                }
                AppSpec::Iccg(mut p) => {
                    p.seed ^= salt;
                    AppSpec::Iccg(p)
                }
                AppSpec::Moldyn(mut p) => {
                    p.seed ^= salt;
                    AppSpec::Moldyn(p)
                }
            }
        })
        .collect()
}

/// FNV-1a digest of per-point `(app, mechanism, x, runtime_cycles,
/// events)` tuples: equal digests mean the same simulated outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one point into the digest.
    pub fn point(&mut self, app: &str, mechanism: &str, x: f64, cycles: u64, events: u64) {
        self.bytes(format!("{app}|{mechanism}|{x}|{cycles}|{events}\n").as_bytes());
    }

    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Decides how many repeats fit in the measuring time: another repeat
/// starts only while the longest one so far would still end in time.
/// Clones share the start and track their own longest repeat.
#[derive(Debug, Clone)]
pub struct Budget {
    start: Instant,
    limit: Duration,
    longest: Duration,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: u64) -> Self {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs(seconds),
            longest: Duration::ZERO,
        }
    }

    /// Notes a finished repeat's duration.
    pub fn note(&mut self, d: Duration) {
        self.longest = self.longest.max(d);
    }

    /// Whether one more repeat is expected to end within the budget.
    pub fn has_room(&self) -> bool {
        self.start.elapsed() + self.longest <= self.limit
    }
}

/// Host cost of the result store on a workload's own points.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    /// Median `ResultStore::save` time in seconds.
    pub save_s_p50: f64,
    /// Median `ResultStore::load` time in seconds.
    pub load_s_p50: f64,
    /// Loads the store satisfied.
    pub hits: u64,
    /// Records written.
    pub writes: u64,
    /// Payload bytes written plus read.
    pub bytes: u64,
}

impl StoreProbe {
    /// Saves every `(request, result)` pair into a fresh store at `dir`,
    /// loads each back, checks the replay matches, and removes the store.
    /// Returns the probe and whether every replay matched.
    pub fn run(dir: &Path, points: &[(RunRequest, RunResult)]) -> std::io::Result<(Self, bool)> {
        let _ = std::fs::remove_dir_all(dir);
        let store = ResultStore::open(dir)?;
        let mut saves = Vec::with_capacity(points.len());
        let mut loads = Vec::with_capacity(points.len());
        let mut ok = true;
        for (req, result) in points {
            let t = Instant::now();
            store.save(req, result)?;
            saves.push(t.elapsed().as_secs_f64());
        }
        for (req, result) in points {
            let t = Instant::now();
            let back = store.load(req);
            loads.push(t.elapsed().as_secs_f64());
            ok &= back.is_some_and(|b| format!("{b:?}") == format!("{result:?}"));
        }
        let st = store.stats();
        drop(store);
        std::fs::remove_dir_all(dir)?;
        Ok((
            StoreProbe {
                save_s_p50: median(&saves),
                load_s_p50: median(&loads),
                hits: st.hits,
                writes: saves.len() as u64,
                bytes: st.bytes_written + st.bytes_read,
            },
            ok,
        ))
    }
}

/// Simulated work counts: exact, identical on every repeat of one seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkCounts {
    /// Simulated cycles, summed over runs.
    pub cycles: u64,
    /// Events dispatched.
    pub events: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    useful_prefetches: u64,
    useless_prefetches: u64,
    bisection_bytes: u64,
}

impl WorkCounts {
    /// Adds one run's counts.
    pub fn add(&mut self, r: &RunResult) {
        let s = &r.stats;
        self.cycles += r.runtime_cycles;
        self.events += s.events;
        self.hits += s.cache_hit_miss.0;
        self.misses += s.cache_hit_miss.1;
        self.invalidations += s.proto.invalidations;
        self.useful_prefetches += s.useful_prefetches;
        self.useless_prefetches += s.useless_prefetches;
        self.bisection_bytes += s.bisection.app_total() + s.bisection.cross_traffic;
    }

    /// Sets the count metrics.
    pub fn set(&self, m: &mut Metrics) {
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        m.set("sim.cycles", self.cycles as f64);
        m.set("cache.misses", self.misses as f64);
        m.set("cache.invalidations", self.invalidations as f64);
        m.set("cache.hit_ratio", ratio(self.hits, self.misses));
        m.set(
            "cache.prefetch_useful_ratio",
            ratio(self.useful_prefetches, self.useless_prefetches),
        );
        m.set("mesh.bisection_bytes", self.bisection_bytes as f64);
    }
}

/// Sets the per-layer self times of a traced run, its loop remainder, the
/// layer shares, and the tracing overhead against `untraced_sim` seconds.
pub fn set_layers(m: &mut Metrics, l: &Layers, untraced_sim: f64) {
    let pairs = [
        ("machine.wake", l.wake),
        ("mesh.try_hop", l.try_hop),
        ("mesh.link_free", l.link_free),
        ("mesh.deliver", l.deliver),
        ("mesh.cross_tick", l.cross_tick),
        ("cache.proto", l.proto),
        ("cache.fill_prefetch", l.fill_prefetch),
    ];
    for (name, layer) in pairs {
        m.set(format!("{name}_s"), layer.secs);
        m.set(format!("{name}_events"), layer.events as f64);
    }
    m.set("des.loop_s", l.loop_secs);
    m.set("trace.sim_s", l.sim_secs);
    m.set("mesh.packets", l.deliver.events as f64);
    let share = |x: f64| {
        if l.sim_secs > 0.0 {
            x / l.sim_secs
        } else {
            0.0
        }
    };
    m.set("mesh.share", share(l.mesh_secs()));
    m.set("cache.share", share(l.cache_secs()));
    m.set("machine.wake_share", share(l.wake.secs));
    m.set("des.loop_share", share(l.loop_secs));
    m.set(
        "trace.overhead_frac",
        if l.sim_secs > 0.0 && untraced_sim > 0.0 {
            l.sim_secs / untraced_sim - 1.0
        } else {
            0.0
        },
    );
}

/// Sets the store metrics.
pub fn set_store(m: &mut Metrics, p: &StoreProbe) {
    m.set("store.hits", p.hits as f64);
    m.set("store.writes", p.writes as f64);
    m.set("store.bytes", p.bytes as f64);
    m.set("store.load_s_p50", p.load_s_p50);
    m.set("store.save_s_p50", p.save_s_p50);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_suite() {
        assert_eq!(reseeded_suite(0), suite(Scale::Bench));
        let other = reseeded_suite(7);
        assert_eq!(other, reseeded_suite(7));
        for (a, b) in other.iter().zip(&suite(Scale::Bench)) {
            assert_eq!(a.name(), b.name());
            assert_ne!(a, b, "{} was not reseeded", a.name());
        }
    }

    #[test]
    fn digest_sees_every_field() {
        let d = |cycles, events| {
            let mut d = Digest::default();
            d.point("EM3D", "sm", 18.0, cycles, events);
            d
        };
        assert_eq!(d(1, 2), d(1, 2));
        assert_ne!(d(1, 2), d(1, 3));
        assert_ne!(d(1, 2), d(2, 2));
    }
}
