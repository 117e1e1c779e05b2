//! Simulator self-profiling: wall-time per event kind and
//! events-simulated/sec, accumulated inside the scenario loop.
//!
//! Everything else in this crate observes *simulated* time; this module
//! observes the simulator itself — where the host's wall-clock goes while
//! driving a run. The driver buckets its loop work (arrival routing,
//! engine iterations, fault injection, migration handling) into a
//! [`LoopProfile`], which [`LoopProfile::summarize`] renders as a table.

use std::time::Duration;

/// Wall-time accounting of one loop-work bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileBucket {
    /// Times the bucket's work ran.
    pub count: u64,
    /// Wall-clock nanoseconds spent in the bucket.
    pub wall_ns: u64,
}

impl ProfileBucket {
    /// Adds one timed occurrence.
    pub fn add(&mut self, elapsed: Duration) {
        self.count += 1;
        self.wall_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    }

    /// The bucket's wall-clock time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// Wall-time profile of one scenario run's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopProfile {
    /// Arrival handling: routing plus submission.
    pub arrivals: ProfileBucket,
    /// Engine iterations ([`count`](ProfileBucket::count) = steps driven).
    pub engine_steps: ProfileBucket,
    /// Fault injections (remap + KV eviction).
    pub faults: ProfileBucket,
    /// Completion handling: migrations shipped or closed-loop releases.
    pub completions: ProfileBucket,
}

impl LoopProfile {
    /// Loop events simulated: every timed occurrence across buckets.
    pub fn total_events(&self) -> u64 {
        self.arrivals.count + self.engine_steps.count + self.faults.count + self.completions.count
    }

    /// Total profiled wall-clock, in seconds.
    pub fn total_wall_s(&self) -> f64 {
        self.arrivals.wall_s() + self.engine_steps.wall_s() + self.faults.wall_s() + self.completions.wall_s()
    }

    /// Simulated loop events per wall-clock second (0 when nothing ran).
    pub fn events_per_s(&self) -> f64 {
        let wall = self.total_wall_s();
        if wall > 0.0 {
            self.total_events() as f64 / wall
        } else {
            0.0
        }
    }

    /// A terminal-friendly table of the buckets.
    pub fn summarize(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "loop profile: {} events in {:.3} ms wall ({:.0} events/s)\n",
            self.total_events(),
            self.total_wall_s() * 1e3,
            self.events_per_s()
        ));
        for (name, b) in [
            ("arrivals", &self.arrivals),
            ("engine steps", &self.engine_steps),
            ("faults", &self.faults),
            ("completions", &self.completions),
        ] {
            out.push_str(&format!("  {:<14} {:>10} events {:>12.3} ms\n", name, b.count, b.wall_s() * 1e3));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_and_rates_follow() {
        let mut p = LoopProfile::default();
        p.engine_steps.add(Duration::from_micros(10));
        p.engine_steps.add(Duration::from_micros(30));
        p.arrivals.add(Duration::from_micros(10));
        assert_eq!(p.total_events(), 3);
        assert!((p.total_wall_s() - 50e-6).abs() < 1e-12);
        assert!((p.events_per_s() - 3.0 / 50e-6).abs() < 1.0);
    }

    #[test]
    fn empty_profile_has_zero_rate() {
        let p = LoopProfile::default();
        assert_eq!(p.total_events(), 0);
        assert_eq!(p.events_per_s(), 0.0);
        assert!(p.summarize().contains("0 events"));
    }

    #[test]
    fn summary_names_every_bucket() {
        let mut p = LoopProfile::default();
        p.faults.add(Duration::from_micros(5));
        let table = p.summarize();
        for name in ["arrivals", "engine steps", "faults", "completions"] {
            assert!(table.contains(name), "missing {name}");
        }
        assert!(table.contains("1 events"));
    }
}
