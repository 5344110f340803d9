//! Deterministic fault-injecting message transport.
//!
//! The DUST control plane is designed to survive a lossy management
//! network (§III-C's keepalives and replica substitution exist precisely
//! because messages and nodes fail). This module decides the *fate* of
//! every envelope crossing the wire: dropped, delivered once, or
//! delivered twice, each copy after a configurable delay plus jitter —
//! jitter makes copies overtake each other, so reordering falls out for
//! free from the event queue's timestamp ordering.
//!
//! All randomness comes from one [`SplitMix64`] stream seeded from the
//! simulation seed, so a run's entire fault pattern is a pure function of
//! `(seed, profile)`: two same-seed runs produce bit-identical message
//! fates, which is what makes chaos scenarios debuggable and the sweep
//! results in `EXPERIMENTS.md` reproducible.

use dust_topology::SplitMix64;

/// Fault model for the control plane; both directions share it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability an envelope is dropped outright, `0.0..=1.0`.
    pub drop: f64,
    /// Probability a delivered envelope is delivered *twice*, `0.0..=1.0`.
    pub duplicate: f64,
    /// Base propagation delay applied to every delivered copy, ms.
    pub delay_ms: u64,
    /// Extra uniform delay in `0..=jitter_ms` drawn per copy, ms. Jitter
    /// larger than the send spacing reorders messages.
    pub jitter_ms: u64,
}

impl FaultProfile {
    /// A perfect wire: instant, loss-free, exactly-once.
    pub const fn ideal() -> Self {
        FaultProfile { drop: 0.0, duplicate: 0.0, delay_ms: 0, jitter_ms: 0 }
    }

    /// Uniform loss at probability `p`, otherwise instant exactly-once.
    pub fn lossy(p: f64) -> Self {
        FaultProfile { drop: p, ..FaultProfile::ideal() }
    }

    /// The chaos-ladder rung at loss `p`: drop `p`, duplicate `p / 2`,
    /// 20 ms base delay with 100 ms jitter (enough to reorder).
    pub fn chaos(p: f64) -> Self {
        FaultProfile { drop: p, duplicate: p / 2.0, delay_ms: 20, jitter_ms: 100 }
    }

    /// True when this profile never touches a message: the transport may
    /// skip the queue and deliver inline.
    pub fn is_ideal(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.delay_ms == 0 && self.jitter_ms == 0
    }

    /// Panics on probabilities outside `[0, 1]` or non-finite values.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop) && (0.0..=1.0).contains(&self.duplicate),
            "fault probabilities must lie in [0, 1]: {self:?}"
        );
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::ideal()
    }
}

/// Counters the transport keeps while deciding fates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Envelopes handed to the transport.
    pub sent: u64,
    /// Envelopes dropped outright (no copy delivered).
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
}

/// The fault gate: every envelope's fate is decided here.
#[derive(Debug, Clone)]
pub struct Transport {
    rng: SplitMix64,
    profile: FaultProfile,
    stats: TransportStats,
}

impl Transport {
    /// A transport with its own deterministic RNG stream.
    pub fn new(seed: u64, profile: FaultProfile) -> Self {
        profile.validate();
        // decorrelate from other consumers of the master seed
        Transport {
            rng: SplitMix64::new(seed ^ 0x7261_6e73_706f_7274),
            profile,
            stats: TransportStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Decide one envelope's fate: the returned vector holds one delivery
    /// delay (ms) per copy to deliver — empty means the envelope was lost.
    pub fn plan(&mut self) -> Vec<u64> {
        let p = self.profile;
        self.stats.sent += 1;
        if p.drop > 0.0 && self.rng.gen_bool(p.drop) {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let copies = if p.duplicate > 0.0 && self.rng.gen_bool(p.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        (0..copies)
            .map(|_| {
                let jitter = match p.jitter_ms {
                    0 => 0,
                    // `below(2^64)`: every `u64` is a draw
                    u64::MAX => self.rng.next_u64(),
                    j => self.rng.below(j + 1),
                };
                p.delay_ms.saturating_add(jitter)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_transport_delivers_exactly_once_instantly() {
        let mut t = Transport::new(1, FaultProfile::ideal());
        for _ in 0..200 {
            assert_eq!(t.plan(), vec![0]);
        }
        let s = t.stats();
        assert_eq!((s.sent, s.dropped, s.duplicated), (200, 0, 0));
    }

    #[test]
    fn loss_rate_converges_to_configured_probability() {
        let mut t = Transport::new(7, FaultProfile::lossy(0.3));
        let n = 20_000;
        let lost = (0..n).filter(|_| t.plan().is_empty()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn duplication_yields_two_copies() {
        let profile = FaultProfile { duplicate: 1.0, ..FaultProfile::ideal() };
        let mut t = Transport::new(3, profile);
        assert_eq!(t.plan().len(), 2);
        assert_eq!(t.stats().duplicated, 1);
    }

    #[test]
    fn delay_and_jitter_bound_delivery_times() {
        let profile = FaultProfile { delay_ms: 50, jitter_ms: 20, ..FaultProfile::ideal() };
        let mut t = Transport::new(9, profile);
        for _ in 0..500 {
            for d in t.plan() {
                assert!((50..=70).contains(&d), "delay {d} outside [50, 70]");
            }
        }
    }

    #[test]
    fn delay_and_jitter_saturate_at_the_end_of_time() {
        let profile =
            FaultProfile { delay_ms: u64::MAX, jitter_ms: u64::MAX, ..FaultProfile::ideal() };
        let mut t = Transport::new(9, profile);
        assert_eq!(t.plan(), vec![u64::MAX]);
    }

    #[test]
    fn same_seed_same_fates() {
        let profile = FaultProfile { drop: 0.2, duplicate: 0.1, delay_ms: 10, jitter_ms: 30 };
        let run = |seed: u64| {
            let mut t = Transport::new(seed, profile);
            (0..1000).map(|_| t.plan()).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds must diverge");
    }

    #[test]
    #[should_panic(expected = "fault probabilities")]
    fn invalid_probability_rejected() {
        Transport::new(0, FaultProfile::lossy(1.5));
    }
}
