//! Dense vector clocks: the happens-before race detector's, and the
//! concurrency oracle's event stamps.
//!
//! One component per thread (or oracle participant), indexed by its
//! dense id. Components a clock has never seen are implicitly zero, so
//! clocks taken before a spawn compare correctly against clocks taken
//! after it.

/// A dense vector clock: component `i` counts thread `i`'s events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VClock {
    components: Vec<u64>,
}

impl VClock {
    /// The zero clock (happens-before everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Thread `tid`'s component; missing components read as zero.
    pub fn component(&self, tid: usize) -> u64 {
        self.components.get(tid).copied().unwrap_or(0)
    }

    /// Increments this clock's own component for thread `tid`.
    pub fn tick(&mut self, tid: usize) {
        if self.components.len() <= tid {
            self.components.resize(tid + 1, 0);
        }
        self.components[tid] += 1;
    }

    /// Joins `other` into `self` (componentwise max) — the acquire half
    /// of a synchronizes-with edge.
    pub fn join(&mut self, other: &VClock) {
        if self.components.len() < other.components.len() {
            self.components.resize(other.components.len(), 0);
        }
        for (mine, theirs) in self.components.iter_mut().zip(&other.components) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Whether every component of `self` is ≤ the matching component of
    /// `other` — i.e. the event stamped `self` happens-before (or is)
    /// the event stamped `other`.
    pub fn leq(&self, other: &VClock) -> bool {
        self.components
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.component(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock with exactly these components, trailing zeros included
    /// (ticking alone never leaves a trailing zero).
    fn clock(components: &[u64]) -> VClock {
        VClock {
            components: components.to_vec(),
        }
    }

    #[test]
    fn tick_join_and_compare() {
        let mut a = VClock::new();
        let mut b = VClock::new();
        a.tick(0);
        assert!(!a.leq(&b), "a advanced past the zero clock");
        assert!(b.leq(&a), "zero clock precedes everything");
        b.tick(1);
        assert!(!a.leq(&b) && !b.leq(&a), "concurrent clocks are unordered");
        b.join(&a);
        assert!(a.leq(&b), "join makes the edge visible");
        a.tick(0);
        assert!(!a.leq(&b), "a's next event is again unordered");
    }

    #[test]
    fn implicit_zero_components_compare_correctly() {
        let mut long = VClock::new();
        long.tick(5);
        let short = VClock::new();
        assert!(short.leq(&long));
        assert!(!long.leq(&short));
    }

    #[test]
    fn join_and_leq_treat_missing_components_as_zero() {
        let mut a = clock(&[1, 2]);
        a.join(&clock(&[0, 3, 4]));
        assert_eq!(a, clock(&[1, 3, 4]));
        assert!(clock(&[1, 2]).leq(&clock(&[1, 2, 0])));
        assert!(clock(&[1, 2, 0]).leq(&clock(&[1, 2])));
        assert!(!clock(&[1, 2, 1]).leq(&clock(&[1, 2])));
        assert!(!clock(&[2]).leq(&clock(&[1, 9])));
    }

    #[test]
    fn tick_grows_the_vector() {
        let mut c = VClock::new();
        c.tick(2);
        assert_eq!(c, clock(&[0, 0, 1]));
        c.tick(2);
        assert_eq!(c, clock(&[0, 0, 2]));
        assert_eq!([c.component(1), c.component(2), c.component(9)], [0, 2, 0]);
    }
}
