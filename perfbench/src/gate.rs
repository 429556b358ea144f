//! The correctness gate: a generator-side occupancy table over the
//! namespace plus the end-of-run conservation checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One bit per name. An acquire must flip its name's bit from clear to
/// set; a release must find it set and clear it. Shared by every
/// generator thread, so a name handed to two holders at once is caught
/// whichever threads hold it.
#[derive(Debug)]
pub struct Occupancy {
    words: Vec<AtomicU64>,
    size: usize,
    /// Largest name issued plus one; 0 before the first.
    max_plus_one: AtomicU64,
    violations: Mutex<Vec<String>>,
}

impl Occupancy {
    /// A clear table for names `0..size`.
    pub fn new(size: usize) -> Self {
        Self {
            words: (0..size.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            size,
            max_plus_one: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// The largest name issued so far, if any.
    pub fn max_issued(&self) -> Option<u64> {
        self.max_plus_one.load(Ordering::Relaxed).checked_sub(1)
    }

    fn violation(&self, message: String) {
        let mut list = self.violations.lock().expect("violation list lock");
        if list.len() < 16 {
            list.push(message);
        }
    }

    /// Marks `name` held; records a violation if it is out of the
    /// namespace or already held.
    pub fn acquired(&self, name: u64) {
        let Some((word, bit)) = self.locate(name) else {
            return self.violation(format!(
                "name {name} is outside the namespace of {}",
                self.size
            ));
        };
        if word.fetch_or(bit, Ordering::Relaxed) & bit != 0 {
            self.violation(format!("name {name} was issued while already held"));
        }
        self.max_plus_one.fetch_max(name + 1, Ordering::Relaxed);
    }

    /// Marks `name` free; records a violation if it was not held.
    pub fn released(&self, name: u64) {
        let Some((word, bit)) = self.locate(name) else {
            return self.violation(format!("released name {name} is outside the namespace"));
        };
        if word.fetch_and(!bit, Ordering::Relaxed) & bit == 0 {
            self.violation(format!("name {name} was released while not held"));
        }
    }

    fn locate(&self, name: u64) -> Option<(&AtomicU64, u64)> {
        let index = usize::try_from(name).ok().filter(|&i| i < self.size)?;
        Some((&self.words[index / 64], 1 << (index % 64)))
    }

    /// Names the table holds now.
    pub fn held(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Every violation recorded so far (the first 16).
    pub fn violations(&self) -> Vec<String> {
        self.violations.lock().expect("violation list lock").clone()
    }
}

/// Collects failed end-of-run checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// What failed.
    pub failures: Vec<String>,
    /// Oracle verdicts examined: one per service built with the oracle.
    pub verdicts: usize,
}

impl Checks {
    /// Records `message` unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Takes over the results of `other`.
    pub fn absorb(&mut self, other: Checks) {
        self.failures.extend(other.failures);
        self.verdicts += other.verdicts;
    }

    /// Adds the occupancy table's violations, and requires it to be
    /// empty at the end.
    pub fn occupancy(&mut self, table: &Occupancy) {
        self.failures.extend(table.violations());
        let held = table.held();
        self.expect(held == 0, || {
            format!("{held} names still marked held at the end")
        });
    }

    /// The service's own end-of-run checks: drained, and every worker
    /// created is pooled, retired or resident.
    pub fn service(&mut self, service: &renaming_service::NameService) {
        let held = service.held();
        self.expect(held == 0, || format!("service.held() is {held} at the end"));
        let created = service.worker_count() as u64;
        let accounted = service.pooled_workers() as u64
            + service.retired_workers()
            + service.resident_workers() as u64;
        self.expect(created == accounted, || {
            format!("workers not conserved: {created} created, {accounted} pooled+retired+resident")
        });
        if let Some(verdict) = service.oracle_verdict() {
            self.verdicts += 1;
            self.expect(verdict.is_clean() && verdict.drained(), || {
                format!("oracle verdict not clean and drained: {verdict:?}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_issue_and_stray_release_are_caught() {
        let table = Occupancy::new(100);
        table.acquired(5);
        table.acquired(5);
        table.released(7);
        table.acquired(100);
        assert_eq!(table.violations().len(), 3);
        let mut checks = Checks::default();
        checks.occupancy(&table);
        assert_eq!(checks.failures.len(), 4, "{:?}", checks.failures);
    }
}
