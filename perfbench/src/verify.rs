//! Answer checks shared by the workloads.

use std::collections::HashMap;

use pibench::keys::{unmix, KeySpace};

/// The first wrong answer a run saw.
#[derive(Debug, Clone)]
pub struct Violation {
    pub key: u64,
    pub what: String,
}

impl Violation {
    pub fn new(key: u64, what: impl Into<String>) -> Violation {
        Violation {
            key,
            what: what.into(),
        }
    }
}

/// Keep the first violation only.
pub fn note(first: &mut Option<Violation>, v: Violation) {
    if first.is_none() {
        *first = Some(v);
    }
}

/// Acceptable final values per updated key: the last value each writer
/// stored. Concurrent writers race, so any one of them may be last.
#[derive(Default)]
pub struct Finals {
    last: HashMap<u64, Vec<u64>>,
}

impl Finals {
    /// Fold in one writer's log of `(key, value)` updates, in the
    /// writer's own order.
    pub fn add_writer(&mut self, log: &[(u64, u64)]) {
        let mut mine: HashMap<u64, u64> = HashMap::new();
        for &(k, v) in log {
            mine.insert(k, v);
        }
        for (k, v) in mine {
            self.last.entry(k).or_default().push(v);
        }
    }

    fn accepts(&self, ks: &KeySpace, k: u64, v: u64) -> bool {
        match self.last.get(&k) {
            Some(vs) => vs.contains(&v),
            None => v == ks.value_for(k),
        }
    }
}

/// Check a full scan against the key space: exactly the keys with
/// logical index below `frontier` (prefill plus every claimed insert),
/// ascending, each holding `value_for(k)` unless `finals` says
/// otherwise. Keys in `unsure` (writes never answered) may hold either.
pub fn check_state(
    ks: &KeySpace,
    frontier: u64,
    finals: &Finals,
    unsure: &HashMap<u64, u64>,
    scan: &[(u64, u64)],
) -> Option<Violation> {
    let mut prev: Option<u64> = None;
    let mut present = 0u64;
    for &(k, v) in scan {
        if prev.is_some_and(|p| p >= k) {
            return Some(Violation::new(k, "full scan not strictly ascending"));
        }
        prev = Some(k);
        if unmix(k) >= frontier {
            if unsure.contains_key(&k) {
                continue;
            }
            return Some(Violation::new(k, "full scan holds a key never written"));
        }
        present += 1;
        if !finals.accepts(ks, k, v) && unsure.get(&k) != Some(&v) {
            return Some(Violation::new(k, format!("full scan holds value {v:#x}")));
        }
    }
    if present == frontier {
        return None;
    }
    let have: std::collections::HashSet<u64> = scan.iter().map(|p| p.0).collect();
    (0..frontier)
        .map(|i| ks.key(i))
        .find(|k| !have.contains(k) && !unsure.contains_key(k))
        .map(|lost| Violation::new(lost, format!("full scan has {present} of {frontier} keys")))
}

/// Compare the state after a restart with the state before it.
pub fn check_restart(before: &[(u64, u64)], after: &[(u64, u64)]) -> Option<Violation> {
    for (i, (b, a)) in before.iter().zip(after).enumerate() {
        if a != b {
            return Some(Violation::new(
                b.0.min(a.0),
                format!("record {i} is {a:?} after restart, {b:?} before"),
            ));
        }
    }
    if before.len() != after.len() {
        let i = before.len().min(after.len());
        let key = before.get(i).or(after.get(i)).map_or(0, |p| p.0);
        return Some(Violation::new(
            key,
            format!(
                "{} records after restart, {} before",
                after.len(),
                before.len()
            ),
        ));
    }
    None
}
