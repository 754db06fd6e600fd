//! The correctness contracts, each stated once, for every suite that
//! kills, partitions, reshards, retries or corrupts the system to check
//! what survived against what its clients were told. Each check is
//! generic over the caller's key type and returns a [`Violation`] naming
//! the contract and the first offending key; [`Within::within`] adds the
//! caller's context (a seed, a node), and `?` turns a violation into a
//! property failure inside [`proptest!`](crate::proptest) bodies.

use crate::prop::CaseError;
use std::collections::HashSet;
use std::fmt::{self, Debug, Display};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// A broken contract: which one, the first key that breaks it, how,
/// and where the caller was looking.
pub struct Violation {
    contract: &'static str,
    key: String,
    what: String,
    context: String,
}

impl Violation {
    fn new(contract: &'static str, key: &impl Debug, what: impl Into<String>) -> Violation {
        let (key, what, context) = (format!("{key:?}"), what.into(), String::new());
        Violation { contract, key, what, context }
    }
}

impl Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated at {}: {}{}", self.contract, self.key, self.what, self.context)
    }
}

/// The `Display` text, so `unwrap()` and a `-> Result` test read well.
impl Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Display::fmt(self, f)
    }
}

impl From<Violation> for CaseError {
    fn from(v: Violation) -> CaseError {
        CaseError::fail(v.to_string())
    }
}

/// Attaches the caller's context to a check's outcome.
pub trait Within {
    /// Names where the check looked; formatted only on a violation.
    fn within(self, context: impl Display) -> Self;
}

impl<T> Within for Result<T, Violation> {
    fn within(self, context: impl Display) -> Self {
        self.map_err(|mut v| {
            v.context += &format!(" [{context}]");
            v
        })
    }
}

/// Every `acked` key is held exactly once, no key is held twice, and a
/// held key that was never acked is one of the `in_flight` attempts —
/// sent, but its reply lost to a kill or still on its way.
pub fn exactly_once<K: Eq + Hash + Debug>(
    acked: impl IntoIterator<Item = K>,
    held: impl IntoIterator<Item = K>,
    in_flight: impl IntoIterator<Item = K>,
) -> Result<(), Violation> {
    const CONTRACT: &str = "exactly-once";
    let held: Vec<K> = held.into_iter().collect();
    let mut copies = HashSet::with_capacity(held.len());
    if let Some(twice) = held.iter().find(|key| !copies.insert(*key)) {
        return Err(Violation::new(CONTRACT, twice, "held twice"));
    }
    let acked: Vec<K> = acked.into_iter().collect();
    if let Some(lost) = acked.iter().find(|key| !copies.contains(key)) {
        return Err(Violation::new(CONTRACT, lost, "acked but not held"));
    }
    let acked: HashSet<&K> = acked.iter().collect();
    let in_flight: HashSet<K> = in_flight.into_iter().collect();
    match held.iter().find(|key| !acked.contains(key) && !in_flight.contains(*key)) {
        Some(extra) => Err(Violation::new(CONTRACT, extra, "held but never acked or in flight")),
        None => Ok(()),
    }
}

/// Each client's `recovered` sequence horizon is at least its highest
/// acked sequence number, so a retransmit of anything acked is deduped.
pub fn horizons_cover<K: Debug>(
    acked_tops: impl IntoIterator<Item = (K, u64)>,
    mut recovered: impl FnMut(&K) -> u64,
) -> Result<(), Violation> {
    for (client, top) in acked_tops {
        let horizon = recovered(&client);
        if horizon < top {
            let what = format!("recovered horizon {horizon} is below acked seq {top}");
            return Err(Violation::new("horizons-cover", &client, what));
        }
    }
    Ok(())
}

/// `survived` is an exact prefix of the append order, `acked` then
/// `in_flight`: no gap, no reorder, nothing never appended, and nothing
/// acked missing.
pub fn committed_prefix<K: PartialEq + Debug>(
    acked: &[K],
    survived: &[K],
    in_flight: &[K],
) -> Result<(), Violation> {
    const CONTRACT: &str = "committed-prefix";
    for (i, key) in survived.iter().enumerate() {
        let what = match acked.iter().chain(in_flight).position(|k| k == key) {
            Some(j) if j == i => continue,
            Some(j) if j > i => format!("a gap: found at position {i}, appended at {j}"),
            Some(j) => format!("a reorder: found at position {i}, appended at {j}"),
            None => format!("found at position {i}, never appended"),
        };
        return Err(Violation::new(CONTRACT, key, what));
    }
    match acked.get(survived.len()) {
        Some(lost) => Err(Violation::new(CONTRACT, lost, "acked but did not survive")),
        None => Ok(()),
    }
}

/// The epochs in `seq`, in the order they were observed, never go down.
pub fn epochs_rise<E: PartialOrd + Debug>(
    seq: impl IntoIterator<Item = E>,
) -> Result<(), Violation> {
    let mut prev: Option<E> = None;
    for (i, epoch) in seq.into_iter().enumerate() {
        if let Some(p) = prev.as_ref().filter(|p| epoch < **p) {
            let what = format!("observation {i} fell below {p:?}");
            return Err(Violation::new("epochs-rise", &epoch, what));
        }
        prev = Some(epoch);
    }
    Ok(())
}

/// Every node's state equals `want`; the key of a violation is the
/// first node that differs.
pub fn same_on_every_node<N: Debug, S: PartialEq + Debug>(
    want: &S,
    nodes: impl IntoIterator<Item = (N, S)>,
) -> Result<(), Violation> {
    match nodes.into_iter().find(|(_, got)| got != want) {
        Some((node, got)) => {
            let what = format!("holds {got:?}, want {want:?}");
            Err(Violation::new("same-on-every-node", &node, what))
        }
        None => Ok(()),
    }
}

/// What a test's clients were acknowledged, in order, and what they
/// sent without a reply yet: the two sides [`exactly_once`] holds a
/// node's records against. Share it behind a mutex to check each ack
/// the moment it is read.
#[derive(Debug, Default)]
pub struct Ledger<K> {
    acked: Vec<K>,
    in_flight: Vec<K>,
}

impl<K: Eq + Hash + Debug> Ledger<K> {
    /// `key` is about to be sent: until it is acked, a copy may or may
    /// not exist anywhere.
    pub fn attempt(&mut self, key: K) {
        self.in_flight.push(key);
    }

    /// `key` was acknowledged.
    pub fn ack(&mut self, key: K) {
        self.in_flight.retain(|k| *k != key);
        self.acked.push(key);
    }

    /// Every acknowledged key, in ack order.
    pub fn acked(&self) -> &[K] {
        &self.acked
    }

    /// [`exactly_once`] of `held` against this ledger.
    pub fn check<'a>(&'a self, held: impl IntoIterator<Item = &'a K>) -> Result<(), Violation> {
        exactly_once(&self.acked, held, &self.in_flight)
    }
}

/// Polls `f` until it holds, panicking naming `what` once `timeout`
/// passes. The deadline only bounds a hang: wait for a state the system
/// must reach (`count >= n`, never `count == n`), then check the
/// contract on what it reached, so a clock never decides an outcome.
pub fn eventually(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !f() {
        assert!(Instant::now() < deadline, "timed out after {timeout:?} waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each outcome fails `contract` with exactly its text.
    fn fails<const N: usize>(contract: &str, cases: [(Result<(), Violation>, &str); N]) {
        for (outcome, want) in cases {
            let got = outcome.unwrap_err().to_string();
            assert_eq!(got, format!("{contract} violated at {want}"));
        }
    }

    #[test]
    fn exactly_once_names_each_way_to_break_it() {
        exactly_once([1, 2], [2, 1, 3], [3, 4]).unwrap();
        let cases = [
            (exactly_once([1, 2], [1, 2, 2], []), "2: held twice"),
            (exactly_once([1, 2], [1, 3], [3]), "2: acked but not held"),
            (exactly_once([1], [1, 5], [4]), "5: held but never acked or in flight"),
            // An in-flight attempt may land, but only once.
            (exactly_once([1], [1, 4, 4], [4]), "4: held twice"),
        ];
        fails("exactly-once", cases);
    }

    #[test]
    fn horizons_cover_names_the_client_behind() {
        let recovered = |c: &&str| if *c == "b" { 3 } else { 9 };
        horizons_cover([("a", 9), ("b", 3)], recovered).unwrap();
        let behind = horizons_cover([("a", 2), ("b", 4)], recovered);
        fails("horizons-cover", [(behind, r#""b": recovered horizon 3 is below acked seq 4"#)]);
    }

    #[test]
    fn committed_prefix_names_each_way_to_break_it() {
        let prefix = |survived: &[i32]| committed_prefix(&[10, 11], survived, &[12, 13]);
        prefix(&[10, 11]).unwrap();
        prefix(&[10, 11, 12, 13]).unwrap();
        let cases = [
            (prefix(&[10]), "11: acked but did not survive"),
            (prefix(&[10, 11, 13]), "13: a gap: found at position 2, appended at 3"),
            (prefix(&[10, 11, 12, 11]), "11: a reorder: found at position 3, appended at 1"),
            (prefix(&[10, 11, 99]), "99: found at position 2, never appended"),
        ];
        fails("committed-prefix", cases);
    }

    #[test]
    fn epochs_rise_allows_repeats_and_refuses_a_drop() {
        epochs_rise([0, 3, 3, 7]).unwrap();
        fails("epochs-rise", [(epochs_rise([1, 4, 2, 5]), "2: observation 2 fell below 4")]);
    }

    #[test]
    fn same_on_every_node_names_the_node_that_differs() {
        same_on_every_node(&"m", [("a", "m"), ("b", "m")]).unwrap();
        let differs = same_on_every_node(&"m", [("a", "m"), ("b", "x")]);
        fails("same-on-every-node", [(differs, r#""b": holds "x", want "m""#)]);
    }

    #[test]
    fn a_violation_names_contract_key_and_context_and_fails_a_property() {
        let v = exactly_once(["k1"], [], []).within("node b").within(format_args!("seed {}", 7));
        let want = r#"exactly-once violated at "k1": acked but not held [node b] [seed 7]"#;
        let v = v.unwrap_err();
        assert_eq!((v.to_string(), format!("{v:?}")), (want.to_string(), want.to_string()));
        assert!(matches!(CaseError::from(v), CaseError::Fail(msg) if msg == want));
    }

    #[test]
    fn the_ledger_moves_attempts_to_acks() {
        let mut ledger = Ledger::default();
        ledger.attempt("a");
        ledger.attempt("b");
        ledger.ack("a");
        assert_eq!(ledger.acked(), ["a"]);
        ledger.check(&["a", "b"]).unwrap();
        ledger.check(&["a"]).unwrap();
        fails("exactly-once", [(ledger.check(&["b"]), r#""a": acked but not held"#)]);
    }

    #[test]
    fn eventually_returns_once_true_and_names_a_hang() {
        let mut polls = 0;
        eventually("three polls", Duration::from_secs(5), || {
            polls += 1;
            polls == 3
        });
        let hang = std::panic::catch_unwind(|| {
            eventually("the impossible", Duration::from_millis(20), || false)
        });
        let msg = hang.unwrap_err().downcast::<String>().expect("a formatted panic");
        assert!(msg.contains("waiting for the impossible"), "{msg}");
    }
}
