//! Cohort-keyed comfort models with an epoch counter.
//!
//! A [`ComfortModel`] holds one [`QuantileSketch`] per cohort
//! `(resource, task, skill-class)` — the paper's observation that
//! comfort varies by foreground context (§4.2) and self-rated skill
//! (§4.4) made concrete as the aggregation key. The model is an
//! analysis of uploaded records, as the paper's CDFs are: the server
//! folds each results-journal entry's observations in with
//! [`ComfortModel::observe`], and the **epoch** counts the entries that
//! carried one. Sketch merges are exact, so a model folded from the
//! same records reads the same however they were grouped. The full
//! [`ComfortModel::encode`] text is what the server caches, so a
//! restart folds only the records past the cache.

use crate::sketch::{MergeError, QuantileSketch};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use uucs_testcase::Resource;

/// The cohort skill class used when a record carries none (legacy
/// records, or clients that do not know their user).
pub const SKILL_UNRATED: &str = "unrated";

/// Replaces whitespace so task/skill names stay single wire tokens, and
/// maps the empty string to the `-` placeholder the record format uses.
fn token(s: &str) -> Cow<'_, str> {
    if s.is_empty() {
        return Cow::Borrowed("-");
    }
    key_form(s)
}

/// A task or skill name as a cohort key holds it: whitespace written as
/// `_`, the form [`token`] encodes, so a model and its decoded cache file
/// a sample under the same key.
fn key_form(s: &str) -> Cow<'_, str> {
    if !s.contains(char::is_whitespace) {
        return Cow::Borrowed(s);
    }
    Cow::Owned(
        s.chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect(),
    )
}

fn detoken(s: &str) -> &str {
    if s == "-" {
        ""
    } else {
        s
    }
}

/// The aggregation key: which population's discomfort CDF a sample
/// belongs to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CohortKey {
    /// The borrowed resource.
    pub resource: Resource,
    /// Foreground task name (empty = unknown context).
    pub task: String,
    /// Self-rated skill class in the task's dimension (empty = unrated).
    pub skill: String,
}

/// A cohort key's fields, from a [`CohortKey`] or borrowed from text:
/// the form a cohort is looked up by, so finding one builds no key.
trait CohortFields {
    fn fields(&self) -> (Resource, &str, &str);
}

impl CohortFields for CohortKey {
    fn fields(&self) -> (Resource, &str, &str) {
        (self.resource, &self.task, &self.skill)
    }
}

impl CohortFields for (Resource, &str, &str) {
    fn fields(&self) -> (Resource, &str, &str) {
        *self
    }
}

/// Ordered as the derived `Ord` of [`CohortKey`] orders its fields.
impl<'a> Borrow<dyn CohortFields + 'a> for CohortKey {
    fn borrow(&self) -> &(dyn CohortFields + 'a) {
        self
    }
}

impl PartialEq for dyn CohortFields + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for dyn CohortFields + '_ {}

impl PartialOrd for dyn CohortFields + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn CohortFields + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fields().cmp(&other.fields())
    }
}

/// One sample destined for a cohort sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The borrowed resource.
    pub resource: Resource,
    /// Foreground task name (empty = unknown context).
    pub task: String,
    /// Self-rated skill class (empty = unrated).
    pub skill: String,
    /// The contention level in force at the feedback point.
    pub level: f64,
    /// True when the run exhausted without feedback: the user's real
    /// threshold lies *above* `level`, so only the total rises.
    pub censored: bool,
}

impl Observation {
    /// Adds the sample to its cohort's sketch, keying a cohort (by
    /// [`key_form`]) only the first time it is seen.
    fn observe(&self, cohorts: &mut BTreeMap<CohortKey, QuantileSketch>) {
        let task = key_form(&self.task);
        let skill = if self.skill.is_empty() {
            Cow::Borrowed(SKILL_UNRATED)
        } else {
            key_form(&self.skill)
        };
        let (task, skill) = (task.as_ref(), skill.as_ref());
        let insert = |sketch: &mut QuantileSketch| match self.censored {
            true => sketch.insert_censored(),
            false => sketch.insert(self.level),
        };
        match cohorts.get_mut(&(self.resource, task, skill) as &dyn CohortFields) {
            Some(sketch) => insert(sketch),
            None => {
                let mut sketch = QuantileSketch::for_resource(self.resource);
                insert(&mut sketch);
                let key = CohortKey {
                    resource: self.resource,
                    task: task.to_string(),
                    skill: skill.to_string(),
                };
                cohorts.insert(key, sketch);
            }
        }
    }
}

/// The advice rule, stated once for [`ComfortModel::advice`] and the
/// server: the `epsilon` borrowing level
/// ([`QuantileSketch::advice_level`]) of a task's merged cohorts
/// (`contextual`) when they hold an observation, else of the resource
/// aggregate, which is only merged then. `comfort::ThrottleAdvisor`
/// falls back from context to aggregate the same way, and both return
/// the tipping level, which discomforts more than `epsilon` of users
/// unless `epsilon` times the sample count is an integer (see
/// [`QuantileSketch::advice_level`]; ROADMAP item 19).
pub fn advice_from<S: Borrow<QuantileSketch>>(
    contextual: S,
    aggregate: impl FnOnce() -> S,
    epsilon: f64,
) -> Option<f64> {
    let basis = if contextual.borrow().observed() > 0 {
        contextual
    } else {
        aggregate()
    };
    basis.borrow().advice_level(epsilon)
}

/// The server-side comfort model: cohort sketches plus the epoch
/// counter. See the module docs for how the server keeps it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComfortModel {
    epoch: u64,
    cohorts: BTreeMap<CohortKey, QuantileSketch>,
}

impl ComfortModel {
    /// An empty model at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch: the number of observation-carrying entries
    /// folded since empty (or the epoch [`ComfortModel::set_epoch`] set).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of cohorts holding at least one sample.
    pub fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    /// Iterates cohorts in key order (deterministic).
    pub fn cohorts(&self) -> impl Iterator<Item = (&CohortKey, &QuantileSketch)> {
        self.cohorts.iter()
    }

    /// Merges `other` into this model without replaying observations
    /// (the sketches are the state): cohort sketches merge exactly and
    /// the epochs add, so models merged from parts read the same however
    /// the cohorts were spread over them. On an error nothing changed.
    pub fn merge(&mut self, other: &ComfortModel) -> Result<(), MergeError> {
        let mut cohorts = self.cohorts.clone();
        for (key, sketch) in &other.cohorts {
            match cohorts.get_mut(key) {
                Some(held) => held.merge(sketch)?,
                None => {
                    cohorts.insert(key.clone(), sketch.clone());
                }
            }
        }
        self.cohorts = cohorts;
        self.epoch += other.epoch;
        Ok(())
    }

    /// Folds one results-journal entry's observations into their cohort
    /// sketches as the next epoch. An entry with no observation mints
    /// no epoch: clients read an epoch advance as "new data".
    pub fn observe(&mut self, observations: &[Observation]) {
        if observations.is_empty() {
            return;
        }
        for o in observations {
            o.observe(&mut self.cohorts);
        }
        self.epoch += 1;
    }

    /// Sets the epoch and keeps the sketches: how a reshard carries the
    /// epoch a model had reached onto the shards its records moved to.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The merged sketch for a query: all cohorts of `resource`,
    /// narrowed to one task (named as its cohorts are keyed, see
    /// [`key_form`]) when given, merged across skill classes. An empty
    /// sketch (in the resource's configuration) when nothing matches —
    /// "no data yet" is an answerable question.
    pub fn merged(&self, resource: Resource, task: Option<&str>) -> QuantileSketch {
        let task = task.map(key_form);
        let mut out = QuantileSketch::for_resource(resource);
        for (key, sketch) in &self.cohorts {
            if key.resource != resource {
                continue;
            }
            if let Some(t) = &task {
                if key.task != *t {
                    continue;
                }
            }
            // Same resource ⇒ same configuration (for_resource), so the
            // merge cannot fail; a mismatch would mean memory corruption.
            out.merge(sketch).expect("cohorts of one resource share a config");
        }
        out
    }

    /// The recommended borrowing level for a target discomfort
    /// probability `epsilon` ([`advice_from`] over this model's merged
    /// sketches). `None` when no level was ever observed for the
    /// resource.
    pub fn advice(&self, resource: Resource, task: &str, epsilon: f64) -> Option<f64> {
        advice_from(
            self.merged(resource, Some(task)),
            || self.merged(resource, None),
            epsilon,
        )
    }

    /// Serializes the full model — the body of the server's model cache:
    ///
    /// ```text
    /// COMFORTMODEL <epoch> <ncohorts>
    /// COHORT <resource> <task|-> <skill|-> <sketch-line>
    /// ...
    /// END
    /// ```
    pub fn encode(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        writeln!(out, "COMFORTMODEL {} {}", self.epoch, self.cohorts.len()).unwrap();
        for (key, sketch) in &self.cohorts {
            writeln!(
                out,
                "COHORT {} {} {} {}",
                key.resource,
                token(&key.task),
                token(&key.skill),
                sketch.encode()
            )
            .unwrap();
        }
        out.push_str("END\n");
        out
    }

    /// Parses [`ComfortModel::encode`] output.
    pub fn decode(text: &str) -> Result<ComfortModel, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty model snapshot")?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("COMFORTMODEL") {
            return Err(format!("bad model snapshot header {header:?}"));
        }
        let epoch: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model snapshot missing epoch")?;
        let n: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model snapshot missing cohort count")?;
        let mut cohorts = BTreeMap::new();
        let mut closed = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == "END" {
                closed = true;
                break;
            }
            let mut toks = line.split_whitespace();
            if toks.next() != Some("COHORT") {
                return Err(format!("bad model snapshot line {line:?}"));
            }
            let resource: Resource = toks
                .next()
                .ok_or("COHORT missing resource")?
                .parse()
                .map_err(|_| "bad COHORT resource".to_string())?;
            let task = detoken(toks.next().ok_or("COHORT missing task")?).to_string();
            let skill = detoken(toks.next().ok_or("COHORT missing skill")?).to_string();
            let sketch = QuantileSketch::decode(toks.next().ok_or("COHORT missing sketch")?)?;
            if toks.next().is_some() {
                return Err(format!("trailing tokens on COHORT line {line:?}"));
            }
            let key = CohortKey {
                resource,
                task,
                skill,
            };
            if cohorts.insert(key.clone(), sketch).is_some() {
                return Err(format!("duplicate cohort {key:?} in model snapshot"));
            }
        }
        if !closed {
            return Err("model snapshot missing END".to_string());
        }
        if cohorts.len() != n {
            return Err(format!(
                "model snapshot promised {n} cohorts, parsed {}",
                cohorts.len()
            ));
        }
        Ok(ComfortModel { epoch, cohorts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(resource: Resource, task: &str, skill: &str, level: f64, censored: bool) -> Observation {
        Observation {
            resource,
            task: task.into(),
            skill: skill.into(),
            level,
            censored,
        }
    }

    #[test]
    fn an_entry_with_observations_is_one_epoch() {
        let mut m = ComfortModel::new();
        assert_eq!(m.epoch(), 0);
        m.observe(&[obs(Resource::Cpu, "Word", "Typical", 3.0, false)]);
        assert_eq!(m.epoch(), 1);
        m.observe(&[]);
        assert_eq!(m.epoch(), 1, "an entry with no observation mints no epoch");
        m.observe(&[
            obs(Resource::Cpu, "Word", "Typical", 1.0, false),
            obs(Resource::Disk, "Word", "Typical", 2.0, true),
        ]);
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.merged(Resource::Cpu, None).observed(), 2);
    }

    /// The sketches do not depend on how observations were grouped into
    /// entries or in what order they came: only the epoch does.
    #[test]
    fn the_sketches_are_the_fold_of_the_observations_however_grouped() {
        let all: Vec<Observation> = (0..40)
            .map(|i| {
                let task = ["Word", "Quake", "two words"][i % 3];
                obs(Resource::STUDIED[i % 3], task, ["", "Power"][i % 2], (i % 11) as f64 * 0.5, i % 7 == 0)
            })
            .collect();
        let mut whole = ComfortModel::new();
        whole.observe(&all);
        let mut singly = ComfortModel::new();
        for o in all.iter().rev() {
            singly.observe(std::slice::from_ref(o));
        }
        assert_eq!((whole.epoch(), singly.epoch()), (1, 40));
        singly.set_epoch(1);
        assert_eq!(singly.encode(), whole.encode());
    }

    #[test]
    fn cohorts_key_on_resource_task_and_skill() {
        let mut m = ComfortModel::new();
        m.observe(&[
            obs(Resource::Cpu, "Word", "Typical", 3.0, false),
            obs(Resource::Cpu, "Word", "Power", 6.0, false),
            obs(Resource::Cpu, "Quake", "Typical", 1.0, false),
            obs(Resource::Disk, "Word", "Typical", 2.0, false),
            obs(Resource::Cpu, "Word", "", 4.0, true),
        ]);
        assert_eq!(m.cohort_count(), 5, "unrated skill is its own cohort");
        let word = m.merged(Resource::Cpu, Some("Word"));
        assert_eq!(word.observed(), 2);
        assert_eq!(word.censored(), 1);
        let all_cpu = m.merged(Resource::Cpu, None);
        assert_eq!(all_cpu.total(), 4);
        assert_eq!(m.merged(Resource::Memory, None).total(), 0);
    }

    /// A task or skill with inner whitespace is keyed as one token (`_`
    /// for each space), so the model a cache decodes to reads like the
    /// one that was encoded — whichever spelling a query uses.
    #[test]
    fn a_spaced_task_reads_the_same_live_and_decoded() {
        let mut m = ComfortModel::new();
        m.observe(&[
            obs(Resource::Cpu, "two words", "very\tgood", 3.0, false),
            obs(Resource::Cpu, "two_words", "very_good", 4.0, false),
            obs(Resource::Cpu, "two words", "", 5.0, true),
            obs(Resource::Disk, "Word", "Typical", 2.0, false),
        ]);
        let decoded = ComfortModel::decode(&m.encode()).unwrap();
        assert_eq!(decoded.epoch(), m.epoch());
        assert_eq!(decoded.encode(), m.encode());
        for task in [None, Some("two words"), Some("two_words"), Some("Word")] {
            for resource in [Resource::Cpu, Resource::Disk] {
                let (got, want) = (decoded.merged(resource, task), m.merged(resource, task));
                assert_eq!(got, want, "{task:?}");
            }
        }
        assert_eq!(m.cohort_count(), 3, "one cohort per spelling's token form");
        let spaced = m.merged(Resource::Cpu, Some("two words"));
        assert_eq!((spaced.observed(), spaced.censored()), (2, 1));
    }

    #[test]
    fn advice_prefers_task_cohort_and_falls_back() {
        let mut m = ComfortModel::new();
        m.observe(&[
            obs(Resource::Cpu, "Word", "Typical", 5.0, false),
            obs(Resource::Cpu, "Quake", "Typical", 1.0, false),
        ]);
        // The Quake cohort answers for Quake; an unknown task falls back
        // to the resource aggregate (whose rank-1 quantile is Quake's 1.0).
        let quake = m.advice(Resource::Cpu, "Quake", 0.05).unwrap();
        assert!(quake < 2.0, "{quake}");
        let unknown = m.advice(Resource::Cpu, "Photoshop", 0.05).unwrap();
        assert!(unknown < 2.0, "{unknown}");
        assert_eq!(m.advice(Resource::Memory, "Word", 0.05), None);
    }

    #[test]
    fn model_roundtrip() {
        let mut m = ComfortModel::new();
        for i in 0..3u64 {
            m.observe(&[
                obs(Resource::Cpu, "Word", "Typical", 1.0 + i as f64, false),
                obs(Resource::Memory, "", "", 0.5, i % 2 == 0),
            ]);
        }
        let text = m.encode();
        let back = ComfortModel::decode(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.encode(), text, "the encoding is canonical");
        assert_eq!(back.epoch(), 3);
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            "",
            "NOPE 0 0\nEND\n",
            "COMFORTMODEL 0 1\nEND\n", // cohort count mismatch
            "COMFORTMODEL 0 1\nCOHORT cpu Word Typical garbage\nEND\n",
            "COMFORTMODEL 0 1\nCOHORT cpu Word Typical q1;0;10;4;0;0;0;\n", // no END
        ] {
            assert!(ComfortModel::decode(bad).is_err(), "{bad:?} decoded");
        }
        // Duplicate cohorts are corruption.
        let line = crate::sketch::QuantileSketch::for_resource(Resource::Cpu).encode();
        let dup = format!(
            "COMFORTMODEL 0 2\nCOHORT cpu Word Typical {line}\nCOHORT cpu Word Typical {line}\nEND\n"
        );
        assert!(ComfortModel::decode(&dup).is_err());
    }
}
