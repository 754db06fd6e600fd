//! Cohort-keyed comfort models with epoch-versioned updates.
//!
//! A [`ComfortModel`] holds one [`QuantileSketch`] per cohort
//! `(resource, task, skill-class)` — the paper's observation that
//! comfort varies by foreground context (§4.2) and self-rated skill
//! (§4.4) made concrete as the aggregation key. The model advances in
//! **epochs**: every accepted upload batch that contributes at least
//! one observation becomes one [`ModelDelta`] with epoch `e+1`, applied
//! strictly in order. Deltas are what the server journals
//! (`WalEntry::Model`), the full [`ComfortModel::encode`] text is what
//! compaction snapshots, and replaying snapshot-then-deltas
//! reconstructs the exact same epoch and byte-identical sketches — the
//! same recovery contract as the record stores.

use crate::sketch::{MergeError, QuantileSketch};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use uucs_testcase::format::{trim_line, words};
use uucs_testcase::Resource;

/// The cohort skill class used when a record carries none (legacy
/// records, or clients that do not know their user).
pub const SKILL_UNRATED: &str = "unrated";

/// Replaces whitespace so task/skill names stay single wire tokens, and
/// maps the empty string to the `-` placeholder the record format uses.
fn token(s: &str) -> String {
    if s.is_empty() {
        return "-".to_string();
    }
    s.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
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
    fn borrowed(&self) -> Obs<'_> {
        Obs {
            resource: self.resource,
            task: &self.task,
            skill: &self.skill,
            level: self.level,
            censored: self.censored,
        }
    }
}

/// An [`Observation`] borrowed from the text or the struct it is read
/// from.
#[derive(Clone, Copy)]
struct Obs<'a> {
    resource: Resource,
    task: &'a str,
    skill: &'a str,
    level: f64,
    censored: bool,
}

impl Obs<'_> {
    fn owned(self) -> Observation {
        Observation {
            resource: self.resource,
            task: self.task.to_string(),
            skill: self.skill.to_string(),
            level: self.level,
            censored: self.censored,
        }
    }

    /// Adds the sample to its cohort's sketch, keying a cohort only the
    /// first time it is seen.
    fn observe(self, cohorts: &mut BTreeMap<CohortKey, QuantileSketch>) {
        let skill = if self.skill.is_empty() {
            SKILL_UNRATED
        } else {
            self.skill
        };
        let insert = |sketch: &mut QuantileSketch| match self.censored {
            true => sketch.insert_censored(),
            false => sketch.insert(self.level),
        };
        match cohorts.get_mut(&(self.resource, self.task, skill) as &dyn CohortFields) {
            Some(sketch) => insert(sketch),
            None => {
                let mut sketch = QuantileSketch::for_resource(self.resource);
                insert(&mut sketch);
                let key = CohortKey {
                    resource: self.resource,
                    task: self.task.to_string(),
                    skill: skill.to_string(),
                };
                cohorts.insert(key, sketch);
            }
        }
    }
}

/// The shortest `OBS` line [`ModelDelta::encode`] can write, newline
/// included: no text holds more observations than its length allows.
const MIN_OBS_LINE: usize = "OBS cpu - - exhausted 0\n".len();

/// One epoch's worth of model updates — what the server journals per
/// accepted upload batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDelta {
    /// The epoch this delta advances the model *to* (`current + 1`).
    pub epoch: u64,
    /// The samples.
    pub observations: Vec<Observation>,
}

impl ModelDelta {
    /// Serializes the delta:
    ///
    /// ```text
    /// MODELDELTA <epoch> <n>
    /// OBS <resource> <task|-> <skill|-> <discomfort|exhausted> <level>
    /// ...
    /// END
    /// ```
    pub fn encode(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        writeln!(out, "MODELDELTA {} {}", self.epoch, self.observations.len()).unwrap();
        for o in &self.observations {
            writeln!(
                out,
                "OBS {} {} {} {} {}",
                o.resource,
                token(&o.task),
                token(&o.skill),
                if o.censored { "exhausted" } else { "discomfort" },
                if o.level.is_finite() { o.level } else { 0.0 },
            )
            .unwrap();
        }
        out.push_str("END\n");
        out
    }

    /// Parses [`ModelDelta::encode`] output: [`DeltaText`] collecting
    /// the observations, sized from the header — bounded by what the
    /// text could hold, since the count is input.
    pub fn decode(text: &str) -> Result<ModelDelta, String> {
        let delta = DeltaText::header(text)?;
        let epoch = delta.epoch;
        let mut observations = Vec::with_capacity(delta.count.min(text.len() / MIN_OBS_LINE));
        delta.each(|o| observations.push(o.owned()))?;
        Ok(ModelDelta {
            epoch,
            observations,
        })
    }
}

/// The text of a [`ModelDelta`], walked once: the grammar
/// [`ModelDelta::decode`] and [`ComfortModel::fold`] share, with every
/// error string decode has always given. Lines are split by
/// [`words`], and every field is borrowed from the text.
struct DeltaText<'a> {
    epoch: u64,
    /// The observation count the header promises.
    count: usize,
    lines: std::str::Lines<'a>,
}

impl<'a> DeltaText<'a> {
    /// Reads the `MODELDELTA <epoch> <n>` header line.
    fn header(text: &'a str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty model delta")?;
        let mut toks = words(header);
        if toks.next() != Some("MODELDELTA") {
            return Err(format!("bad model delta header {header:?}"));
        }
        let epoch: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model delta missing epoch")?;
        let count: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model delta missing count")?;
        Ok(DeltaText {
            epoch,
            count,
            lines,
        })
    }

    /// Hands `each` every `OBS` line's observation in order, through the
    /// `END` line, then holds the number read to the header's promise.
    fn each(self, mut each: impl FnMut(Obs<'a>)) -> Result<(), String> {
        let mut read = 0;
        let mut closed = false;
        for line in self.lines {
            let mut toks = words(line);
            match toks.next() {
                None => continue,
                Some("OBS") => {}
                Some(first) => {
                    if first == "END" && toks.next().is_none() {
                        closed = true;
                        break;
                    }
                    return Err(format!("bad model delta line {:?}", trim_line(line)));
                }
            }
            let resource: Resource = toks
                .next()
                .ok_or("OBS missing resource")?
                .parse()
                .map_err(|_| "bad OBS resource".to_string())?;
            let task = detoken(toks.next().ok_or("OBS missing task")?);
            let skill = detoken(toks.next().ok_or("OBS missing skill")?);
            let censored = match toks.next() {
                Some("discomfort") => false,
                Some("exhausted") => true,
                other => return Err(format!("bad OBS outcome {other:?}")),
            };
            let level: f64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("bad OBS level")?;
            if !level.is_finite() {
                return Err("non-finite OBS level".to_string());
            }
            if toks.next().is_some() {
                return Err(format!("trailing tokens on OBS line {:?}", trim_line(line)));
            }
            each(Obs {
                resource,
                task,
                skill,
                level,
                censored,
            });
            read += 1;
        }
        if !closed {
            return Err("model delta missing END".to_string());
        }
        if read != self.count {
            return Err(format!(
                "model delta promised {} observations, parsed {read}",
                self.count
            ));
        }
        Ok(())
    }
}

/// The advice rule, stated once for [`ComfortModel::advice`] and the
/// server: the `epsilon` borrowing level
/// ([`QuantileSketch::advice_level`]) of a task's merged cohorts
/// (`contextual`) when they hold an observation, else of the resource
/// aggregate, which is only merged then — mirroring
/// `comfort::ThrottleAdvisor`.
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
/// counter. See the module docs for the delta/snapshot contract.
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

    /// The current epoch: the number of deltas applied since empty.
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

    /// Stamps a batch of observations as the *next* epoch's delta. The
    /// caller journals the delta, then [`ComfortModel::apply`]s it.
    pub fn next_delta(&self, observations: Vec<Observation>) -> ModelDelta {
        ModelDelta {
            epoch: self.epoch + 1,
            observations,
        }
    }

    /// Applies one delta. Deltas must arrive strictly in epoch order —
    /// the WAL replays them in append order, so a gap or repeat means a
    /// corrupt journal, not a retransmit (upload dedup happens before a
    /// delta is ever minted).
    pub fn apply(&mut self, delta: &ModelDelta) -> Result<(), String> {
        self.check_follows(delta.epoch)?;
        for o in &delta.observations {
            o.borrowed().observe(&mut self.cohorts);
        }
        self.epoch = delta.epoch;
        Ok(())
    }

    /// [`ModelDelta::decode`] then [`ComfortModel::apply`] of a delta's
    /// text, in one pass and with nothing decoded: each observation goes
    /// from the text into its cohort's sketch. Errors are decode's, then
    /// apply's, word for word. An error can leave part of the delta
    /// folded in, so a caller that meets one drops the model — a replay
    /// refuses the journal.
    pub fn fold(&mut self, text: &str) -> Result<(), String> {
        let delta = DeltaText::header(text)?;
        let epoch = delta.epoch;
        let follows = self.check_follows(epoch);
        let cohorts = &mut self.cohorts;
        delta.each(|o| {
            if follows.is_ok() {
                o.observe(cohorts)
            }
        })?;
        follows?;
        self.epoch = epoch;
        Ok(())
    }

    fn check_follows(&self, epoch: u64) -> Result<(), String> {
        if epoch != self.epoch + 1 {
            return Err(format!(
                "model delta epoch {epoch} does not follow current epoch {}",
                self.epoch
            ));
        }
        Ok(())
    }

    /// The merged sketch for a query: all cohorts of `resource`,
    /// narrowed to one task when given, merged across skill classes.
    /// An empty sketch (in the resource's configuration) when nothing
    /// matches — "no data yet" is an answerable question.
    pub fn merged(&self, resource: Resource, task: Option<&str>) -> QuantileSketch {
        let mut out = QuantileSketch::for_resource(resource);
        for (key, sketch) in &self.cohorts {
            if key.resource != resource {
                continue;
            }
            if let Some(t) = task {
                if key.task != t {
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

    /// Serializes the full model — the compaction-snapshot format:
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

    /// `ModelDelta::decode` as it was before it stopped allocating what
    /// it only inspects, kept verbatim as the reference the new one is
    /// held equal to — `Ok` values and `Err` strings.
    fn reference_decode(text: &str) -> Result<ModelDelta, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty model delta")?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("MODELDELTA") {
            return Err(format!("bad model delta header {header:?}"));
        }
        let epoch: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model delta missing epoch")?;
        let n: usize = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("model delta missing count")?;
        let mut observations = Vec::new();
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
            if toks.next() != Some("OBS") {
                return Err(format!("bad model delta line {line:?}"));
            }
            let resource: Resource = toks
                .next()
                .ok_or("OBS missing resource")?
                .parse()
                .map_err(|_| "bad OBS resource".to_string())?;
            let task = detoken(toks.next().ok_or("OBS missing task")?).to_string();
            let skill = detoken(toks.next().ok_or("OBS missing skill")?).to_string();
            let censored = match toks.next() {
                Some("discomfort") => false,
                Some("exhausted") => true,
                other => return Err(format!("bad OBS outcome {other:?}")),
            };
            let level: f64 = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or("bad OBS level")?;
            if !level.is_finite() {
                return Err("non-finite OBS level".to_string());
            }
            if toks.next().is_some() {
                return Err(format!("trailing tokens on OBS line {line:?}"));
            }
            observations.push(Observation {
                resource,
                task,
                skill,
                level,
                censored,
            });
        }
        if !closed {
            return Err("model delta missing END".to_string());
        }
        if observations.len() != n {
            return Err(format!(
                "model delta promised {n} observations, parsed {}",
                observations.len()
            ));
        }
        Ok(ModelDelta {
            epoch,
            observations,
        })
    }

    #[test]
    fn deltas_advance_epochs_in_order() {
        let mut m = ComfortModel::new();
        assert_eq!(m.epoch(), 0);
        let d1 = m.next_delta(vec![obs(Resource::Cpu, "Word", "Typical", 3.0, false)]);
        m.apply(&d1).unwrap();
        assert_eq!(m.epoch(), 1);
        // Replaying the same delta is a corruption, not a retransmit.
        assert!(m.apply(&d1).is_err());
        let d3 = ModelDelta {
            epoch: 3,
            observations: vec![],
        };
        assert!(m.apply(&d3).is_err(), "epoch gaps rejected");
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn cohorts_key_on_resource_task_and_skill() {
        let mut m = ComfortModel::new();
        let d = m.next_delta(vec![
            obs(Resource::Cpu, "Word", "Typical", 3.0, false),
            obs(Resource::Cpu, "Word", "Power", 6.0, false),
            obs(Resource::Cpu, "Quake", "Typical", 1.0, false),
            obs(Resource::Disk, "Word", "Typical", 2.0, false),
            obs(Resource::Cpu, "Word", "", 4.0, true),
        ]);
        m.apply(&d).unwrap();
        assert_eq!(m.cohort_count(), 5, "unrated skill is its own cohort");
        let word = m.merged(Resource::Cpu, Some("Word"));
        assert_eq!(word.observed(), 2);
        assert_eq!(word.censored(), 1);
        let all_cpu = m.merged(Resource::Cpu, None);
        assert_eq!(all_cpu.total(), 4);
        assert_eq!(m.merged(Resource::Memory, None).total(), 0);
    }

    #[test]
    fn advice_prefers_task_cohort_and_falls_back() {
        let mut m = ComfortModel::new();
        let d = m.next_delta(vec![
            obs(Resource::Cpu, "Word", "Typical", 5.0, false),
            obs(Resource::Cpu, "Quake", "Typical", 1.0, false),
        ]);
        m.apply(&d).unwrap();
        // The Quake cohort answers for Quake; an unknown task falls back
        // to the resource aggregate (whose rank-1 quantile is Quake's 1.0).
        let quake = m.advice(Resource::Cpu, "Quake", 0.05).unwrap();
        assert!(quake < 2.0, "{quake}");
        let unknown = m.advice(Resource::Cpu, "Photoshop", 0.05).unwrap();
        assert!(unknown < 2.0, "{unknown}");
        assert_eq!(m.advice(Resource::Memory, "Word", 0.05), None);
    }

    #[test]
    fn delta_and_model_roundtrip() {
        let mut m = ComfortModel::new();
        for i in 0..3u64 {
            let d = m.next_delta(vec![
                obs(Resource::Cpu, "Word", "Typical", 1.0 + i as f64, false),
                obs(Resource::Memory, "", "", 0.5, i % 2 == 0),
            ]);
            let text = d.encode();
            assert_eq!(ModelDelta::decode(&text).unwrap(), d);
            m.apply(&d).unwrap();
        }
        let text = m.encode();
        let back = ComfortModel::decode(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.encode(), text, "snapshot encoding is canonical");
        assert_eq!(back.epoch(), 3);
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            "",
            "NOPE 1 0\nEND\n",
            "MODELDELTA 1\nEND\n",
            "MODELDELTA 1 2\nOBS cpu Word Typical discomfort 1\nEND\n", // count mismatch
            "MODELDELTA 1 1\nOBS cpu Word Typical maybe 1\nEND\n",
            "MODELDELTA 1 1\nOBS gpu Word Typical discomfort 1\nEND\n",
            "MODELDELTA 1 1\nOBS cpu Word Typical discomfort 1 extra\nEND\n",
            "MODELDELTA 1 1\nOBS cpu Word Typical discomfort nan\nEND\n",
            "MODELDELTA 1 1\nOBS cpu Word Typical discomfort 1\n", // no END
        ] {
            assert!(ModelDelta::decode(bad).is_err(), "{bad:?} decoded");
        }
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

    /// The delta inputs of `decode_rejects_garbage` above and of
    /// `walenc`'s test of the same name.
    const REJECTED_DELTAS: [&str; 12] = [
        "",
        "NOPE 1 0\nEND\n",
        "MODELDELTA 1\nEND\n",
        "MODELDELTA 1 2\nOBS cpu Word Typical discomfort 1\nEND\n",
        "MODELDELTA 1 1\nOBS cpu Word Typical maybe 1\nEND\n",
        "MODELDELTA 1 1\nOBS gpu Word Typical discomfort 1\nEND\n",
        "MODELDELTA 1 1\nOBS cpu Word Typical discomfort 1 extra\nEND\n",
        "MODELDELTA 1 1\nOBS cpu Word Typical discomfort nan\nEND\n",
        "MODELDELTA 1 1\nOBS cpu Word Typical discomfort 1\n",
        "not a delta",
        "MODELDELTA 1 2\nEND\n",
        "MODELDELTA 1 0\n",
    ];

    /// Lines a damaged delta could hold: every field of an `OBS` line
    /// missing, malformed or surplus, a second header, blanks.
    const STRAY: [&str; 14] = [
        "",
        "END",
        "OBS",
        "OBS cpu",
        "OBS cpu Word",
        "OBS cpu Word Typical",
        "OBS cpu Word Typical discomfort",
        "OBS MEM - - exhausted 0.5",
        "OBS gpu Word Typical discomfort 1",
        "OBS cpu Word Typical discomfort inf",
        "OBS cpu Word Typical discomfort 1 extra",
        "OBSERVE cpu Word Typical discomfort 1",
        "MODELDELTA 2 0",
        "MODELDELTA 18446744073709551616 1",
    ];

    /// Compared through `Debug` so that a NaN a bit flip might spell
    /// still equals itself.
    fn assert_decodes_like_the_reference(text: &str, context: &str) {
        let new = format!("{:?}", ModelDelta::decode(text));
        let old = format!("{:?}", reference_decode(text));
        assert_eq!(new, old, "{context}: {text:?}");
    }

    #[test]
    fn decode_equals_the_reference_on_every_rejected_input() {
        for text in REJECTED_DELTAS.iter().chain(&STRAY) {
            assert_decodes_like_the_reference(text, "fixed input");
        }
    }

    /// Generated deltas, then up to four stacked mutations of the kind
    /// the wire-fuzz suite makes: the lean decoder and the reference
    /// agree on the `Ok` value or on the `Err` string every time.
    #[test]
    fn decode_equals_the_reference_on_generated_and_damaged_deltas() {
        use uucs_stats::Pcg64;
        for seed in 0..600u64 {
            let mut rng = Pcg64::new(seed);
            let names = ["", "-", "Word", "My Task", "caf\u{e9}", "x"];
            let resources = [Resource::Cpu, Resource::Memory, Resource::Disk, Resource::Network];
            let mut observations = Vec::new();
            for _ in 0..rng.below(6) {
                let (resource, task, skill) = (
                    *rng.choose(&resources),
                    *rng.choose::<&str>(&names),
                    *rng.choose::<&str>(&names),
                );
                let level = if rng.bernoulli(0.3) {
                    rng.below(11) as f64
                } else {
                    rng.uniform(-1.0, 1e6)
                };
                observations.push(obs(resource, task, skill, level, rng.bernoulli(0.5)));
            }
            let delta = ModelDelta {
                epoch: rng.below(1 << 50),
                observations,
            };
            let mut text = delta.encode();
            assert_decodes_like_the_reference(&text, &format!("seed {seed}, undamaged"));
            for round in 0..4 {
                text = uucs_harness::textfuzz::mutate_lines(&mut rng, &text, &STRAY);
                assert_decodes_like_the_reference(&text, &format!("seed {seed}, round {round}"));
            }
        }
    }

    /// `fold` of a delta's text is `decode` then `apply`: the same
    /// model (and snapshot bytes) when both succeed, the same error
    /// string when either refuses.
    fn assert_folds_like_decode_and_apply(base: &ComfortModel, text: &str, context: &str) {
        let mut folded = base.clone();
        let mine = folded.fold(text);
        let mut applied = base.clone();
        let theirs = ModelDelta::decode(text).and_then(|d| applied.apply(&d));
        assert_eq!(mine, theirs, "{context}: {text:?}");
        if theirs.is_ok() {
            assert_eq!(folded, applied, "{context}");
            assert_eq!(folded.encode(), applied.encode(), "{context}");
        }
    }

    #[test]
    fn fold_equals_decode_and_apply_on_generated_and_damaged_deltas() {
        use uucs_stats::Pcg64;
        let names = ["", "-", "Word", "My Task", "caf\u{e9}", "unrated"];
        let resources = [Resource::Cpu, Resource::Memory, Resource::Disk, Resource::Network];
        let mut base = ComfortModel::new();
        for seed in 0..600u64 {
            let mut rng = Pcg64::new(seed);
            let mut observations = Vec::new();
            for _ in 0..rng.below(5) {
                let level = rng.below(11) as f64 * 0.5;
                observations.push(obs(
                    *rng.choose(&resources),
                    rng.choose::<&str>(&names),
                    rng.choose::<&str>(&names),
                    level,
                    rng.bernoulli(0.3),
                ));
            }
            let mut delta = base.next_delta(observations);
            if rng.bernoulli(0.2) {
                delta.epoch = rng.below(base.epoch() + 3);
            }
            let mut text = delta.encode();
            assert_folds_like_decode_and_apply(&base, &text, &format!("seed {seed}, undamaged"));
            for round in 0..3 {
                text = uucs_harness::textfuzz::mutate_lines(&mut rng, &text, &STRAY);
                assert_folds_like_decode_and_apply(&base, &text, &format!("seed {seed}, round {round}"));
            }
            // Grow the base so later seeds fold into cohorts it holds.
            if delta.epoch == base.epoch() + 1 {
                base.apply(&delta).unwrap();
            }
        }
        assert!(base.epoch() > 400 && base.cohort_count() > 20, "{}", base.epoch());
        for text in REJECTED_DELTAS.iter().chain(&STRAY) {
            assert_folds_like_decode_and_apply(&base, text, "fixed input");
        }
    }

    #[test]
    fn whitespace_in_names_is_sanitized() {
        let m = ComfortModel::new();
        let d = m.next_delta(vec![obs(Resource::Cpu, "My Task", "Power User", 2.0, false)]);
        let text = d.encode();
        let back = ModelDelta::decode(&text).unwrap();
        assert_eq!(back.observations[0].task, "My_Task");
        assert_eq!(back.observations[0].skill, "Power_User");
    }
}
