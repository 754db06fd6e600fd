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

use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt;
use uucs_testcase::format::trim_line;
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

fn detoken(s: &str) -> String {
    if s == "-" {
        String::new()
    } else {
        s.to_string()
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
    fn cohort(&self) -> CohortKey {
        CohortKey {
            resource: self.resource,
            task: self.task.clone(),
            skill: if self.skill.is_empty() {
                SKILL_UNRATED.to_string()
            } else {
                self.skill.clone()
            },
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

    /// Parses [`ModelDelta::encode`] output. One call per model entry of
    /// a journal replay, so lines are trimmed only when they need it and
    /// the observations are sized from the header — bounded by what the
    /// text could hold, since the count is input.
    pub fn decode(text: &str) -> Result<ModelDelta, String> {
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
        let mut observations = Vec::with_capacity(n.min(text.len() / MIN_OBS_LINE));
        let mut closed = false;
        for line in lines {
            let line = trim_line(line);
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

    /// Reassembles a model from an epoch counter and cohort sketches —
    /// the inverse of [`ComfortModel::into_parts`]. Used by the server's
    /// shard-migration path, which repartitions cohorts by hash without
    /// replaying the original observations (the sketches are the state).
    pub fn from_parts(epoch: u64, cohorts: BTreeMap<CohortKey, QuantileSketch>) -> Self {
        ComfortModel { epoch, cohorts }
    }

    /// Decomposes the model into its epoch and cohort sketches.
    pub fn into_parts(self) -> (u64, BTreeMap<CohortKey, QuantileSketch>) {
        (self.epoch, self.cohorts)
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
        if delta.epoch != self.epoch + 1 {
            return Err(format!(
                "model delta epoch {} does not follow current epoch {}",
                delta.epoch, self.epoch
            ));
        }
        for o in &delta.observations {
            let sketch = self
                .cohorts
                .entry(o.cohort())
                .or_insert_with(|| QuantileSketch::for_resource(o.resource));
            if o.censored {
                sketch.insert_censored();
            } else {
                sketch.insert(o.level);
            }
        }
        self.epoch = delta.epoch;
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
    /// probability `epsilon`: the epsilon-quantile of the task's merged
    /// cohort CDF, falling back to the resource aggregate when the task
    /// cohort is empty (mirroring `comfort::ThrottleAdvisor`), and to
    /// the maximum explored level when censoring saturates the
    /// quantile. `None` when no level was ever observed for the
    /// resource.
    pub fn advice(&self, resource: Resource, task: &str, epsilon: f64) -> Option<f64> {
        let contextual = self.merged(resource, Some(task));
        if contextual.observed() > 0 {
            return contextual.advice_level(epsilon);
        }
        self.merged(resource, None).advice_level(epsilon)
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
            let task = detoken(toks.next().ok_or("COHORT missing task")?);
            let skill = detoken(toks.next().ok_or("COHORT missing skill")?);
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
