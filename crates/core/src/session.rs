//! The per-request half of the Lobster API: [`Session`], [`FactSet`], and
//! [`RunResult`].
//!
//! A [`Session`] is cheap to open ([`Program::session`]) and owns everything
//! that varies between requests: the registered input facts and the
//! [`InputFactRegistry`] that issues their ids. Dropping the session drops
//! that state; the shared [`Program`] is untouched. Batched runs fork the
//! session registry, so even `run_batch` leaves no trace behind — fixing the
//! seed design where every batch leaked fresh fact ids into a shared,
//! ever-growing registry.

use crate::error::LobsterError;
use crate::program::Program;
use lobster_apm::{refresh_database, Database, EdbContent, ExecutionStats, Executor};
use lobster_gpu::Columns;
use lobster_provenance::{InputFactId, InputFactRegistry, Output, Provenance, SessionProvenance};
use lobster_ram::{SymbolTable, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// One raw fact of a [`FactSet`]: relation, tuple, optional probability,
/// optional mutual-exclusion group.
type RawFact = (String, Vec<Value>, Option<f64>, Option<u32>);

/// A set of input facts for one sample, used by batched execution.
#[derive(Debug, Clone, Default)]
pub struct FactSet {
    facts: Vec<RawFact>,
}

impl FactSet {
    /// An empty fact set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fact with an optional probability.
    pub fn add(&mut self, relation: impl Into<String>, values: &[Value], prob: Option<f64>) {
        self.facts
            .push((relation.into(), values.to_vec(), prob, None));
    }

    /// Adds a fact belonging to a mutual-exclusion group (e.g. the ten
    /// classifications of one digit image).
    pub fn add_with_exclusion(
        &mut self,
        relation: impl Into<String>,
        values: &[Value],
        prob: Option<f64>,
        exclusion: u32,
    ) {
        self.facts
            .push((relation.into(), values.to_vec(), prob, Some(exclusion)));
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// `true` when no facts have been added.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &RawFact> {
        self.facts.iter()
    }

    /// The facts in insertion order:
    /// `(relation, values, probability, exclusion group)`. The position of a
    /// fact in this iteration is its request-local index — the id a serving
    /// layer reports gradients against.
    pub fn facts(&self) -> impl Iterator<Item = (&str, &[Value], Option<f64>, Option<u32>)> {
        self.facts
            .iter()
            .map(|(relation, values, prob, exclusion)| {
                (relation.as_str(), values.as_slice(), *prob, *exclusion)
            })
    }
}

/// One registered input fact inside a session.
#[derive(Debug, Clone)]
struct RegisteredFact {
    relation: String,
    values: Vec<Value>,
    id: InputFactId,
    probabilistic: bool,
}

/// The materialized state kept between [`Session::run_incremental`] calls:
/// every relation's fix-point content plus enough bookkeeping to detect, at
/// the next call, which relations changed and how.
#[derive(Debug, Clone)]
struct IncrementalState<P: Provenance> {
    /// The materialized database — EDB facts plus every derived relation at
    /// the fix point.
    db: Database<P>,
    /// `facts.len()` at the last refresh; facts registered past this
    /// watermark are pending insertions.
    watermark: usize,
    /// Relations touched by [`Session::retract_facts`] since the last
    /// refresh.
    retracted: BTreeSet<String>,
    /// Effective probability of each fact in `facts[..watermark]` at the
    /// last refresh, used to detect [`Session::set_fact_probability`] calls
    /// made between refreshes.
    probs: Vec<f64>,
}

/// The result of one Lobster run: for every queried relation, the derived
/// tuples with their output probability and gradient.
///
/// `RunResult` is provenance-erased — outputs are plain probabilities and
/// sparse gradients whatever semiring produced them — so the same type is
/// returned by typed sessions, batched runs, and [`DynSession`].
///
/// [`DynSession`]: crate::DynSession
#[derive(Debug, Clone)]
pub struct RunResult {
    outputs: BTreeMap<String, Vec<(Tuple, Output)>>,
    /// Execution statistics (iterations, kernels, elapsed time).
    pub stats: ExecutionStats,
    symbols: SymbolTable,
}

impl RunResult {
    /// Names of the relations captured in this result.
    pub fn relations(&self) -> Vec<&str> {
        self.outputs.keys().map(String::as_str).collect()
    }

    /// The derived tuples of a relation with their outputs.
    pub fn relation(&self, name: &str) -> &[(Tuple, Output)] {
        self.outputs.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of derived tuples in a relation.
    pub fn len(&self, name: &str) -> usize {
        self.relation(name).len()
    }

    /// `true` when the relation derived no tuples.
    pub fn is_empty(&self, name: &str) -> bool {
        self.relation(name).is_empty()
    }

    /// Whether a specific tuple was derived.
    pub fn contains(&self, name: &str, tuple: &[Value]) -> bool {
        self.relation(name)
            .iter()
            .any(|(t, _)| t.as_slice() == tuple)
    }

    /// The probability of a derived tuple (0 when it was not derived).
    pub fn probability(&self, name: &str, tuple: &[Value]) -> f64 {
        self.relation(name)
            .iter()
            .find(|(t, _)| t.as_slice() == tuple)
            .map(|(_, o)| o.probability)
            .unwrap_or(0.0)
    }

    /// The gradient of a derived tuple's probability with respect to input
    /// facts (empty when the tuple was not derived or the provenance is not
    /// differentiable).
    pub fn gradient(&self, name: &str, tuple: &[Value]) -> Vec<(InputFactId, f64)> {
        self.relation(name)
            .iter()
            .find(|(t, _)| t.as_slice() == tuple)
            .map(|(_, o)| o.gradient.clone())
            .unwrap_or_default()
    }

    /// Resolves an interned symbol id back to its string. The returned
    /// handle shares the symbol table's storage (no allocation per call).
    pub fn resolve_symbol(&self, value: &Value) -> Option<std::sync::Arc<str>> {
        match value {
            Value::Symbol(id) => self.symbols.resolve(*id),
            _ => None,
        }
    }

    /// Rewrites the id of every gradient entry through `f`, dropping entries
    /// for which `f` returns `None`.
    ///
    /// Batched execution registers all samples' facts on one shared
    /// registry, so raw gradient ids are batch-relative; a serving layer
    /// that knows where each request's facts landed uses this to translate
    /// them into request-local ids (and to drop entries that point at other
    /// requests' facts).
    pub fn map_gradient_ids(&mut self, mut f: impl FnMut(InputFactId) -> Option<InputFactId>) {
        for rows in self.outputs.values_mut() {
            for (_, output) in rows.iter_mut() {
                output.gradient = std::mem::take(&mut output.gradient)
                    .into_iter()
                    .filter_map(|(id, g)| f(id).map(|id| (id, g)))
                    .collect();
            }
        }
    }
}

/// Cheap per-request state over a shared [`Program`]: this request's input
/// facts and their registry.
///
/// Open with [`Program::session`], feed facts with [`Session::add_fact`],
/// execute with [`Session::run`] (or [`Session::run_batch`] for a
/// mini-batch). Probabilities of registered facts can be updated between
/// runs with [`Session::set_fact_probability`], which is how a training loop
/// feeds new network outputs to the same symbolic program.
#[derive(Debug)]
pub struct Session<P: Provenance> {
    pub(crate) program: Program<P>,
    provenance: P,
    registry: InputFactRegistry,
    facts: Vec<RegisteredFact>,
    /// `true` while `facts[..inline_count]` are exactly the program's inline
    /// facts in registration order — the invariant [`Session::reset`] relies
    /// on to reset by truncation instead of re-registration. Only
    /// [`Session::clear_facts`] breaks it.
    inline_prefix_intact: bool,
    /// Recycled fork registries for [`Session::run_batch`]: each batched run
    /// forks the session registry, and reusing a previous run's fork turns
    /// that per-batch allocation into an in-place copy. A small pool (rather
    /// than one slot) because `run_batch` takes `&self` and may run
    /// concurrently from several threads.
    batch_forks: Mutex<Vec<InputFactRegistry>>,
    /// Materialized fix point kept across [`Session::run_incremental`]
    /// calls; `None` until the first incremental run (and again after
    /// [`Session::reset`] / [`Session::clear_facts`]).
    incremental: Option<IncrementalState<P>>,
}

impl<P: Provenance> Clone for Session<P> {
    fn clone(&self) -> Self {
        Session {
            program: self.program.clone(),
            provenance: self.provenance.clone(),
            registry: self.registry.clone(),
            facts: self.facts.clone(),
            inline_prefix_intact: self.inline_prefix_intact,
            // Scratch registries are per-instance recycling state, not
            // session state — the clone starts with none.
            batch_forks: Mutex::new(Vec::new()),
            incremental: self.incremental.clone(),
        }
    }
}

impl<P: Provenance> Session<P> {
    /// Creates a session and pre-registers the program's inline facts (which
    /// were validated at compile time).
    pub(crate) fn new(program: Program<P>, provenance: P, registry: InputFactRegistry) -> Self {
        let mut session = Session {
            program,
            provenance,
            registry,
            facts: Vec::new(),
            inline_prefix_intact: true,
            batch_forks: Mutex::new(Vec::new()),
            incremental: None,
        };
        session.register_inline_facts();
        session
    }

    fn register_inline_facts(&mut self) {
        let inline: Vec<(String, Tuple, Option<f64>)> = self
            .program
            .artifact
            .compiled
            .facts
            .iter()
            .map(|f| (f.relation.clone(), f.values.clone(), f.probability))
            .collect();
        for (relation, values, probability) in inline {
            let id = self.registry.register(probability, None);
            self.facts.push(RegisteredFact {
                relation,
                values,
                id,
                probabilistic: probability.is_some(),
            });
        }
    }

    /// The program this session runs.
    pub fn program(&self) -> &Program<P> {
        &self.program
    }

    /// The provenance instance bound to this session's registry.
    pub fn provenance(&self) -> &P {
        &self.provenance
    }

    /// This session's input-fact registry.
    pub fn registry(&self) -> &InputFactRegistry {
        &self.registry
    }

    /// Registers an input fact.
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for unknown relations or arity
    /// mismatches.
    pub fn add_fact(
        &mut self,
        relation: &str,
        values: &[Value],
        prob: Option<f64>,
    ) -> Result<InputFactId, LobsterError> {
        self.add_fact_with_exclusion(relation, values, prob, None)
    }

    /// Registers an input fact belonging to a mutual-exclusion group.
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for unknown relations or arity
    /// mismatches.
    pub fn add_fact_with_exclusion(
        &mut self,
        relation: &str,
        values: &[Value],
        prob: Option<f64>,
        exclusion: Option<u32>,
    ) -> Result<InputFactId, LobsterError> {
        let schema = self
            .program
            .ram()
            .schema(relation)
            .ok_or_else(|| LobsterError::BadFact {
                message: format!("unknown relation `{relation}`"),
            })?;
        if schema.arity() != values.len() {
            return Err(LobsterError::BadFact {
                message: format!(
                    "fact for `{relation}` has arity {}, expected {}",
                    values.len(),
                    schema.arity()
                ),
            });
        }
        let id = self.registry.register(prob, exclusion);
        self.facts.push(RegisteredFact {
            relation: relation.to_string(),
            values: values.to_vec(),
            id,
            probabilistic: prob.is_some(),
        });
        Ok(id)
    }

    /// Updates the probability of an already registered fact (used between
    /// training iterations).
    pub fn set_fact_probability(&self, id: InputFactId, prob: f64) {
        self.registry.set_prob(id, prob);
    }

    /// Removes all registered facts (inline program facts included) and
    /// clears the registry. Any materialized incremental state is dropped.
    pub fn clear_facts(&mut self) {
        self.facts.clear();
        self.registry.clear();
        self.inline_prefix_intact = false;
        self.incremental = None;
    }

    /// Returns the session to its freshly-opened state — only the program's
    /// inline facts registered, at their original probabilities — while
    /// keeping the allocations (fact vector, registry storage, batch-fork
    /// scratch) for reuse.
    ///
    /// This is what makes a recycled session indistinguishable from
    /// [`Program::session`]'s output: facts added with [`Session::add_fact`]
    /// are dropped, probabilities changed with
    /// [`Session::set_fact_probability`] are restored, and ids issued to a
    /// previous request are re-issued from the same starting point, so a
    /// loop serving one request after another can recycle one session.
    ///
    /// Incremental state is part of that reset: any fix point materialized
    /// by [`Session::run_incremental`] (and any pending insertions or
    /// retractions) is dropped, so a recycled session can never leak a
    /// previous request's deltas.
    pub fn reset(&mut self) {
        self.incremental = None;
        let inline = self.program.artifact.compiled.facts.len();
        if self.inline_prefix_intact {
            // The inline facts are still the registration prefix: drop
            // everything after them in place and restore their original
            // probabilities (set_fact_probability may have changed them).
            self.facts.truncate(inline);
            self.registry.truncate(inline);
            for (i, fact) in self.program.artifact.compiled.facts.iter().enumerate() {
                self.registry
                    .set_prob(InputFactId(i as u32), fact.probability.unwrap_or(1.0));
            }
        } else {
            // `clear_facts` wiped the inline prefix; rebuild it. The vectors
            // keep their capacity, so this still avoids fresh allocations.
            self.facts.clear();
            self.registry.clear();
            self.register_inline_facts();
            self.inline_prefix_intact = true;
        }
    }

    /// Number of registered facts.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    fn collect_outputs(
        &self,
        provenance: &P,
        db: &Database<P>,
        outputs_of: &[String],
    ) -> BTreeMap<String, Vec<(Tuple, Output)>> {
        let mut outputs = BTreeMap::new();
        for relation in outputs_of {
            let rows = db
                .rows(relation)
                .into_iter()
                .map(|(tuple, tag)| (tuple, provenance.output(&tag)))
                .collect();
            outputs.insert(relation.clone(), rows);
        }
        outputs
    }

    /// Runs the program against this session's facts.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Execution`] on device OOM or timeout.
    pub fn run(&self) -> Result<RunResult, LobsterError> {
        let ram = self.program.ram();
        let mut db = self.program.new_database(self.provenance.clone(), ram);
        for fact in &self.facts {
            let prob = fact.probabilistic.then(|| self.registry.prob(fact.id));
            let tag = self.provenance.input_tag(fact.id, prob);
            db.insert(&fact.relation, &fact.values, tag);
        }
        db.seal(&self.program.device);
        let stats = self.program.execute(&self.provenance, &mut db, ram)?;
        Ok(RunResult {
            outputs: self.collect_outputs(&self.provenance, &db, &ram.outputs),
            stats,
            symbols: self.program.artifact.compiled.symbols.clone(),
        })
    }

    /// The effective probability of a registered fact (1.0 when the fact is
    /// not probabilistic), as used for incremental change detection.
    fn fact_prob(&self, fact: &RegisteredFact) -> f64 {
        if fact.probabilistic {
            self.registry.prob(fact.id)
        } else {
            1.0
        }
    }

    /// Registers every fact of `facts` as a pending insertion and returns
    /// their ids (in `facts` order). The whole set is validated before
    /// anything registers, so a bad fact never leaves a half-applied delta.
    ///
    /// Insertions take effect at the next run: [`Session::run`] always sees
    /// the current facts, and [`Session::run_incremental`] propagates them
    /// through the materialized fix point as a delta.
    ///
    /// # Errors
    ///
    /// Returns [`LobsterError::BadFact`] for unknown relations or arity
    /// mismatches; no fact of the set is registered in that case.
    pub fn insert_facts(&mut self, facts: &FactSet) -> Result<Vec<InputFactId>, LobsterError> {
        self.program.validate_facts(facts)?;
        let mut ids = Vec::with_capacity(facts.len());
        for (relation, values, prob, exclusion) in facts.facts() {
            ids.push(self.add_fact_with_exclusion(relation, values, prob, exclusion)?);
        }
        Ok(ids)
    }

    /// Removes previously registered facts by id and returns how many were
    /// actually removed. Retracting an unknown or already-retracted id is a
    /// no-op.
    ///
    /// The registry is left untouched: retracted ids are never reused, so
    /// the ids (and therefore the gradients and proofs) of surviving facts
    /// keep their meaning across retractions. The removal takes effect at
    /// the next run; [`Session::run_incremental`] re-derives the affected
    /// strata from the surviving support (delete/re-derive).
    pub fn retract_facts(&mut self, ids: &[InputFactId]) -> usize {
        let inline = self.program.artifact.compiled.facts.len();
        let mut removed = 0;
        for id in ids {
            let Some(pos) = self.facts.iter().position(|f| f.id == *id) else {
                continue;
            };
            let fact = self.facts.remove(pos);
            removed += 1;
            if self.inline_prefix_intact && pos < inline {
                self.inline_prefix_intact = false;
            }
            if let Some(state) = self.incremental.as_mut() {
                state.retracted.insert(fact.relation);
                if pos < state.watermark {
                    state.watermark -= 1;
                    state.probs.remove(pos);
                }
            }
        }
        removed
    }

    /// `true` when the session holds a materialized fix point from a
    /// previous [`Session::run_incremental`] call.
    pub fn is_materialized(&self) -> bool {
        self.incremental.is_some()
    }

    /// Runs the program incrementally.
    ///
    /// The first call materializes: it runs from scratch (exactly like
    /// [`Session::run`]) and keeps the resulting database. Subsequent calls
    /// re-evaluate only what the facts registered, retracted, or reweighted
    /// since the previous call can affect:
    ///
    /// * nothing changed — the stored outputs are returned without
    ///   launching a single kernel;
    /// * insert-only changes under a
    ///   [`delta_exact`](lobster_provenance::Provenance::delta_exact)
    ///   provenance — recursive strata propagate the new rows tuple-level
    ///   with semi-naive delta rules, so cost scales with |Δ| and its
    ///   derivation cone, not |DB|;
    /// * retractions, probability updates, or richer provenances — the
    ///   affected strata (and only those) are re-derived from the surviving
    ///   EDB support, replaying exactly what a from-scratch run would do.
    ///
    /// In every case the resulting state — tuples *and* tags, including
    /// proofs and gradients — is bit-identical to [`Session::run`] on the
    /// same session. The returned statistics cover only the work of this
    /// call.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Execution`] on device OOM or timeout. A
    /// failed call drops the materialized fix point, so the next call
    /// starts from scratch and agrees with [`Session::run`].
    pub fn run_incremental(&mut self) -> Result<RunResult, LobsterError> {
        let Some(state) = self.incremental.as_ref() else {
            return self.materialize();
        };

        // Host-side dirty detection: retractions, probability updates, and
        // facts registered past the watermark.
        let mut rebuild: BTreeSet<String> = state.retracted.clone();
        for (fact, old) in self.facts[..state.watermark].iter().zip(&state.probs) {
            if self.fact_prob(fact) != *old {
                rebuild.insert(fact.relation.clone());
            }
        }
        let delta_ok = rebuild.is_empty() && self.provenance.delta_exact();
        let mut inserted: BTreeMap<String, EdbContent<P::Tag>> = BTreeMap::new();
        for fact in &self.facts[state.watermark..] {
            if delta_ok {
                let (columns, tags) = inserted
                    .entry(fact.relation.clone())
                    .or_insert_with(|| (vec![Vec::new(); fact.values.len()], Vec::new()));
                for (col, value) in columns.iter_mut().zip(&fact.values) {
                    col.push(value.encode());
                }
                let prob = fact.probabilistic.then(|| self.registry.prob(fact.id));
                tags.push(self.provenance.input_tag(fact.id, prob));
            } else {
                rebuild.insert(fact.relation.clone());
            }
        }

        if rebuild.is_empty() && inserted.is_empty() {
            // Empty delta: serve straight from the materialized fix point —
            // all checks above are host-side, so zero kernels launch.
            let ram = self.program.ram();
            return Ok(RunResult {
                outputs: self.collect_outputs(&self.provenance, &state.db, &ram.outputs),
                stats: ExecutionStats::default(),
                symbols: self.program.artifact.compiled.symbols.clone(),
            });
        }

        // A failed refresh may leave some strata recomputed and others
        // half-way through their fix point, with the watermark unmoved; a
        // retry against that state could skip the broken strata and return a
        // wrong `Ok`. Drop it, so the next call re-materializes from scratch.
        let refresh_stats = match self.refresh(&inserted, &rebuild) {
            Ok(stats) => stats,
            Err(e) => {
                self.incremental = None;
                return Err(e);
            }
        };
        let probs: Vec<f64> = self.facts.iter().map(|f| self.fact_prob(f)).collect();
        let watermark = self.facts.len();
        let state = self.incremental.as_mut().expect("state checked above");
        state.watermark = watermark;
        state.probs = probs;
        state.retracted.clear();
        let state = self.incremental.as_ref().expect("state checked above");
        let ram = self.program.ram();
        Ok(RunResult {
            outputs: self.collect_outputs(&self.provenance, &state.db, &ram.outputs),
            stats: refresh_stats,
            symbols: self.program.artifact.compiled.symbols.clone(),
        })
    }

    /// First [`Session::run_incremental`] call: run from scratch and keep
    /// the database.
    fn materialize(&mut self) -> Result<RunResult, LobsterError> {
        let ram = self.program.ram();
        let mut db = self.program.new_database(self.provenance.clone(), ram);
        for fact in &self.facts {
            let prob = fact.probabilistic.then(|| self.registry.prob(fact.id));
            let tag = self.provenance.input_tag(fact.id, prob);
            db.insert(&fact.relation, &fact.values, tag);
        }
        db.seal(&self.program.device);
        let stats = self.program.execute(&self.provenance, &mut db, ram)?;
        let outputs = self.collect_outputs(&self.provenance, &db, &ram.outputs);
        let symbols = self.program.artifact.compiled.symbols.clone();
        let probs = self.facts.iter().map(|f| self.fact_prob(f)).collect();
        self.incremental = Some(IncrementalState {
            db,
            watermark: self.facts.len(),
            retracted: BTreeSet::new(),
            probs,
        });
        Ok(RunResult {
            outputs,
            stats,
            symbols,
        })
    }

    /// Applies a non-empty delta to the materialized database.
    fn refresh(
        &mut self,
        inserted: &BTreeMap<String, EdbContent<P::Tag>>,
        rebuild: &BTreeSet<String>,
    ) -> Result<ExecutionStats, LobsterError> {
        let executor = Executor::new(
            self.program.device.clone(),
            self.provenance.clone(),
            self.program.options.clone(),
        );
        let facts = &self.facts;
        let registry = &self.registry;
        let provenance = &self.provenance;
        let ram = self.program.ram();
        // Full EDB content of one relation in fact-registration order — the
        // order `run` inserts facts, so a rebuilt table is bit-identical to
        // a from-scratch seal.
        let edb = |relation: &str| {
            let arity = ram.schemas[relation].arity();
            let mut columns: Columns = vec![Vec::new(); arity];
            let mut tags = Vec::new();
            for fact in facts {
                if fact.relation != relation {
                    continue;
                }
                for (col, value) in columns.iter_mut().zip(&fact.values) {
                    col.push(value.encode());
                }
                let prob = fact.probabilistic.then(|| registry.prob(fact.id));
                tags.push(provenance.input_tag(fact.id, prob));
            }
            (columns, tags)
        };
        let state = self.incremental.as_mut().expect("materialized");
        Ok(refresh_database(
            &executor,
            &mut state.db,
            ram,
            inserted,
            rebuild,
            &edb,
        )?)
    }
}

impl<P: SessionProvenance> Session<P> {
    /// Runs a whole batch of samples in a single execution using the batched
    /// evaluation of Section 4.3: a sample-id column is prepended to every
    /// relation so all samples share one database and one fix-point run.
    ///
    /// The session's own facts (inline program facts included) are shared by
    /// every sample. Registration of the per-sample facts is scoped to this
    /// call: the session registry is *forked*, the samples' facts are
    /// registered on the fork in order (sample 0's facts first, then sample
    /// 1's, …), and the fork is dropped with the call — repeated batches
    /// never grow the session registry.
    ///
    /// Returns one [`RunResult`] per sample, in order. Each result carries
    /// the statistics of the shared batched execution; gradient entries
    /// refer to fact ids in the order described above.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError`] on bad facts or execution failure.
    pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
        // Validate everything up front (one shared rule set with
        // `Program::validate_facts` and `Session::add_fact`) so no sample
        // registers anything for a batch that then aborts half-built.
        for facts in samples {
            self.program.validate_facts(facts)?;
        }
        self.run_batch_refs_prevalidated(&samples.iter().collect::<Vec<_>>())
    }

    /// [`Session::run_batch`] over borrowed, **already validated** samples —
    /// lets the sharded executor, which validates the whole batch once up
    /// front, run each (possibly non-contiguous, possibly retried) chunk
    /// without cloning any fact set or re-walking the schema checks.
    ///
    /// Unknown relations or arity mismatches in `samples` panic inside the
    /// database layer instead of surfacing as [`LobsterError::BadFact`]; the
    /// caller owns the validation.
    pub(crate) fn run_batch_refs_prevalidated(
        &self,
        samples: &[&FactSet],
    ) -> Result<Vec<RunResult>, LobsterError> {
        let batched = &self.program.artifact.batched;
        // Scope all registration to this run: per-sample facts go into a
        // fork of the session registry, visible to a provenance instance
        // rebound to that fork. The fork itself is recycled — a previous
        // run's fork registry is reforked in place when one is idle — so
        // steady-state batches allocate no fresh registry.
        let registry = self
            .batch_forks
            .lock()
            .expect("session fork pool poisoned")
            .pop()
            .unwrap_or_default();
        registry.refork_from(&self.registry);
        let provenance = self.provenance.rebind(registry.clone());
        let mut db = self.program.new_database(provenance.clone(), batched);
        for (sample, facts) in samples.iter().enumerate() {
            for fact in &self.facts {
                let prob = fact.probabilistic.then(|| registry.prob(fact.id));
                let tag = provenance.input_tag(fact.id, prob);
                let mut row = vec![Value::U32(sample as u32)];
                row.extend(fact.values.iter().copied());
                db.insert(&fact.relation, &row, tag);
            }
            for (relation, values, prob, exclusion) in facts.iter() {
                let id = registry.register(*prob, *exclusion);
                let tag = provenance.input_tag(id, *prob);
                let mut row = vec![Value::U32(sample as u32)];
                row.extend(values.iter().copied());
                db.insert(relation, &row, tag);
            }
        }
        db.seal(&self.program.device);
        let outcome = match self.program.execute(&provenance, &mut db, batched) {
            Ok(stats) => {
                // Split the batched outputs back into per-sample results.
                let mut per_sample: Vec<BTreeMap<String, Vec<(Tuple, Output)>>> =
                    vec![BTreeMap::new(); samples.len()];
                for relation in &batched.outputs {
                    for sample_outputs in per_sample.iter_mut() {
                        sample_outputs.entry(relation.clone()).or_default();
                    }
                    for (tuple, tag) in db.rows(relation) {
                        let Some(Value::U32(sample)) = tuple.first().copied() else {
                            continue;
                        };
                        let sample = sample as usize;
                        if sample >= per_sample.len() {
                            continue;
                        }
                        let mut rest = tuple;
                        rest.remove(0);
                        let out = provenance.output(&tag);
                        per_sample[sample]
                            .get_mut(relation)
                            .expect("entry initialized above")
                            .push((rest, out));
                    }
                }
                Ok(per_sample
                    .into_iter()
                    .map(|outputs| RunResult {
                        outputs,
                        stats: stats.clone(),
                        symbols: self.program.artifact.compiled.symbols.clone(),
                    })
                    .collect())
            }
            Err(e) => Err(e),
        };
        // Results are registry-free (plain probabilities and gradients), so
        // once the database and the rebound provenance are gone the fork has
        // no other owner and can be recycled for the next batch.
        drop(db);
        drop(provenance);
        self.batch_forks
            .lock()
            .expect("session fork pool poisoned")
            .push(registry);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Lobster;
    use lobster_provenance::{DiffTop1Proof, Unit};

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn one_program_serves_many_independent_sessions() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let mut a = program.session();
        let mut b = program.session();
        a.add_fact("edge", &[Value::U32(0), Value::U32(1)], None)
            .unwrap();
        a.add_fact("edge", &[Value::U32(1), Value::U32(2)], None)
            .unwrap();
        b.add_fact("edge", &[Value::U32(7), Value::U32(8)], None)
            .unwrap();
        let ra = a.run().unwrap();
        let rb = b.run().unwrap();
        assert_eq!(ra.len("path"), 3);
        assert_eq!(rb.len("path"), 1);
        // Sessions do not share registries: both start their ids at 0.
        assert_eq!(a.registry().len(), 2);
        assert_eq!(b.registry().len(), 1);
    }

    #[test]
    fn repeated_batches_do_not_grow_the_session_registry() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffTop1Proof>()
            .unwrap();
        let session = program.session();
        let mut sample = FactSet::new();
        sample.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
        let before = session.registry().len();
        for _ in 0..10 {
            session.run_batch(std::slice::from_ref(&sample)).unwrap();
        }
        // The seed design registered one fresh id per sample per call into
        // the shared registry; the session-scoped design registers into a
        // per-call fork.
        assert_eq!(session.registry().len(), before);
    }

    #[test]
    fn sessions_over_shared_programs_compute_gradients() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffTop1Proof>()
            .unwrap();
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9))
            .unwrap();
        let e12 = session
            .add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.5))
            .unwrap();
        let result = session.run().unwrap();
        let target = [Value::U32(0), Value::U32(2)];
        assert!((result.probability("path", &target) - 0.45).abs() < 1e-9);
        let grad: BTreeMap<_, _> = result.gradient("path", &target).into_iter().collect();
        assert!((grad[&e01] - 0.5).abs() < 1e-9);
        assert!((grad[&e12] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn probabilities_update_between_runs() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffTop1Proof>()
            .unwrap();
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5))
            .unwrap();
        let before = session
            .run()
            .unwrap()
            .probability("path", &[Value::U32(0), Value::U32(1)]);
        session.set_fact_probability(e01, 0.25);
        let after = session
            .run()
            .unwrap()
            .probability("path", &[Value::U32(0), Value::U32(1)]);
        assert!((before - 0.5).abs() < 1e-9);
        assert!((after - 0.25).abs() < 1e-9);
    }

    #[test]
    fn sessions_can_run_concurrently_from_threads() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let program = program.clone();
                std::thread::spawn(move || {
                    let mut session = program.session();
                    session
                        .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], None)
                        .unwrap();
                    session.run().unwrap().len("path")
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), 1);
        }
    }

    #[test]
    fn bad_facts_are_rejected() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let mut session = program.session();
        assert!(matches!(
            session.add_fact("ghost", &[Value::U32(0)], None),
            Err(LobsterError::BadFact { .. })
        ));
        assert!(matches!(
            session.add_fact("edge", &[Value::U32(0)], None),
            Err(LobsterError::BadFact { .. })
        ));
    }

    #[test]
    fn clear_facts_resets_the_session() {
        let program = Lobster::builder(TC).compile_typed::<Unit>().unwrap();
        let mut session = program.session();
        session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], None)
            .unwrap();
        session.clear_facts();
        assert_eq!(session.fact_count(), 0);
        let result = session.run().unwrap();
        assert!(result.is_empty("path"));
    }

    #[test]
    fn reset_restores_the_freshly_opened_state() {
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel edge = {0.5::(1, 2)}
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<lobster_provenance::AddMultProb>()
        .unwrap();
        let mut session = program.session();
        // Dirty every axis reset must undo: extra facts, a changed inline
        // probability.
        session
            .add_fact("edge", &[Value::U32(7), Value::U32(8)], Some(0.9))
            .unwrap();
        session.set_fact_probability(InputFactId(0), 0.125);
        session.reset();
        assert_eq!(session.fact_count(), 1);
        assert_eq!(session.registry().len(), 1);
        let result = session.run().unwrap();
        assert_eq!(result.len("path"), 1);
        assert!((result.probability("path", &[Value::U32(1), Value::U32(2)]) - 0.5).abs() < 1e-9);
        // Ids are re-issued from the same starting point a fresh session
        // would use.
        let id = session
            .add_fact("edge", &[Value::U32(3), Value::U32(4)], None)
            .unwrap();
        assert_eq!(id, InputFactId(1));
    }

    #[test]
    fn reset_after_clear_facts_rebuilds_the_inline_facts() {
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel edge = {(0, 1)}
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<Unit>()
        .unwrap();
        let mut session = program.session();
        session.clear_facts();
        session
            .add_fact("edge", &[Value::U32(5), Value::U32(6)], None)
            .unwrap();
        session.reset();
        assert_eq!(session.fact_count(), 1);
        let result = session.run().unwrap();
        assert!(result.contains("path", &[Value::U32(0), Value::U32(1)]));
        assert!(!result.contains("path", &[Value::U32(5), Value::U32(6)]));
    }

    #[test]
    fn concurrent_batches_on_one_session_each_get_their_own_fork() {
        let program = Lobster::builder(TC)
            .compile_typed::<DiffTop1Proof>()
            .unwrap();
        let session = std::sync::Arc::new(program.session());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let session = std::sync::Arc::clone(&session);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let mut sample = FactSet::new();
                        sample.add("edge", &[Value::U32(t), Value::U32(t + 1)], Some(0.5));
                        let results = session.run_batch(std::slice::from_ref(&sample)).unwrap();
                        let p = results[0].probability("path", &[Value::U32(t), Value::U32(t + 1)]);
                        assert!((p - 0.5).abs() < 1e-9);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        // The recycled forks never leak registrations back into the session.
        assert_eq!(session.registry().len(), 0);
    }

    #[test]
    fn inline_facts_are_preregistered() {
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel edge = {(0, 1), 0.5::(1, 2)}
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<lobster_provenance::AddMultProb>()
        .unwrap();
        let session = program.session();
        assert_eq!(session.fact_count(), 2);
        let result = session.run().unwrap();
        assert_eq!(result.len("path"), 3);
        assert!((result.probability("path", &[Value::U32(0), Value::U32(2)]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn scheduling_toggle_changes_transfer_counts() {
        let source = "type edge(x: u32, y: u32)
            type is_endpoint(x: u32)
            rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
            rel connected() = is_endpoint(x), is_endpoint(y), path(x, y), x != y
            query connected";
        let run_with = |scheduling: bool| {
            let program = Lobster::builder(source)
                .stratum_scheduling(scheduling)
                .device(lobster_gpu::Device::sequential())
                .compile_typed::<Unit>()
                .unwrap();
            let mut session = program.session();
            for (a, b) in [(0u32, 1u32), (1, 2), (2, 3)] {
                session
                    .add_fact("edge", &[Value::U32(a), Value::U32(b)], None)
                    .unwrap();
            }
            session
                .add_fact("is_endpoint", &[Value::U32(0)], None)
                .unwrap();
            session
                .add_fact("is_endpoint", &[Value::U32(3)], None)
                .unwrap();
            let connected = session.run().unwrap().len("connected");
            (connected, program.device().stats().transfers)
        };
        let (with_sched, transfers_with) = run_with(true);
        let (without_sched, transfers_without) = run_with(false);
        assert_eq!(with_sched, without_sched);
        assert!(transfers_without > transfers_with);
    }
}
