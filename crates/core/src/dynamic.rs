//! Runtime-selectable provenance: [`DynProgram`] and [`DynSession`].
//!
//! [`Program`] is generic over its provenance semiring, which gives
//! zero-cost dispatch but forces the reasoning mode to be a compile-time
//! choice at every call site. A server that reads the mode from
//! configuration (`provenance = "diff-top-1-proofs"`) instead builds a
//! [`DynProgram`]: an enum over the statically-typed programs for each of
//! the built-in semirings. Dispatch is one `match` per API call —
//! negligible next to a fix-point execution — and results come back as the
//! provenance-erased [`RunResult`](crate::RunResult) either way.

use crate::error::LobsterError;
use crate::program::{LobsterBuilder, Program};
use crate::session::{FactSet, RunResult, Session};
use lobster_provenance::{
    AddMultProb, Boolean, DiffAddMultProb, DiffMaxMinProb, DiffTop1Proof, InputFactId, MaxMinProb,
    ProvenanceKind, Top1Proof, Unit,
};
use lobster_ram::{RamProgram, Value};

/// Expands once per provenance kind: `variant, semiring type, kind`.
macro_rules! for_each_provenance {
    ($macro:ident) => {
        $macro! {
            (Unit, Unit, ProvenanceKind::Unit),
            (Boolean, Boolean, ProvenanceKind::Boolean),
            (MaxMinProb, MaxMinProb, ProvenanceKind::MaxMinProb),
            (AddMultProb, AddMultProb, ProvenanceKind::AddMultProb),
            (Top1Proof, Top1Proof, ProvenanceKind::Top1Proof),
            (DiffMaxMinProb, DiffMaxMinProb, ProvenanceKind::DiffMaxMinProb),
            (DiffAddMultProb, DiffAddMultProb, ProvenanceKind::DiffAddMultProb),
            (DiffTop1Proof, DiffTop1Proof, ProvenanceKind::DiffTop1Proof),
        }
    };
}

macro_rules! define_dyn_program {
    ($(($variant:ident, $prov:ty, $kind:path)),* $(,)?) => {
        /// A compiled program whose provenance semiring was chosen at run
        /// time from a [`ProvenanceKind`].
        ///
        /// Build with [`DynProgram::compile`] or
        /// [`Lobster::builder(..).provenance(kind).compile()`].
        ///
        /// [`Lobster::builder(..).provenance(kind).compile()`]: crate::LobsterBuilder::compile
        #[derive(Debug, Clone)]
        pub enum DynProgram {
            $(
                #[doc = concat!("A program over the `", stringify!($prov), "` semiring.")]
                $variant(Program<$prov>),
            )*
        }

        /// A session over a [`DynProgram`].
        #[derive(Debug, Clone)]
        pub enum DynSession {
            $(
                #[doc = concat!("A session over the `", stringify!($prov), "` semiring.")]
                $variant(Session<$prov>),
            )*
        }

        /// A persistent sharded executor over a [`DynProgram`] — the
        /// provenance-erased face of
        /// [`ShardedExecutor`](crate::ShardedExecutor), built with
        /// [`DynProgram::sharded_executor`] or
        /// [`DynProgram::batching_executor`]. Its shard worker threads are
        /// spawned once (at construction) and run every batch; dropping
        /// the executor tears them down. A serving layer holds **one** of
        /// these for a program's whole lifetime instead of paying thread
        /// spawn/join per batch.
        #[derive(Debug)]
        pub enum DynShardedExecutor {
            $(
                #[doc = concat!(
                    "An executor over the `", stringify!($prov), "` semiring."
                )]
                $variant(crate::ShardedExecutor<$prov>),
            )*
        }

        impl DynShardedExecutor {
            /// Number of shard devices.
            pub fn num_shards(&self) -> usize {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.num_shards(), )*
                }
            }

            /// The configuration in effect.
            pub fn config(&self) -> &crate::ShardConfig {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.config(), )*
                }
            }

            /// The shard devices, indexed by shard.
            pub fn shard_devices(&self) -> Vec<&lobster_gpu::Device> {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.shard_devices(), )*
                }
            }

            /// Queues one sample for the workers to batch; see
            /// [`ShardedExecutor::submit`](crate::ShardedExecutor::submit).
            pub fn submit(&self, facts: FactSet, reply: crate::Reply) {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.submit(facts, reply), )*
                }
            }

            /// Submitted samples waiting to be formed into a batch.
            pub fn queued(&self) -> usize {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.queued(), )*
                }
            }

            /// Samples of formed batches whose replies are not delivered
            /// yet.
            pub fn executing(&self) -> usize {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.executing(), )*
                }
            }

            /// A snapshot of the batch-forming counters.
            pub fn batch_stats(&self) -> crate::BatchStats {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.batch_stats(), )*
                }
            }

            /// Runs a borrowed batch across the shards; see
            /// [`ShardedExecutor::run_batch`](crate::ShardedExecutor::run_batch).
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError`] on bad facts or execution failure.
            pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.run_batch(samples), )*
                }
            }

            /// Runs an owned batch across the shards without copying any
            /// fact payload, reporting partition/shard statistics; see
            /// [`ShardedExecutor::run_batch_owned`](crate::ShardedExecutor::run_batch_owned).
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError`] on bad facts or execution failure.
            pub fn run_batch_owned(
                &self,
                samples: Vec<FactSet>,
            ) -> Result<(Vec<RunResult>, crate::ShardRunStats), LobsterError> {
                match self {
                    $( DynShardedExecutor::$variant(e) => e.run_batch_owned(samples), )*
                }
            }
        }

        impl DynProgram {
            pub(crate) fn from_builder(
                builder: LobsterBuilder,
                kind: ProvenanceKind,
            ) -> Result<Self, LobsterError> {
                Ok(match kind {
                    $( $kind => DynProgram::$variant(builder.compile_typed::<$prov>()?), )*
                })
            }

            /// The provenance kind this program was compiled for.
            pub fn kind(&self) -> ProvenanceKind {
                match self {
                    $( DynProgram::$variant(_) => $kind, )*
                }
            }

            /// Opens a per-request session.
            pub fn session(&self) -> DynSession {
                match self {
                    $( DynProgram::$variant(p) => DynSession::$variant(p.session()), )*
                }
            }

            /// A persistent sharded executor over this program: shard worker
            /// threads are spawned once and reused by every
            /// [`DynShardedExecutor::run_batch`] call; see
            /// [`ShardedExecutor`](crate::ShardedExecutor).
            pub fn sharded_executor(&self, config: crate::ShardConfig) -> DynShardedExecutor {
                match self {
                    $( DynProgram::$variant(p) => DynShardedExecutor::$variant(
                        crate::ShardedExecutor::new(p.clone(), config),
                    ), )*
                }
            }

            /// A persistent sharded executor whose workers batch submitted
            /// samples within the given window; see
            /// [`ShardedExecutor::batching`](crate::ShardedExecutor::batching).
            pub fn batching_executor(
                &self,
                config: crate::ShardConfig,
                max_batch_size: usize,
                max_queue_delay: std::time::Duration,
            ) -> DynShardedExecutor {
                match self {
                    $( DynProgram::$variant(p) => DynShardedExecutor::$variant(
                        crate::ShardedExecutor::batching(
                            p.clone(),
                            config,
                            max_batch_size,
                            max_queue_delay,
                        ),
                    ), )*
                }
            }

            /// Runs a batch of samples in one fix-point; see
            /// [`Program::run_batch`].
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError`] on bad facts or execution failure.
            pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
                match self {
                    $( DynProgram::$variant(p) => p.run_batch(samples), )*
                }
            }

            /// The compiled RAM program.
            pub fn ram(&self) -> &RamProgram {
                match self {
                    $( DynProgram::$variant(p) => p.ram(), )*
                }
            }

            /// The device this program's sessions execute on; its
            /// statistics (kernel launches, per-kernel wall time) attribute
            /// serving cost to individual kernels.
            pub fn device(&self) -> &lobster_gpu::Device {
                match self {
                    $( DynProgram::$variant(p) => p.device(), )*
                }
            }

            /// The stable hash of the source this program was compiled from;
            /// see [`Program::source_hash`].
            pub fn source_hash(&self) -> u64 {
                match self {
                    $( DynProgram::$variant(p) => p.source_hash(), )*
                }
            }

            /// Lint diagnostics gathered when the program was compiled; see
            /// [`Program::diagnostics`].
            pub fn diagnostics(&self) -> &[crate::Diagnostic] {
                match self {
                    $( DynProgram::$variant(p) => p.diagnostics(), )*
                }
            }

            /// A deterministic estimate of the compiled artifact's resident
            /// size in bytes; see [`Program::compiled_size_bytes`].
            pub fn compiled_size_bytes(&self) -> usize {
                match self {
                    $( DynProgram::$variant(p) => p.compiled_size_bytes(), )*
                }
            }

            /// The runtime options this program was compiled with.
            pub fn options(&self) -> &lobster_apm::RuntimeOptions {
                match self {
                    $( DynProgram::$variant(p) => p.options(), )*
                }
            }

            /// The relations named in `query` declarations.
            pub fn queries(&self) -> &[String] {
                match self {
                    $( DynProgram::$variant(p) => p.queries(), )*
                }
            }

            /// Interns a string constant into a `Value::Symbol`.
            pub fn symbol(&self, name: &str) -> Value {
                match self {
                    $( DynProgram::$variant(p) => p.symbol(name), )*
                }
            }

            /// Checks a request's facts against the program's schemas; see
            /// [`Program::validate_facts`].
            ///
            /// # Errors
            ///
            /// Returns [`LobsterError::BadFact`] for the first offending
            /// fact.
            pub fn validate_facts(&self, facts: &FactSet) -> Result<(), LobsterError> {
                match self {
                    $( DynProgram::$variant(p) => p.validate_facts(facts), )*
                }
            }
        }

        impl DynSession {
            /// The provenance kind of the underlying session.
            pub fn kind(&self) -> ProvenanceKind {
                match self {
                    $( DynSession::$variant(_) => $kind, )*
                }
            }

            /// Registers an input fact; see [`Session::add_fact`].
            ///
            /// # Errors
            ///
            /// Returns [`LobsterError::BadFact`] for unknown relations or
            /// arity mismatches.
            pub fn add_fact(
                &mut self,
                relation: &str,
                values: &[Value],
                prob: Option<f64>,
            ) -> Result<InputFactId, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => s.add_fact(relation, values, prob), )*
                }
            }

            /// Registers an input fact in a mutual-exclusion group; see
            /// [`Session::add_fact_with_exclusion`].
            ///
            /// # Errors
            ///
            /// Returns [`LobsterError::BadFact`] for unknown relations or
            /// arity mismatches.
            pub fn add_fact_with_exclusion(
                &mut self,
                relation: &str,
                values: &[Value],
                prob: Option<f64>,
                exclusion: Option<u32>,
            ) -> Result<InputFactId, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => {
                        s.add_fact_with_exclusion(relation, values, prob, exclusion)
                    } )*
                }
            }

            /// Updates the probability of a registered fact.
            pub fn set_fact_probability(&self, id: InputFactId, prob: f64) {
                match self {
                    $( DynSession::$variant(s) => s.set_fact_probability(id, prob), )*
                }
            }

            /// Removes all registered facts and clears the registry.
            pub fn clear_facts(&mut self) {
                match self {
                    $( DynSession::$variant(s) => s.clear_facts(), )*
                }
            }

            /// Returns the session to its freshly-opened state (inline
            /// facts only, original probabilities), retaining allocations;
            /// see [`Session::reset`].
            pub fn reset(&mut self) {
                match self {
                    $( DynSession::$variant(s) => s.reset(), )*
                }
            }

            /// Number of registered facts.
            pub fn fact_count(&self) -> usize {
                match self {
                    $( DynSession::$variant(s) => s.fact_count(), )*
                }
            }

            /// Runs the program against this session's facts; see
            /// [`Session::run`].
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError::Execution`] on device OOM or
            /// timeout.
            pub fn run(&self) -> Result<RunResult, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => s.run(), )*
                }
            }

            /// Runs a batch of samples in one fix-point; see
            /// [`Session::run_batch`].
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError`] on bad facts or execution failure.
            pub fn run_batch(&self, samples: &[FactSet]) -> Result<Vec<RunResult>, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => s.run_batch(samples), )*
                }
            }

            /// Registers a set of facts as a pending insertion; see
            /// [`Session::insert_facts`].
            ///
            /// # Errors
            ///
            /// Returns [`LobsterError::BadFact`] for unknown relations or
            /// arity mismatches; nothing registers in that case.
            pub fn insert_facts(
                &mut self,
                facts: &FactSet,
            ) -> Result<Vec<InputFactId>, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => s.insert_facts(facts), )*
                }
            }

            /// Removes previously registered facts by id, returning how
            /// many were removed; see [`Session::retract_facts`].
            pub fn retract_facts(&mut self, ids: &[InputFactId]) -> usize {
                match self {
                    $( DynSession::$variant(s) => s.retract_facts(ids), )*
                }
            }

            /// `true` when the session holds a materialized fix point; see
            /// [`Session::is_materialized`].
            pub fn is_materialized(&self) -> bool {
                match self {
                    $( DynSession::$variant(s) => s.is_materialized(), )*
                }
            }

            /// Runs the program incrementally against the materialized fix
            /// point; see [`Session::run_incremental`].
            ///
            /// # Errors
            ///
            /// Returns a [`LobsterError::Execution`] on device OOM or
            /// timeout.
            pub fn run_incremental(&mut self) -> Result<RunResult, LobsterError> {
                match self {
                    $( DynSession::$variant(s) => s.run_incremental(), )*
                }
            }
        }
    };
}

for_each_provenance!(define_dyn_program);

impl DynProgram {
    /// Compiles `source` for the given provenance kind with default device
    /// and options. Use [`Lobster::builder`](crate::Lobster::builder) with
    /// [`provenance`](crate::LobsterBuilder::provenance) for full control.
    ///
    /// # Errors
    ///
    /// Returns a [`LobsterError::Frontend`] when the program does not parse
    /// or compile.
    pub fn compile(source: &str, kind: ProvenanceKind) -> Result<Self, LobsterError> {
        crate::Lobster::builder(source).provenance(kind).compile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lobster;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn every_kind_compiles_and_runs() {
        for kind in ProvenanceKind::ALL {
            let program = DynProgram::compile(TC, kind).unwrap();
            assert_eq!(program.kind(), kind);
            let mut session = program.session();
            assert_eq!(session.kind(), kind);
            session
                .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.5))
                .unwrap();
            session
                .add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.5))
                .unwrap();
            let result = session.run().unwrap();
            assert_eq!(result.len("path"), 3, "kind {kind}");
            let p = result.probability("path", &[Value::U32(0), Value::U32(2)]);
            if kind.is_probabilistic() {
                assert!(
                    (p - 0.25).abs() < 1e-9 || (p - 0.5).abs() < 1e-9,
                    "kind {kind}: {p}"
                );
            } else {
                assert_eq!(p, 1.0, "kind {kind}");
            }
        }
    }

    #[test]
    fn kind_parsed_from_a_string_selects_the_semiring() {
        let kind: ProvenanceKind = "diff-top-1-proofs".parse().unwrap();
        let program = Lobster::builder(TC).provenance(kind).compile().unwrap();
        let mut session = program.session();
        let e01 = session
            .add_fact("edge", &[Value::U32(0), Value::U32(1)], Some(0.9))
            .unwrap();
        session
            .add_fact("edge", &[Value::U32(1), Value::U32(2)], Some(0.5))
            .unwrap();
        let result = session.run().unwrap();
        let target = [Value::U32(0), Value::U32(2)];
        assert!((result.probability("path", &target) - 0.45).abs() < 1e-9);
        // Gradients flow through the erased API too.
        let grad = result.gradient("path", &target);
        assert!(grad
            .iter()
            .any(|(id, g)| *id == e01 && (*g - 0.5).abs() < 1e-9));
    }

    #[test]
    fn dyn_batches_are_scoped_like_typed_ones() {
        let program = DynProgram::compile(TC, ProvenanceKind::AddMultProb).unwrap();
        let mut sample = FactSet::new();
        sample.add("edge", &[Value::U32(0), Value::U32(1)], Some(0.5));
        let results = program.run_batch(&[sample.clone(), sample]).unwrap();
        assert_eq!(results.len(), 2);
        for result in &results {
            assert!(
                (result.probability("path", &[Value::U32(0), Value::U32(1)]) - 0.5).abs() < 1e-9
            );
        }
    }
}
