//! The FVLog stand-in: a GPU columnar engine without APM-level optimizations.

use lobster_apm::{compile_stratum, Database, ExecError, ExecutionStats, Executor, RuntimeOptions};
use lobster_gpu::Device;
use lobster_provenance::Unit;
use lobster_ram::RamProgram;
use std::collections::BTreeMap;

/// The output of an FVLog run: encoded tuples per relation.
pub type FvlogDatabase = BTreeMap<String, Vec<Vec<u64>>>;

/// A discrete-only, GPU (simulated) columnar Datalog engine standing in for
/// FVLog. It shares Lobster's device, kernels and stratum compiler — join
/// selection included, so sort-order inference still picks merge joins where
/// it can — but runs without the APM-level optimizations: hash indices are
/// rebuilt on every fix-point iteration (no static registers), per-iteration
/// buffers are not reused, and no provenance is supported.
#[derive(Debug, Clone)]
pub struct FvlogEngine {
    device: Device,
}

impl Default for FvlogEngine {
    fn default() -> Self {
        Self::new(Device::default())
    }
}

impl FvlogEngine {
    /// Creates the engine on the given device.
    pub fn new(device: Device) -> Self {
        FvlogEngine { device }
    }

    /// The device this engine runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Runs a (discrete) RAM program and returns the tuples of every
    /// relation, plus execution statistics.
    ///
    /// # Errors
    ///
    /// Returns the [`ExecError`] of a failed stratum (device out of memory).
    pub fn run(
        &self,
        ram: &RamProgram,
        facts: &[(String, Vec<u64>)],
    ) -> Result<(FvlogDatabase, ExecutionStats), ExecError> {
        let mut db = Database::new(ram.schemas.clone(), Unit::new());
        for (rel, row) in facts {
            db.insert_encoded(rel, row, ());
        }
        db.seal(&self.device);
        let executor = Executor::new(
            self.device.clone(),
            Unit::new(),
            RuntimeOptions::unoptimized(),
        );
        let mut stats = ExecutionStats::default();
        for stratum in &ram.strata {
            stats.merge(&executor.run_stratum(&mut db, &compile_stratum(stratum, ram))?);
        }
        let mut out = BTreeMap::new();
        for rel in ram.schemas.keys() {
            let rows: Vec<Vec<u64>> = db
                .rows(rel)
                .into_iter()
                .map(|(tuple, _)| tuple.iter().map(|v| v.encode()).collect())
                .collect();
            out.insert(rel.clone(), rows);
        }
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobster_datalog::parse;
    use lobster_gpu::DeviceConfig;

    const TC: &str = "type edge(x: u32, y: u32)
        rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
        query path";

    #[test]
    fn fvlog_computes_transitive_closure() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..6u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let engine = FvlogEngine::new(Device::sequential());
        let (db, stats) = engine.run(&compiled.ram, &facts).unwrap();
        assert_eq!(db["path"].len(), 21);
        assert!(stats.kernel_launches > 0);
    }

    #[test]
    fn fvlog_runs_out_of_memory_on_tight_budgets() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..500u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let device = Device::new(DeviceConfig {
            memory_limit: Some(10_000),
            ..DeviceConfig::default()
        });
        let engine = FvlogEngine::new(device);
        assert!(matches!(
            engine.run(&compiled.ram, &facts),
            Err(ExecError::Device(_))
        ));
    }

    #[test]
    fn fvlog_never_reuses_indices() {
        let compiled = parse(TC).unwrap();
        let facts: Vec<(String, Vec<u64>)> = (0..50u64)
            .map(|i| ("edge".to_string(), vec![i, i + 1]))
            .collect();
        let fvlog_device = Device::sequential();
        let (_, _) = FvlogEngine::new(fvlog_device.clone())
            .run(&compiled.ram, &facts)
            .unwrap();
        // Count build kernels: FVLog rebuilds per iteration, so there must be
        // roughly one build per iteration; Lobster with static registers
        // builds once per join.
        let fvlog_kernels = fvlog_device.stats().kernel_launches;
        let lobster_device = Device::sequential();
        let mut db = Database::new(compiled.ram.schemas.clone(), Unit::new());
        for (rel, row) in &facts {
            db.insert_encoded(rel, row, ());
        }
        db.seal(&lobster_device);
        let exec = Executor::new(
            lobster_device.clone(),
            Unit::new(),
            RuntimeOptions::optimized(),
        );
        for stratum in &compiled.ram.strata {
            exec.run_stratum(&mut db, &compile_stratum(stratum, &compiled.ram))
                .unwrap();
        }
        let lobster_kernels = lobster_device.stats().kernel_launches;
        assert!(
            lobster_kernels < fvlog_kernels,
            "optimized run should launch fewer kernels ({lobster_kernels} vs {fvlog_kernels})"
        );
    }
}
