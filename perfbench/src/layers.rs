//! Per-layer accounting for traced runs, built only from what the layers
//! already return: the wall time of a public call, its `ExecutionStats`,
//! and deltas of the device's `DeviceStats` and `ArenaStats`.
//!
//! Every timed call is split so that its parts add up to its wall time:
//!
//! ```text
//! core.run_ms = core.host_ms + apm.host_ms + Σ gpu.*_wall_ms
//! ```
//!
//! `core.host_ms` (call wall minus `ExecutionStats::elapsed`) and
//! `apm.host_ms` (`elapsed` minus kernel wall) are the residuals no finer
//! layer accounts for. They are reported, never dropped; kernels launched
//! outside `elapsed` (the database seal) make `apm.host_ms` an undercount
//! and can push it below zero.

use lobster::{Device, DeviceStats, ExecutionStats, KernelTime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that bypasses a layer reports that layer's metrics as measured: zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datalog.parse_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.host_ms", "ms"),
    ("apm.exec_ms", "ms"),
    ("apm.host_ms", "ms"),
    ("apm.iterations", "count"),
    ("apm.strata", "count"),
    ("apm.launches", "count"),
    ("apm.facts_produced", "count"),
    ("apm.refresh_insert_iterations", "count"),
    ("apm.refresh_retract_iterations", "count"),
    ("gpu.sort_busy_ms", "ms"),
    ("gpu.join_busy_ms", "ms"),
    ("gpu.unique_busy_ms", "ms"),
    ("gpu.other_busy_ms", "ms"),
    ("gpu.sort_wall_ms", "ms"),
    ("gpu.join_wall_ms", "ms"),
    ("gpu.unique_wall_ms", "ms"),
    ("gpu.other_wall_ms", "ms"),
    ("gpu.overlap", "ratio"),
    ("gpu.arena_reuse_frac", "frac"),
    ("gpu.bytes_to_device_mb", "MiB"),
    ("gpu.bytes_to_host_mb", "MiB"),
    ("gpu.peak_mb", "MiB"),
    ("gpu.accounted_frac", "frac"),
    ("core.batch_ms", "ms"),
    ("core.shard_imbalance", "ratio"),
    ("core.steals", "count"),
    ("core.spills", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.exec_ms", "ms"),
    ("serve.sched_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.timer_flush_frac", "frac"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.cache_misses", "count"),
    ("trace.p50_ms", "ms"),
    ("trace.throughput_per_s", "1/s"),
];

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mebibytes in a byte count.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer readings of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug)]
pub struct Sheet {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Sheet {
    fn default() -> Self {
        Sheet {
            values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect(),
        }
    }
}

impl Sheet {
    /// Records a reading.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a harness bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// A recorded reading.
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, value, unit)` for every per-layer metric, in [`PER_LAYER`]
    /// order.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.values[name], unit))
            .collect()
    }
}

/// Accumulated observations of timed calls into the core layer.
#[derive(Debug, Default, Clone)]
pub struct CoreCalls {
    calls: u64,
    wall: Duration,
    exec: ExecutionStats,
    device: DeviceStats,
    fresh_columns: usize,
    reused_columns: usize,
}

impl CoreCalls {
    /// Times `call` and charges it with the device and arena counter deltas
    /// it caused and the execution statistics `exec_of` reads from its
    /// outcome. Nothing else may use `device` meanwhile.
    pub fn observe<T>(
        &mut self,
        device: &Device,
        call: impl FnOnce() -> T,
        exec_of: impl FnOnce(&T) -> ExecutionStats,
    ) -> T {
        let (stats_before, arena_before) = (device.stats(), device.arena().stats());
        let start = Instant::now();
        let out = call();
        let wall = start.elapsed();
        let (stats_after, arena_after) = (device.stats(), device.arena().stats());
        self.calls += 1;
        self.wall += wall;
        self.exec.merge(&exec_of(&out));
        self.device.merge(&stats_after.delta_since(&stats_before));
        self.device.peak_bytes = self.device.peak_bytes.max(stats_after.peak_bytes);
        self.fresh_columns += arena_after.fresh_columns - arena_before.fresh_columns;
        self.reused_columns += arena_after.reused_columns - arena_before.reused_columns;
        out
    }

    /// Mean wall time per call, in ms.
    pub fn mean_wall_ms(&self) -> f64 {
        ratio(ms(self.wall), self.calls as f64)
    }

    /// Writes the core, apm and gpu readings (means per call) into `sheet`
    /// and prints the decomposition of the mean call. `gpu.accounted_frac`
    /// needs the process's peak RSS, so the caller fills it in at the end.
    pub fn record(&self, sheet: &mut Sheet, what: &str) {
        let n = self.calls as f64;
        let per_call = |d: Duration| ratio(ms(d), n);
        let per_call_ns = |ns: u64| ratio(ns as f64 / 1e6, n);
        let busy = &self.device.kernel_time;
        let wall = &self.device.kernel_wall;
        let run_ms = per_call(self.wall);
        let exec_ms = per_call(self.exec.elapsed);
        let kernel_wall_ms = per_call_ns(wall.total_ns());
        sheet.set("core.run_ms", run_ms);
        sheet.set("core.host_ms", run_ms - exec_ms);
        sheet.set("apm.exec_ms", exec_ms);
        sheet.set("apm.host_ms", exec_ms - kernel_wall_ms);
        sheet.set("apm.iterations", ratio(self.exec.iterations as f64, n));
        sheet.set("apm.strata", ratio(self.exec.strata as f64, n));
        sheet.set("apm.launches", ratio(self.exec.kernel_launches as f64, n));
        sheet.set(
            "apm.facts_produced",
            ratio(self.exec.facts_produced as f64, n),
        );
        for (time, suffix) in [(busy, "busy_ms"), (wall, "wall_ms")] {
            let KernelTime {
                sort_ns,
                join_ns,
                unique_ns,
                other_ns,
            } = *time;
            sheet.set(&format!("gpu.sort_{suffix}"), per_call_ns(sort_ns));
            sheet.set(&format!("gpu.join_{suffix}"), per_call_ns(join_ns));
            sheet.set(&format!("gpu.unique_{suffix}"), per_call_ns(unique_ns));
            sheet.set(&format!("gpu.other_{suffix}"), per_call_ns(other_ns));
        }
        sheet.set(
            "gpu.overlap",
            ratio(busy.total_ns() as f64, wall.total_ns() as f64),
        );
        sheet.set(
            "gpu.arena_reuse_frac",
            ratio(
                self.reused_columns as f64,
                (self.fresh_columns + self.reused_columns) as f64,
            ),
        );
        sheet.set(
            "gpu.bytes_to_device_mb",
            ratio(mib(self.device.bytes_to_device), n),
        );
        sheet.set(
            "gpu.bytes_to_host_mb",
            ratio(mib(self.device.bytes_to_host), n),
        );
        sheet.set("gpu.peak_mb", mib(self.device.peak_bytes));
        println!(
            "  decomposition of {what} (mean of {} calls): {run_ms:.4} ms = core.host_ms {:.4} \
             + apm.host_ms {:.4} + kernel wall {kernel_wall_ms:.4}",
            self.calls,
            run_ms - exec_ms,
            exec_ms - kernel_wall_ms,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_starts_with_every_metric_at_zero() {
        let sheet = Sheet::default();
        let rows = sheet.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.iter().all(|&(_, v, _)| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_metric_is_a_harness_bug() {
        Sheet::default().set("gpu.nonsense_ms", 1.0);
    }

    #[test]
    fn observed_calls_decompose_into_parts_and_residuals() {
        use lobster::{Lobster, Unit, Value};
        let program = Lobster::builder(
            "type edge(x: u32, y: u32)
             rel path(x, y) = edge(x, y) or (path(x, z) and edge(z, y))
             query path",
        )
        .compile_typed::<Unit>()
        .expect("compiles");
        let mut session = program.session();
        for i in 0..50u32 {
            session
                .add_fact("edge", &[Value::U32(i), Value::U32(i + 1)], None)
                .expect("fact fits");
        }
        let mut calls = CoreCalls::default();
        for _ in 0..3 {
            let result = calls.observe(
                program.device(),
                || session.run().expect("runs"),
                |r| r.stats.clone(),
            );
            assert_eq!(result.len("path"), 50 * 51 / 2);
        }
        let mut sheet = Sheet::default();
        calls.record(&mut sheet, "Session::run");
        assert_eq!(calls.calls, 3);
        let wall = sheet.get("core.run_ms");
        assert!(wall > 0.0);
        assert!(sheet.get("apm.exec_ms") > 0.0);
        assert!(sheet.get("apm.exec_ms") <= wall);
        assert!(sheet.get("apm.launches") > 0.0);
        let kernel_wall: f64 = ["sort", "join", "unique", "other"]
            .iter()
            .map(|k| sheet.get(&format!("gpu.{k}_wall_ms")))
            .sum();
        let sum = sheet.get("core.host_ms") + sheet.get("apm.host_ms") + kernel_wall;
        assert!((sum - wall).abs() <= 1e-9 * wall.max(1.0));
    }
}
