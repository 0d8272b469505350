//! Machine configuration: topology, core parameters, cache geometry, memory.
//!
//! Two ready-made configurations mirror the paper's experimental setup
//! (Section V-A):
//!
//! * [`MachineConfig::smt4`] — one 4-wide out-of-order core with 4 SMT thread
//!   contexts; core resources, caches and the memory bus are all shared.
//! * [`MachineConfig::quadcore`] — four 4-wide out-of-order cores with
//!   private L1/L2, a shared last-level cache and a shared memory bus.

/// Fetch policy arbitrating front-end bandwidth between SMT threads
/// (Section VII of the paper compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchPolicy {
    /// Prioritise the thread with the fewest in-flight instructions
    /// (Tullsen et al., ISCA 1996). The paper's default.
    #[default]
    Icount,
    /// Rotate priority between threads regardless of occupancy.
    RoundRobin,
}

/// Reorder-buffer sharing discipline between SMT threads (Section VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RobPartitioning {
    /// All entries in a shared pool; one thread may occupy the whole ROB.
    /// The paper's default.
    #[default]
    Dynamic,
    /// Each thread owns `rob_size / threads` entries.
    Static,
}

/// Chip topology: how many cores and how many SMT contexts per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// A single core with `threads` SMT hardware contexts sharing all
    /// resources (core bandwidth, caches, memory bus).
    SmtCore {
        /// Number of hardware thread contexts.
        threads: usize,
    },
    /// `cores` single-threaded cores with private L1/L2, shared L3 and bus.
    Multicore {
        /// Number of cores.
        cores: usize,
    },
}

impl Topology {
    /// Total number of hardware thread contexts (jobs that run at once).
    pub fn contexts(&self) -> usize {
        match *self {
            Topology::SmtCore { threads } => threads,
            Topology::Multicore { cores } => cores,
        }
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in cycles (to the requesting core).
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of cache lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes as u64
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics (in [`validate`](Self::validate)) if not a power of two.
    pub fn sets(&self) -> u64 {
        self.lines() / self.ways as u64
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("associativity must be positive".into());
        }
        if !self
            .size_bytes
            .is_multiple_of(self.line_bytes as u64 * self.ways as u64)
        {
            return Err(format!(
                "capacity {} not divisible by ways*line ({}*{})",
                self.size_bytes, self.ways, self.line_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

/// The largest ROB [`MachineConfig::validate`] accepts. The engine sizes
/// every thread's ROB ring from the ROB up front, so an absurd size must
/// fail validation rather than the allocation.
const MAX_ROB_SIZE: u32 = 1 << 16;

/// Out-of-order core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreParams {
    /// Instructions dispatched (renamed/inserted into the ROB) per cycle.
    pub dispatch_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries (shared across SMT threads), at most 65 536.
    pub rob_size: u32,
    /// SMT fetch arbitration policy.
    pub fetch_policy: FetchPolicy,
    /// ROB sharing discipline.
    pub rob_partitioning: RobPartitioning,
    /// Front-end refill penalty after a branch misprediction, in cycles.
    pub branch_redirect_penalty: u64,
    /// Outstanding long-latency misses per thread (MSHR-style cap).
    pub mshrs_per_thread: u32,
    /// In [`RobPartitioning::Dynamic`] mode, reserve a small per-thread
    /// slice of ROB entries (DCRA-style) as a guard against memory-stalled
    /// threads absorbing the whole shared pool. Exposed as a switch so the
    /// ablation test can quantify the effect.
    pub dynamic_reservation: bool,
    /// Latency of long (floating-point/complex) operations, in cycles.
    pub long_op_latency: u64,
}

impl CoreParams {
    /// ROB split of dynamic sharing with reservation on a core running
    /// `threads` jobs: each thread is guaranteed `max(rob_size / 4·threads,
    /// 2)` entries and the rest form a pool shared above the guarantees.
    /// Returns `(guarantee, shared_capacity)`, or `None` if the ROB cannot
    /// hold every guarantee.
    pub(crate) fn rob_reservation(&self, threads: usize) -> Option<(usize, usize)> {
        let rob_size = self.rob_size as usize;
        let n = threads.max(1);
        let guarantee = (rob_size / (4 * n)).max(2);
        Some((guarantee, rob_size.checked_sub(n * guarantee)?))
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            dispatch_width: 4,
            commit_width: 4,
            rob_size: 128,
            fetch_policy: FetchPolicy::Icount,
            rob_partitioning: RobPartitioning::Dynamic,
            branch_redirect_penalty: 10,
            mshrs_per_thread: 8,
            dynamic_reservation: true,
            long_op_latency: 6,
        }
    }
}

/// Memory (DRAM + bus) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemParams {
    /// Flat access latency in cycles (row access + transfer for one line).
    pub latency: u64,
    /// Bus occupancy per transfer in cycles; the reciprocal is the peak
    /// bandwidth in lines per cycle. Shared between all cores/threads, so
    /// contention appears as queueing delay.
    pub cycles_per_transfer: u64,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            latency: 160,
            cycles_per_transfer: 8,
        }
    }
}

/// Complete machine description consumed by [`crate::Machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Chip topology.
    pub topology: Topology,
    /// Core microarchitecture.
    pub core: CoreParams,
    /// First-level data cache (per core; shared by SMT threads of a core).
    pub l1d: CacheGeometry,
    /// Second-level cache (private per core in [`Topology::Multicore`]).
    pub l2: CacheGeometry,
    /// Last-level cache (always shared chip-wide).
    pub l3: CacheGeometry,
    /// Memory system.
    pub mem: MemParams,
    /// Cycles simulated before measurement starts (cache warm-up).
    pub warmup_cycles: u64,
    /// Cycles over which IPC is measured.
    pub measure_cycles: u64,
}

impl MachineConfig {
    /// The paper's first configuration: a 4-way SMT, 4-wide out-of-order
    /// core (Section V-A) with ICOUNT fetch and dynamic ROB sharing.
    pub fn smt4() -> Self {
        MachineConfig {
            topology: Topology::SmtCore { threads: 4 },
            core: CoreParams::default(),
            l1d: CacheGeometry {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 3,
            },
            l2: CacheGeometry {
                size_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 12,
            },
            l3: CacheGeometry {
                size_bytes: 4 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 35,
            },
            mem: MemParams::default(),
            warmup_cycles: 60_000,
            measure_cycles: 240_000,
        }
    }

    /// The paper's second configuration: four 4-wide out-of-order cores with
    /// private L1/L2, shared L3 and shared memory bus (Section V-A).
    ///
    /// The memory system is provisioned wider than the single-core SMT
    /// die's (3 vs 8 cycles of bus occupancy per line): a four-core chip
    /// ships with more DRAM channels, and the paper observes that quad-core
    /// interference is "much smaller and more evenly divided" than SMT
    /// interference — with an SMT-sized bus, four memory-intensive cores
    /// would starve each other far beyond what the paper reports.
    pub fn quadcore() -> Self {
        MachineConfig {
            topology: Topology::Multicore { cores: 4 },
            l3: CacheGeometry {
                size_bytes: 8 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 35,
            },
            mem: MemParams {
                latency: 160,
                cycles_per_transfer: 3,
            },
            ..MachineConfig::smt4()
        }
    }

    /// A forward-looking 8-way SMT core: the big-machine configuration
    /// behind the K = 8 scaling studies. Doubles the SMT4 die's shared
    /// resources — ROB entries, dispatch/commit width and last-level
    /// cache — so eight contexts contend at roughly the per-thread
    /// pressure of the paper's 4-way core rather than starving.
    pub fn smt8() -> Self {
        MachineConfig {
            topology: Topology::SmtCore { threads: 8 },
            core: CoreParams {
                dispatch_width: 8,
                commit_width: 8,
                rob_size: 256,
                mshrs_per_thread: 8,
                ..CoreParams::default()
            },
            l3: CacheGeometry {
                size_bytes: 8 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 35,
            },
            mem: MemParams {
                latency: 160,
                cycles_per_transfer: 4,
            },
            ..MachineConfig::smt4()
        }
    }

    /// A speculative 10-way SMT core: the stress configuration behind the
    /// K = 10 scaling leg. Scales the SMT8 die's shared resources by the
    /// same per-context ratio — ROB entries, dispatch/commit width, MSHRs
    /// and last-level cache — so ten contexts contend at comparable
    /// per-thread pressure instead of measuring pure starvation.
    pub fn smt10() -> Self {
        MachineConfig {
            topology: Topology::SmtCore { threads: 10 },
            core: CoreParams {
                dispatch_width: 10,
                commit_width: 10,
                rob_size: 320,
                mshrs_per_thread: 10,
                ..CoreParams::default()
            },
            l3: CacheGeometry {
                size_bytes: 10 << 20,
                ways: 20,
                line_bytes: 64,
                latency: 38,
            },
            mem: MemParams {
                latency: 160,
                cycles_per_transfer: 4,
            },
            ..MachineConfig::smt4()
        }
    }

    /// Returns a copy with the given fetch policy (Section VII sweeps).
    pub fn with_fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.core.fetch_policy = policy;
        self
    }

    /// Returns a copy with the given ROB partitioning (Section VII sweeps).
    pub fn with_rob_partitioning(mut self, partitioning: RobPartitioning) -> Self {
        self.core.rob_partitioning = partitioning;
        self
    }

    /// Returns a copy with shorter warm-up/measurement windows, for tests.
    pub fn with_windows(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_cycles = warmup;
        self.measure_cycles = measure;
        self
    }

    /// Number of hardware contexts (jobs running simultaneously).
    pub fn contexts(&self) -> usize {
        self.topology.contexts()
    }

    /// Checks internal consistency of the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.contexts() == 0 {
            return Err("machine must have at least one context".into());
        }
        if self.core.dispatch_width == 0 || self.core.commit_width == 0 {
            return Err("core widths must be positive".into());
        }
        if self.core.rob_size == 0 {
            return Err("ROB must have at least one entry".into());
        }
        if self.core.rob_size > MAX_ROB_SIZE {
            return Err(format!("ROB must have at most {MAX_ROB_SIZE} entries"));
        }
        if self.core.rob_partitioning == RobPartitioning::Static {
            if let Topology::SmtCore { threads } = self.topology {
                if (self.core.rob_size as usize) < threads {
                    return Err("static partitioning needs >= 1 ROB entry per thread".into());
                }
            }
        }
        if self.core.rob_partitioning == RobPartitioning::Dynamic && self.core.dynamic_reservation {
            // A full core is the binding case: fewer jobs reserve fewer
            // entries in total.
            let n = match self.topology {
                Topology::SmtCore { threads } => threads,
                Topology::Multicore { .. } => 1,
            };
            if self.core.rob_reservation(n).is_none() {
                return Err(format!(
                    "a {}-entry ROB cannot hold the dynamic reservation of {n} threads",
                    self.core.rob_size
                ));
            }
        }
        if self.core.mshrs_per_thread == 0 {
            return Err("need at least one MSHR per thread".into());
        }
        if self.mem.cycles_per_transfer == 0 {
            return Err("bus occupancy must be positive".into());
        }
        for (name, g) in [("l1d", &self.l1d), ("l2", &self.l2), ("l3", &self.l3)] {
            g.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        if self.l1d.line_bytes != self.l2.line_bytes || self.l2.line_bytes != self.l3.line_bytes {
            return Err("all cache levels must share one line size".into());
        }
        if self.measure_cycles == 0 {
            return Err("measurement window must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        MachineConfig::smt4().validate().unwrap();
        MachineConfig::quadcore().validate().unwrap();
        MachineConfig::smt8().validate().unwrap();
        MachineConfig::smt10().validate().unwrap();
    }

    #[test]
    fn smt10_scales_smt8_shared_resources_per_context() {
        let cfg = MachineConfig::smt10();
        assert_eq!(cfg.contexts(), 10);
        assert_eq!(cfg.topology, Topology::SmtCore { threads: 10 });
        let smt8 = MachineConfig::smt8();
        // Same per-context pressure: every scaled resource keeps the
        // SMT8 ratio of resource / contexts.
        assert_eq!(cfg.core.rob_size * 8, smt8.core.rob_size * 10);
        assert_eq!(cfg.core.dispatch_width * 8, smt8.core.dispatch_width * 10);
        assert_eq!(cfg.core.mshrs_per_thread, 10);
        assert_eq!(cfg.l3.size_bytes * 8, smt8.l3.size_bytes * 10);
    }

    #[test]
    fn smt8_has_eight_contexts_and_doubled_shared_resources() {
        let cfg = MachineConfig::smt8();
        assert_eq!(cfg.contexts(), 8);
        assert_eq!(cfg.topology, Topology::SmtCore { threads: 8 });
        let smt4 = MachineConfig::smt4();
        assert_eq!(cfg.core.rob_size, 2 * smt4.core.rob_size);
        assert_eq!(cfg.core.dispatch_width, 2 * smt4.core.dispatch_width);
        assert!(cfg.l3.size_bytes > smt4.l3.size_bytes);
    }

    #[test]
    fn smt4_has_four_contexts_sharing_one_core() {
        let cfg = MachineConfig::smt4();
        assert_eq!(cfg.contexts(), 4);
        assert_eq!(cfg.topology, Topology::SmtCore { threads: 4 });
    }

    #[test]
    fn quadcore_has_four_cores_and_bigger_l3() {
        let cfg = MachineConfig::quadcore();
        assert_eq!(cfg.contexts(), 4);
        assert_eq!(cfg.topology, Topology::Multicore { cores: 4 });
        assert!(cfg.l3.size_bytes > MachineConfig::smt4().l3.size_bytes);
    }

    #[test]
    fn cache_geometry_derived_quantities() {
        let g = CacheGeometry {
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 3,
        };
        assert_eq!(g.lines(), 512);
        assert_eq!(g.sets(), 64);
        g.validate().unwrap();
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut g = CacheGeometry {
            size_bytes: 3000,
            ways: 8,
            line_bytes: 64,
            latency: 3,
        };
        assert!(g.validate().is_err());
        g.size_bytes = 32 << 10;
        g.line_bytes = 48; // not a power of two
        assert!(g.validate().is_err());
    }

    #[test]
    fn policy_builders_apply() {
        let cfg = MachineConfig::smt4()
            .with_fetch_policy(FetchPolicy::RoundRobin)
            .with_rob_partitioning(RobPartitioning::Static);
        assert_eq!(cfg.core.fetch_policy, FetchPolicy::RoundRobin);
        assert_eq!(cfg.core.rob_partitioning, RobPartitioning::Static);
        cfg.validate().unwrap();
    }

    #[test]
    fn mismatched_line_sizes_rejected() {
        let mut cfg = MachineConfig::smt4();
        cfg.l2.line_bytes = 128;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rob_too_small_for_dynamic_reservation_rejected() {
        // 4 threads x 2 reserved entries do not fit in 6.
        let mut cfg = MachineConfig::smt4();
        cfg.core.rob_size = 6;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("reservation"), "{err}");
        cfg.core.rob_size = 8;
        cfg.validate().unwrap();
        // Without the reservation, or with static shares, 6 entries are
        // enough for 4 threads.
        cfg.core.rob_size = 6;
        cfg.core.dynamic_reservation = false;
        cfg.validate().unwrap();
        cfg.core.dynamic_reservation = true;
        cfg.core.rob_partitioning = RobPartitioning::Static;
        cfg.validate().unwrap();
        // A single-threaded core still reserves 2 entries.
        let mut quad = MachineConfig::quadcore();
        quad.core.rob_size = 1;
        assert!(quad.validate().is_err());
        quad.core.rob_size = 2;
        quad.validate().unwrap();
    }

    #[test]
    fn oversized_rob_rejected() {
        let mut cfg = MachineConfig::smt4();
        cfg.core.rob_size = MAX_ROB_SIZE;
        cfg.validate().unwrap();
        cfg.core.rob_size = MAX_ROB_SIZE + 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at most"), "{err}");
    }

    #[test]
    fn zero_width_rejected() {
        let mut cfg = MachineConfig::smt4();
        cfg.core.dispatch_width = 0;
        assert!(cfg.validate().is_err());
    }
}
