//! Persisting [`PerfTable`] sweeps: a versioned on-disk format and a
//! fingerprint-keyed [`TableStore`] cache.
//!
//! Building a performance table — simulating every coschedule of a suite on
//! a machine — dominates the cost of every experiment, yet the result is a
//! pure function of the machine configuration and the benchmark suite.
//! [`PerfTable::save`] / [`PerfTable::load`] give the table a bitwise-stable
//! serialisation, and [`TableStore`] keys saved tables by a fingerprint of
//! `(MachineConfig, suite)` so repeated studies skip re-simulation.
//!
//! # File format (`SPT1`)
//!
//! Written and read with [`crate::codec`], the codec the `dist` wire frames
//! share: little-endian throughout, `f64` values stored as their IEEE-754
//! bit patterns (`f64::to_bits`) so a load reproduces the build *bitwise*,
//! and every count checked against the bytes left before anything is sized
//! by it. The rules below the codec stay here: tables never contain NaN or
//! infinite IPCs, and load rejects them, as it rejects out-of-range,
//! unsorted or repeated combos.
//!
//! ```text
//! magic        8  bytes  b"SYMBPERF"
//! version      u32       currently 1
//! contexts     u32       hardware contexts the table was built for
//! benchmarks   u32       number of suite entries, then per benchmark:
//!   name_len   u32
//!   name       name_len bytes of UTF-8
//!   solo_ipc   u64       f64 bits of the solo reference IPC
//! combos       u64       number of recorded coschedules, then per combo
//!                        (sorted ascending by index vector):
//!   combo_len  u32       multiset size (1..=contexts)
//!   indices    combo_len * u32   sorted benchmark indices
//!   slot_ipcs  combo_len * u64   f64 bits of per-slot IPCs
//! checksum     u64       FNV-1a 64 over every preceding byte
//! ```
//!
//! Combos are written in sorted order, which is also the order a
//! [`PerfTable`] packs its rows in memory, so saving the same table twice
//! produces identical bytes and a load packs the rows as they arrive.
//!
//! A load builds the table's [`CoscheduleIndex`](symbiosis::CoscheduleIndex)
//! from the header alone, before any row is read, so the header is
//! bounded by what that index may cost: at most 64 contexts, and at most
//! 2^24 indexed combos (every multiset of `1..=contexts` benchmarks).

use std::path::{Path, PathBuf};

use simproc::{BenchmarkProfile, CacheGeometry, Machine, MachineConfig, Topology};
use symbiosis::CoscheduleIter;

use crate::codec::{self, fnv1a, Reader, Writer};
use crate::table::{PerfTable, TableError, UNRECORDED};

const MAGIC: &[u8; 8] = b"SYMBPERF";
const VERSION: u32 = 1;
/// Most contexts a loaded table may claim: the index keeps one rank table
/// per multiset size, each growing with the square of its size.
const MAX_CONTEXTS: usize = 64;
/// Most combos a loaded table may index. The table keeps one `u32` row
/// offset per indexed combo, recorded or not, so this caps what a header
/// can make a load allocate at 64 MiB. The largest tables the
/// experiments build, 12 benchmarks on 8 contexts, index 125 969 combos.
const MAX_INDEXED_COMBOS: usize = 1 << 24;

/// Combos indexed by a table of `n_bench` benchmarks on `contexts`
/// contexts (every multiset of sizes `1..=contexts`), saturating,
/// computed without building the index.
fn indexed_combos(n_bench: usize, contexts: usize) -> usize {
    (1..=contexts).fold(0, |total: usize, size| {
        total.saturating_add(CoscheduleIter::count_total(n_bench, size))
    })
}

impl PerfTable {
    /// FNV-1a 64 fingerprint of this table's canonical serialisation
    /// ([`PerfTable::to_bytes`]) — a pure function of the table *contents*,
    /// independent of how the table was obtained (simulated, synthetic,
    /// loaded, or received over a wire).
    ///
    /// Two tables share a content fingerprint exactly when their canonical
    /// byte encodings are identical, which is what distributed sweeps key
    /// their table-shipping deduplication on: a coordinator sends the
    /// fingerprint, and workers whose [`TableStore`] already holds it skip
    /// the transfer.
    pub fn content_fingerprint(&self) -> u64 {
        Self::content_fingerprint_of(&self.to_bytes())
    }

    /// The [`PerfTable::content_fingerprint`] of the table that `bytes`
    /// encode, computed from the bytes alone. A holder of a table's bytes
    /// (a cache file, a received frame) checks them with this before it
    /// parses them: [`PerfTable::from_bytes`] accepts only canonical
    /// encodings, so equal fingerprints mean equal tables.
    pub fn content_fingerprint_of(bytes: &[u8]) -> u64 {
        fnv1a(bytes)
    }

    /// Serialises the table to the documented `SPT1` byte format.
    ///
    /// The output is deterministic: the same table always encodes to the
    /// same bytes, its packed rows in order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Writer::new();
        out.raw(MAGIC);
        out.u32(VERSION);
        out.u32(self.contexts as u32);
        out.u32(self.names.len() as u32);
        for (name, &solo) in self.names.iter().zip(&self.solo_ipc) {
            out.str(name);
            out.f64(solo);
        }
        let rows = self.recorded_combos();
        out.u64(rows.len() as u64);
        for (combo, ipcs) in rows {
            out.u32(combo.len() as u32);
            for &idx in combo {
                out.u32(idx as u32);
            }
            for &ipc in ipcs {
                out.f64(ipc);
            }
        }
        out.seal()
    }

    /// Parses a table from bytes produced by [`PerfTable::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TableError::Format`] on a bad magic, unsupported version, checksum
    /// mismatch, truncation, trailing garbage, a count larger than the
    /// file can hold, a header whose index would pass the format's bounds
    /// (see the module docs), or invalid contents (out-of-range indices,
    /// unsorted, duplicate or out-of-order combos, non-finite IPCs,
    /// missing or disagreeing solo rows).
    pub fn from_bytes(buf: &[u8]) -> Result<Self, TableError> {
        if buf.len() < MAGIC.len() + 4 + 8 {
            return Err(TableError::Format(format!(
                "file too short ({} bytes)",
                buf.len()
            )));
        }
        if &buf[..MAGIC.len()] != MAGIC {
            return Err(TableError::Format(
                "bad magic (not a PerfTable file)".into(),
            ));
        }
        let mut cur = Reader::new(codec::unseal(buf)?);
        cur.take(MAGIC.len())?;
        let version = cur.u32()?;
        if version != VERSION {
            return Err(TableError::Format(format!(
                "unsupported version {version} (expected {VERSION})"
            )));
        }
        let contexts = cur.u32()? as usize;
        if contexts == 0 {
            return Err(TableError::Format("zero contexts".into()));
        }
        // A benchmark takes at least its name length and solo IPC.
        let n_bench = cur.count_u32(4 + 8, "benchmark count")?;
        if n_bench == 0 {
            return Err(TableError::Format("empty benchmark suite".into()));
        }
        // Bound the index the header asks for before anything builds it.
        if contexts > MAX_CONTEXTS {
            return Err(TableError::Format(format!(
                "{contexts} contexts (at most {MAX_CONTEXTS})"
            )));
        }
        let combos = indexed_combos(n_bench, contexts);
        if combos > MAX_INDEXED_COMBOS {
            return Err(TableError::Format(format!(
                "{n_bench} benchmarks on {contexts} contexts index {combos} combos \
                 (at most {MAX_INDEXED_COMBOS})"
            )));
        }
        let mut names = Vec::with_capacity(n_bench);
        let mut solo_ipc = Vec::with_capacity(n_bench);
        for b in 0..n_bench {
            names.push(cur.str()?.to_owned());
            let solo = take_ipc(&mut cur, "solo IPC")?;
            if solo <= 0.0 {
                return Err(TableError::Format(format!(
                    "benchmark {b} solo IPC {solo} must be positive"
                )));
            }
            solo_ipc.push(solo);
        }
        // A combo takes at least its length, one index and one slot IPC.
        let n_combos = cur.count_u64(4 + 4 + 8, "combo count")?;
        let mut table = PerfTable::empty(names, solo_ipc, contexts);
        let (mut combo, mut ipcs) = (Vec::new(), Vec::new());
        // Where the previously pushed row starts in `table.slots`.
        let mut last: Option<usize> = None;
        for c in 0..n_combos {
            let len = cur.u32()? as usize;
            if len == 0 || len > contexts {
                return Err(TableError::Format(format!(
                    "combo {c} has size {len} (contexts {contexts})"
                )));
            }
            combo.clear();
            for _ in 0..len {
                let idx = cur.u32()? as usize;
                if idx >= n_bench {
                    return Err(TableError::Format(format!(
                        "combo {c} references benchmark {idx} of {n_bench}"
                    )));
                }
                combo.push(idx);
            }
            // Size and range are checked, so only an unsorted combo is
            // left without an index.
            let global = table
                .index
                .index_sorted_slots(&combo)
                .ok_or_else(|| TableError::Format(format!("combo {c} is not sorted")))?;
            if table.starts[global] != UNRECORDED {
                return Err(TableError::Format(format!("combo {c} is a duplicate")));
            }
            if last.is_some_and(|start| table.slots[start..] > combo[..]) {
                return Err(TableError::Format(format!("combo {c} is out of order")));
            }
            ipcs.clear();
            for _ in 0..len {
                ipcs.push(take_ipc(&mut cur, "slot IPC")?);
            }
            last = Some(table.slots.len());
            table.push_row(global, &combo, &ipcs);
        }
        cur.finish()?;
        // The solo reference column must agree with the size-1 combos,
        // whose index `b` is the combo `[b]`.
        for (b, &solo) in table.solo_ipc.iter().enumerate() {
            match table.row(b, 1) {
                Some(row) if row[0].to_bits() == solo.to_bits() => {}
                Some(row) => {
                    return Err(TableError::Format(format!(
                        "benchmark {b}: solo IPC {solo} disagrees with its size-1 combo {}",
                        row[0]
                    )))
                }
                None => {
                    return Err(TableError::Format(format!(
                        "benchmark {b} has no size-1 (solo) combo"
                    )))
                }
            }
        }
        Ok(table)
    }

    /// Writes the table to `path` in the documented format.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TableError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| TableError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads a table previously written by [`PerfTable::save`]. The loaded
    /// table is bitwise identical to the one saved.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures, [`TableError::Format`] on
    /// corrupted or malformed contents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TableError> {
        Self::from_bytes(&read(path.as_ref())?)
    }
}

/// Reads one IPC; a table never stores a NaN or infinite one.
fn take_ipc(cur: &mut Reader<'_>, what: &str) -> Result<f64, TableError> {
    let v = cur.f64()?;
    if !v.is_finite() {
        return Err(TableError::Format(format!("{what} is not finite ({v})")));
    }
    Ok(v)
}

fn read(path: &Path) -> Result<Vec<u8>, TableError> {
    std::fs::read(path).map_err(|e| TableError::Io(format!("{}: {e}", path.display())))
}

fn hash_geometry(key: &mut Writer, g: &CacheGeometry) {
    key.u64(g.size_bytes);
    key.u64(g.ways as u64);
    key.u64(g.line_bytes as u64);
    key.u64(g.latency);
}

/// Stable fingerprint of everything a [`PerfTable::build`] depends on: the
/// complete machine configuration (topology, core, caches, memory, windows)
/// and every profile parameter of the suite, plus the file-format version.
///
/// The key carries no simulator version: the store assumes the same inputs
/// always simulate to the same table. Any change to `simproc` that alters a
/// `SimResult` must therefore bump `VERSION`, or tables cached by the old
/// simulator are served as current without any error. Speed-only engine
/// changes are held bitwise by `simproc`'s `engine_parity` test and need no
/// bump.
pub fn table_fingerprint(config: &MachineConfig, suite: &[BenchmarkProfile]) -> u64 {
    // The FNV-1a 64 of every input, written as `u64`s, `f64` bits and
    // `u64`-length-prefixed names.
    let mut key = Writer::new();
    key.u64(VERSION as u64);
    match config.topology {
        Topology::SmtCore { threads } => {
            key.u64(1);
            key.u64(threads as u64);
        }
        Topology::Multicore { cores } => {
            key.u64(2);
            key.u64(cores as u64);
        }
    }
    let core = &config.core;
    key.u64(core.dispatch_width as u64);
    key.u64(core.commit_width as u64);
    key.u64(core.rob_size as u64);
    key.u64(core.fetch_policy as u64);
    key.u64(core.rob_partitioning as u64);
    key.u64(core.branch_redirect_penalty);
    key.u64(core.mshrs_per_thread as u64);
    key.u64(core.dynamic_reservation as u64);
    key.u64(core.long_op_latency);
    hash_geometry(&mut key, &config.l1d);
    hash_geometry(&mut key, &config.l2);
    hash_geometry(&mut key, &config.l3);
    key.u64(config.mem.latency);
    key.u64(config.mem.cycles_per_transfer);
    key.u64(config.warmup_cycles);
    key.u64(config.measure_cycles);
    key.u64(suite.len() as u64);
    for p in suite {
        key.bytes(p.name.as_bytes());
        key.f64(p.load_frac);
        key.f64(p.store_frac);
        key.f64(p.branch_frac);
        key.f64(p.long_op_frac);
        key.f64(p.mispredict_rate);
        key.f64(p.dep_frac);
        key.u64(p.stack_lines);
        key.f64(p.stack_frac);
        key.u64(p.hot_lines);
        key.u64(p.footprint_lines);
        key.f64(p.hot_frac);
        key.f64(p.streaming_frac);
        key.f64(p.frontend_stall_rate);
        key.u64(p.seed);
    }
    fnv1a(&key.into_bytes())
}

/// What a [`TableStore::get_or_build`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreOutcome {
    /// The requested table.
    pub table: PerfTable,
    /// `true` if the table was loaded from the cache (no simulation ran);
    /// `false` if it was built and saved.
    pub cache_hit: bool,
}

/// A directory of cached [`PerfTable`]s keyed by
/// [`table_fingerprint`]`(MachineConfig, suite)`.
///
/// [`TableStore::get_or_build`] loads the table if a valid cache file
/// exists, otherwise simulates it with [`PerfTable::build`] and saves the
/// result for the next run. Stale or corrupted cache files are rebuilt and
/// overwritten, never trusted.
///
/// # Examples
///
/// ```no_run
/// use simproc::MachineConfig;
/// use workloads::{spec2006, TableStore};
///
/// # fn main() -> Result<(), workloads::TableError> {
/// let store = TableStore::new(".table-cache");
/// let suite = spec2006();
/// let cold = store.get_or_build(&MachineConfig::smt4(), &suite, 8)?;
/// assert!(!cold.cache_hit); // simulated and saved
/// let warm = store.get_or_build(&MachineConfig::smt4(), &suite, 8)?;
/// assert!(warm.cache_hit); // loaded, no simulation
/// assert_eq!(cold.table, warm.table);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TableStore {
    dir: PathBuf,
}

impl TableStore {
    /// Creates a store rooted at `dir`. The directory is created lazily on
    /// the first save.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TableStore { dir: dir.into() }
    }

    /// The cache file path for a machine + suite pair.
    pub fn path_for(&self, config: &MachineConfig, suite: &[BenchmarkProfile]) -> PathBuf {
        self.dir.join(format!(
            "perftable-{:016x}.spt",
            table_fingerprint(config, suite)
        ))
    }

    /// Returns the cached table for `(config, suite)`, or builds and caches
    /// it. The loaded table is bitwise identical to the one a fresh build
    /// would have produced on the machine that populated the cache.
    ///
    /// Cache files that fail to load or that disagree with the request
    /// (names or context count — a fingerprint collision) are rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from the build and [`TableError::Io`]
    /// from the save; a corrupt cache file alone never fails the call.
    pub fn get_or_build(
        &self,
        config: &MachineConfig,
        suite: &[BenchmarkProfile],
        threads: usize,
    ) -> Result<StoreOutcome, TableError> {
        let path = self.path_for(config, suite);
        if let Ok(table) = PerfTable::load(&path) {
            let consistent = table.contexts() == config.contexts()
                && table.names().len() == suite.len()
                && table.names().iter().zip(suite).all(|(n, p)| *n == p.name);
            if consistent {
                return Ok(StoreOutcome {
                    table,
                    cache_hit: true,
                });
            }
        }
        let machine = Machine::new(config.clone())?;
        let table = PerfTable::build(&machine, suite, threads)?;
        self.write_atomic(&path, &table.to_bytes())?;
        Ok(StoreOutcome {
            table,
            cache_hit: false,
        })
    }

    /// Writes `bytes` to `path` atomically: the bytes land in a
    /// writer-unique temp file in the store directory and are renamed into
    /// place, so a concurrent reader (another worker process loading the
    /// same fingerprint) can never observe a torn or partial table. Racing
    /// writers are last-one-wins safe — every rename installs a complete
    /// file. A failed write removes its temp file best-effort.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), TableError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| TableError::Io(format!("{}: {e}", self.dir.display())))?;
        // The tmp name must be unique per writer (pid alone would let two
        // threads of one process interleave writes into one tmp file).
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        if let Err(e) = std::fs::write(&tmp, bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(TableError::Io(format!("{}: {e}", tmp.display())));
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            TableError::Io(format!("{}: {e}", path.display()))
        })
    }

    /// The cache file path for a table known only by its
    /// [`PerfTable::content_fingerprint`] (a table received over a wire,
    /// say). Content-keyed entries use a distinct `perftable-c...` prefix so
    /// they can never collide with the config-keyed [`TableStore::path_for`]
    /// namespace.
    fn path_for_content(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("perftable-c{fingerprint:016x}.spt"))
    }

    /// Loads the cached table with this content fingerprint, if a valid one
    /// exists. The file's bytes are checked against the fingerprint before
    /// they are parsed, so a corrupt, stale or mislabelled cache file reads
    /// as a miss — never as the wrong table.
    pub fn load_content(&self, fingerprint: u64) -> Option<PerfTable> {
        let bytes = read(&self.path_for_content(fingerprint)).ok()?;
        if PerfTable::content_fingerprint_of(&bytes) != fingerprint {
            return None;
        }
        PerfTable::from_bytes(&bytes).ok()
    }

    /// Saves a table under its content fingerprint (atomically: a
    /// concurrent reader never sees a torn file) and returns the
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// [`TableError::Io`] on filesystem failures.
    pub fn save_content(&self, table: &PerfTable) -> Result<u64, TableError> {
        let bytes = table.to_bytes();
        let fingerprint = PerfTable::content_fingerprint_of(&bytes);
        self.write_atomic(&self.path_for_content(fingerprint), &bytes)?;
        Ok(fingerprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec2006;

    fn tiny_suite() -> Vec<BenchmarkProfile> {
        spec2006().into_iter().take(3).collect()
    }

    fn tiny_config() -> MachineConfig {
        MachineConfig::smt4().with_windows(1_000, 3_000)
    }

    fn tiny_table() -> PerfTable {
        let machine = Machine::new(tiny_config()).unwrap();
        PerfTable::build(&machine, &tiny_suite(), 4).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "symb-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_is_bitwise_identical() {
        let table = tiny_table();
        let dir = temp_dir("roundtrip");
        let path = dir.join("t.spt");
        table.save(&path).unwrap();
        let loaded = PerfTable::load(&path).unwrap();
        // PartialEq on f64 is bit-for-bit here: no NaNs can occur (load
        // rejects non-finite values), so == means identical bit patterns.
        assert_eq!(table, loaded);
        for (combo, ipcs) in table.recorded_combos() {
            let got = loaded.slot_ipcs(combo).unwrap();
            for (a, b) in ipcs.iter().zip(got) {
                assert_eq!(a.to_bits(), b.to_bits(), "combo {combo:?}");
            }
        }
        for b in 0..table.names().len() {
            assert_eq!(table.solo_ipc(b).to_bits(), loaded.solo_ipc(b).to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encoding_is_deterministic() {
        let table = tiny_table();
        assert_eq!(table.to_bytes(), table.clone().to_bytes());
    }

    #[test]
    fn short_file_and_corruption_rejected() {
        let table = tiny_table();
        let bytes = table.to_bytes();

        // Truncations at every structural boundary fail cleanly.
        for cut in [0, 4, MAGIC.len() + 2, bytes.len() / 2, bytes.len() - 1] {
            let err = PerfTable::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, TableError::Format(_)),
                "cut at {cut}: {err:?}"
            );
        }

        // A flipped payload byte trips the checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let err = PerfTable::from_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("checksum")),
            "{err:?}"
        );

        // Wrong magic is reported as such.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        let err = PerfTable::from_bytes(&wrong).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("magic")),
            "{err:?}"
        );

        // Loading a missing path is an I/O error.
        assert!(matches!(
            PerfTable::load("/nonexistent/nope.spt"),
            Err(TableError::Io(_))
        ));
    }

    #[test]
    fn nan_ipc_rejected_on_load() {
        let table = tiny_table();
        let mut bytes = table.to_bytes();
        // Overwrite the last slot-IPC word (just before the checksum) with
        // NaN bits and re-stamp the checksum so only the NaN check trips.
        let ipc_at = bytes.len() - 16;
        bytes[ipc_at..ipc_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        reseal(&mut bytes);
        let err = PerfTable::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains("finite")),
            "{err:?}"
        );
    }

    /// Re-stamps the checksum of a sealed file after an edit, so only the
    /// edit itself can fail the load.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - 8;
        let sum = fnv1a(&bytes[..at]);
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
    }

    /// A sealed file holding `(name, solo IPC)` per benchmark and
    /// `(indices, slot IPCs)` per combo, in the order given.
    fn encode(contexts: u32, benches: &[(&str, f64)], combos: &[(&[u32], &[f64])]) -> Vec<u8> {
        let mut out = header(contexts, benches.len() as u32);
        for &(name, solo) in benches {
            out.str(name);
            out.f64(solo);
        }
        out.u64(combos.len() as u64);
        for &(indices, ipcs) in combos {
            out.u32(indices.len() as u32);
            for &idx in indices {
                out.u32(idx);
            }
            for &ipc in ipcs {
                out.f64(ipc);
            }
        }
        out.seal()
    }

    /// The magic, version, context count and benchmark count.
    fn header(contexts: u32, n_bench: u32) -> Writer {
        let mut out = Writer::new();
        out.raw(MAGIC);
        out.u32(VERSION);
        out.u32(contexts);
        out.u32(n_bench);
        out
    }

    fn format_error(bytes: &[u8]) -> String {
        match PerfTable::from_bytes(bytes) {
            Err(TableError::Format(msg)) => msg,
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    /// `n_bench` one-letter benchmarks on `contexts` contexts and a single
    /// solo combo: a well-formed, checksummed file of `52 + 13 * n_bench`
    /// bytes whose header alone decides the index size.
    fn hostile_header(contexts: u32, n_bench: usize) -> Vec<u8> {
        let benches = vec![("b", 1.0); n_bench];
        encode(contexts, &benches, &[(&[0], &[1.0])])
    }

    #[test]
    fn headers_that_would_build_a_huge_index_are_format_errors() {
        // Both once aborted the process while building the index.
        let many_contexts = hostile_header(100_000, 1);
        assert_eq!(many_contexts.len(), 65);
        assert!(format_error(&many_contexts).contains("100000 contexts"));
        let many_benchmarks = hostile_header(8, 1_000);
        assert_eq!(many_benchmarks.len(), 13_052);
        assert!(format_error(&many_benchmarks).contains("1000 benchmarks on 8 contexts"));

        // The bounds themselves: 64 contexts load and 65 do not; the
        // largest suite whose index fits on two contexts passes the header
        // check (and fails later, on its missing solo rows), one more
        // benchmark does not.
        let err = format_error(&hostile_header(65, 1));
        assert!(err.contains("65 contexts"), "{err}");
        assert_eq!(
            PerfTable::from_bytes(&hostile_header(64, 1))
                .unwrap()
                .contexts(),
            64
        );
        assert_eq!(indexed_combos(12, 8), 125_969);
        let fits = (1..)
            .find(|&n| indexed_combos(n + 1, 2) > MAX_INDEXED_COMBOS)
            .unwrap();
        let err = format_error(&hostile_header(2, fits));
        assert!(err.contains("solo"), "{err}");
        let err = format_error(&hostile_header(2, fits + 1));
        assert!(err.contains(&format!("{} benchmarks", fits + 1)), "{err}");
    }

    /// Two benchmarks on two contexts; `rows` replaces the combo list.
    fn two_bench(rows: &[(&[u32], &[f64])]) -> Vec<u8> {
        encode(2, &[("a", 1.0), ("b", 2.0)], rows)
    }

    #[test]
    fn hand_built_file_loads_and_re_encodes_identically() {
        let bytes = two_bench(&[
            (&[0], &[1.0]),
            (&[0, 0], &[0.5, 0.5]),
            (&[0, 1], &[0.6, 1.1]),
            (&[1], &[2.0]),
            (&[1, 1], &[1.0, 1.0]),
        ]);
        let table = PerfTable::from_bytes(&bytes).unwrap();
        assert_eq!(table.len(), 5);
        assert_eq!(table.slot_ipcs(&[0, 1]), Some(&[0.6, 1.1][..]));
        assert_eq!(table.to_bytes(), bytes);
    }

    #[test]
    fn invalid_contents_rejected() {
        let cases: [(&str, Vec<u8>); 8] = [
            (
                "duplicate",
                two_bench(&[(&[0], &[1.0]), (&[0], &[1.0]), (&[1], &[2.0])]),
            ),
            (
                "not sorted",
                two_bench(&[(&[0], &[1.0]), (&[1, 0], &[1.0, 1.0]), (&[1], &[2.0])]),
            ),
            (
                "out of order",
                two_bench(&[(&[0], &[1.0]), (&[1], &[2.0]), (&[0, 1], &[1.0, 1.0])]),
            ),
            (
                "references benchmark 5",
                two_bench(&[(&[0], &[1.0]), (&[0, 5], &[1.0, 1.0]), (&[1], &[2.0])]),
            ),
            // Enough bytes after the empty combo for the count bound.
            (
                "size 0",
                two_bench(&[
                    (&[0], &[1.0]),
                    (&[], &[]),
                    (&[0, 0], &[1.0, 1.0]),
                    (&[1], &[2.0]),
                    (&[1, 1], &[1.0, 1.0]),
                ]),
            ),
            (
                "size 3",
                two_bench(&[(&[0], &[1.0]), (&[0, 0, 0], &[1.0, 1.0, 1.0])]),
            ),
            (
                "no size-1",
                two_bench(&[(&[0], &[1.0]), (&[0, 1], &[1.0, 1.0])]),
            ),
            ("disagrees", two_bench(&[(&[0], &[1.5]), (&[1], &[2.0])])),
        ];
        for (want, bytes) in cases {
            let msg = format_error(&bytes);
            assert!(msg.contains(want), "{want:?} not in {msg:?}");
        }
    }

    /// Counts no file of this length can hold are format errors, checked
    /// before anything is allocated for them.
    #[test]
    fn hostile_counts_rejected_before_allocating() {
        let mut combos = header(1, 1);
        combos.str("a");
        combos.f64(1.0);
        combos.u64(1 << 40);
        let combos = combos.seal();
        assert_eq!(combos.len(), 49);
        assert!(format_error(&combos).contains("combo count"));

        let benches = header(1, u32::MAX).seal();
        assert!(format_error(&benches).contains("benchmark count"));
    }

    /// Seeded mutations of a valid file, each re-sealed so the checksum
    /// cannot catch it: bit flips, truncations and inflated counts must
    /// each fail as a [`TableError::Format`] or load a table that encodes
    /// back to exactly the mutated bytes; none may panic.
    #[test]
    fn resealed_mutations_never_panic_the_decoder() {
        let table = tiny_table();
        let bytes = table.to_bytes();
        let payload = bytes.len() - 8;
        // Offsets of the `u32` benchmark count and the `u64` combo count.
        let bench_count = MAGIC.len() + 8;
        let combo_count = table
            .names()
            .iter()
            .fold(bench_count + 4, |at, name| at + 4 + name.len() + 8);
        let mut rng = symbiosis::rng::SplitMix64::new(0x5917_5917);
        for round in 0..3_000 {
            let mut mutated = bytes.clone();
            match round % 3 {
                0 => {
                    let bit = rng.next_range(payload as u64 * 8) as usize;
                    mutated[bit / 8] ^= 1 << (bit % 8);
                }
                1 => {
                    mutated.truncate(rng.next_range(payload as u64) as usize);
                    mutated.extend_from_slice(&[0; 8]);
                }
                _ => {
                    let (at, width) = [(bench_count, 4), (combo_count, 8)][round % 2];
                    let mut word = [0u8; 8];
                    word[..width].copy_from_slice(&mutated[at..at + width]);
                    let inflated =
                        u64::from_le_bytes(word).wrapping_add(1 + rng.next_range(1 << 40));
                    mutated[at..at + width].copy_from_slice(&inflated.to_le_bytes()[..width]);
                }
            }
            reseal(&mut mutated);
            match PerfTable::from_bytes(&mutated) {
                Ok(loaded) => assert_eq!(loaded.to_bytes(), mutated, "round {round}"),
                Err(e) => assert!(matches!(e, TableError::Format(_)), "round {round}: {e}"),
            }
        }
    }

    #[test]
    fn store_cold_builds_then_warm_loads() {
        let dir = temp_dir("coldwarm");
        let store = TableStore::new(&dir);
        let cfg = tiny_config();
        let suite = tiny_suite();
        let cold = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(!cold.cache_hit, "first run must simulate");
        assert!(store.path_for(&cfg, &suite).exists());
        let warm = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(warm.cache_hit, "second run must skip PerfTable::build");
        assert_eq!(cold.table, warm.table, "cache must be bitwise faithful");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_distinguishes_configs_and_suites() {
        let suite = tiny_suite();
        let cfg = tiny_config();
        let fp = table_fingerprint(&cfg, &suite);
        // Different windows, topology or suite size change the key.
        assert_ne!(
            fp,
            table_fingerprint(&cfg.clone().with_windows(2_000, 3_000), &suite)
        );
        assert_ne!(
            fp,
            table_fingerprint(
                &MachineConfig::quadcore().with_windows(1_000, 3_000),
                &suite
            )
        );
        assert_ne!(fp, table_fingerprint(&cfg, &suite[..2]));
        // Same inputs, same key (stability within a process is the minimum;
        // FNV gives stability across runs and platforms too).
        assert_eq!(fp, table_fingerprint(&tiny_config(), &tiny_suite()));
    }

    #[test]
    fn content_fingerprint_round_trips_through_the_store() {
        let dir = temp_dir("content");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let fp = store.save_content(&table).unwrap();
        assert_eq!(fp, table.content_fingerprint());
        let loaded = store.load_content(fp).unwrap();
        assert_eq!(table, loaded, "content cache must be bitwise faithful");
        assert_eq!(loaded.content_fingerprint(), fp);
        // A different table never answers for this fingerprint.
        assert!(store.load_content(fp ^ 1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabelled_content_file_reads_as_a_miss() {
        let dir = temp_dir("mislabel");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let fp = store.save_content(&table).unwrap();
        // A valid table file stored under the wrong fingerprint must not be
        // trusted: the re-verification catches the mismatch.
        let wrong = fp ^ 0xDEAD;
        std::fs::copy(store.path_for_content(fp), store.path_for_content(wrong)).unwrap();
        assert!(store.load_content(wrong).is_none());
        // Corruption likewise reads as a miss, not an error.
        std::fs::write(store.path_for_content(fp), b"torn").unwrap();
        assert!(store.load_content(fp).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_atomic_writers_never_produce_a_torn_read() {
        let dir = temp_dir("atomic");
        let store = TableStore::new(&dir);
        let table = tiny_table();
        let bytes = table.to_bytes();
        let path = store.path_for_content(table.content_fingerprint());
        // Hammer the same path from several writers while readers poll: a
        // reader may see "no file yet", but never a torn or partial table.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        store.write_atomic(&path, &bytes).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut seen = 0;
                    while seen < 50 {
                        match std::fs::read(&path) {
                            Ok(buf) => {
                                let loaded = PerfTable::from_bytes(&buf)
                                    .expect("a visible file is always complete");
                                assert_eq!(loaded, table);
                                seen += 1;
                            }
                            Err(_) => std::hint::spin_loop(),
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_is_rebuilt() {
        let dir = temp_dir("rebuild");
        let store = TableStore::new(&dir);
        let cfg = tiny_config();
        let suite = tiny_suite();
        let cold = store.get_or_build(&cfg, &suite, 4).unwrap();
        let path = store.path_for(&cfg, &suite);
        std::fs::write(&path, b"garbage").unwrap();
        let rebuilt = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(!rebuilt.cache_hit, "corrupt file must trigger a rebuild");
        assert_eq!(cold.table, rebuilt.table);
        // And the rebuild repaired the cache.
        let warm = store.get_or_build(&cfg, &suite, 4).unwrap();
        assert!(warm.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
