//! Physical operators and the executor.
//!
//! The executor materializes operator outputs (vectors of
//! [`AnnotatedTuple`]); all "disk" cost flows through the shared
//! [`instn_storage::IoStats`], so the benchmark harness can report simulated
//! I/O next to wall time. Implemented operators:
//!
//! * sequential scan (with or without summary propagation),
//! * Summary-BTree index scan (equality / range, in count order — the
//!   *interesting order* the optimizer exploits),
//! * baseline-scheme index scan (with its extra join indirection, and the
//!   optional propagate-from-normalized mode of Figure 12),
//! * data filter σ / summary selection `S` (one physical node — the
//!   distinction is logical), summary object filter `F`,
//! * projection with annotation-effect elimination (Fig. 3 step 1),
//! * block nested-loop join and index join, both merging summary sets with
//!   common-annotation de-duplication,
//! * in-memory and external (spilling) sort, data- or summary-keyed,
//! * group-by with COUNT(*) and summary merging, and LIMIT,
//! * exchange/gather: a morsel-driven parallel section (scan → filters →
//!   partial aggregation across a crossbeam-scoped worker pool) feeding the
//!   serial pipeline above it. See [`ExecConfig`] and
//!   [`PhysicalPlan::Exchange`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use instn_core::algebra::{merge_summary_sets, project_eliminate, SummaryFold};
use instn_core::db::Database;
use instn_core::summary::{decode_objects, encode_objects, SummaryObject};
use instn_core::{AnnotatedTuple, CoreError};
use instn_index::{BaselineIndex, MaintainableIndex, SummaryBTree};
use instn_storage::io::IoStats;
use instn_storage::tuple::{decode_tuple, encode_tuple};
use instn_storage::{HeapFile, TableId, Value};

use crate::dataindex::ColumnIndex;
use crate::expr::{Expr, ObjectPred};
use crate::plan::{JoinPredicate, SortKey};
use crate::{QueryError, Result};

/// Tuples per block for the block nested-loop join (the inner plan is
/// re-executed once per block, like a block NL join re-reads the inner
/// relation per buffer-full of outer tuples).
pub const NL_BLOCK_SIZE: usize = 1024;

/// Default in-memory sort budget (tuples); larger inputs spill to runs.
pub const DEFAULT_SORT_MEM: usize = 10_000;

/// Default morsel size (tuples per work-queue unit) for parallel sections.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Degree of parallelism to use when none is configured: the `INSTN_DOP`
/// environment variable if set (minimum 1), else the available cores.
pub fn default_dop() -> usize {
    static DOP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DOP.get_or_init(|| {
        if let Ok(v) = std::env::var("INSTN_DOP") {
            if let Ok(n) = v.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Executor tuning knobs, carried by every [`ExecContext`].
///
/// Only [`PhysicalPlan::Exchange`] sections consult these — plans without an
/// Exchange node run the serial pipeline untouched, whatever `dop` says, so
/// existing plans stay bit-identical. An Exchange with `dop: 0` inherits
/// `ExecConfig::dop` at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Workers per parallel section (1 = serial delegation, bit-identical
    /// to the plan without the Exchange node).
    pub dop: usize,
    /// Tuples per morsel pulled from the shared work queue.
    pub morsel_rows: usize,
    /// Simulated disk stall slept once per processed morsel. Zero (the
    /// default) in normal operation; the benchmark harness sets it so
    /// single-core hosts exhibit the overlap a disk-bound multi-spindle
    /// testbed would. Any non-zero stall forces the morsel path even at
    /// DOP 1 so sweeps compare like against like.
    pub io_stall: Duration,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self {
            dop: default_dop(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            io_stall: Duration::ZERO,
        }
    }
}

/// The physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential scan of a base table.
    SeqScan {
        /// The table.
        table: TableId,
        /// Whether to propagate summaries (read SummaryStorage rows).
        with_summaries: bool,
    },
    /// Summary-BTree range scan; output arrives in ascending count order of
    /// the probed label.
    SummaryIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Reverse the (ascending) index order.
        reverse: bool,
    },
    /// Baseline-scheme index scan (extra joins to reach the data).
    BaselineIndexScan {
        /// Registered index name.
        index: String,
        /// Classifier label to probe.
        label: String,
        /// Inclusive lower count bound.
        lo: Option<u64>,
        /// Inclusive upper count bound.
        hi: Option<u64>,
        /// Whether to propagate summaries.
        propagate: bool,
        /// Propagate by re-assembling objects from the normalized replica
        /// (the Figure 12 comparison) instead of reading SummaryStorage.
        from_normalized: bool,
    },
    /// Data-column B-Tree range scan over a registered [`ColumnIndex`],
    /// in key order. NULL rows never qualify: SQL comparisons are not
    /// satisfied by NULL, so the scan skips the NULL key band entirely.
    DataIndexScan {
        /// The table.
        table: TableId,
        /// The indexed column (must be registered in the context).
        col: usize,
        /// Lower bound on the column value.
        lo: Option<Value>,
        /// Upper bound on the column value.
        hi: Option<Value>,
        /// Exclude the lower bound itself (`>` instead of `>=`).
        lo_strict: bool,
        /// Exclude the upper bound itself (`<` instead of `<=`).
        hi_strict: bool,
        /// Whether to propagate summaries.
        with_summaries: bool,
    },
    /// Tuple filter: evaluates any predicate (data σ or summary `S`).
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate.
        pred: Expr,
    },
    /// Summary object filter `F`: keeps only matching objects per tuple.
    SummaryObjectFilter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Object predicate.
        pred: ObjectPred,
    },
    /// Projection. When `eliminate` is set the kept columns are positions in
    /// the *base relation* and dropped-annotation effects are removed
    /// (planners set it only directly above base-relation-shaped inputs).
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Kept columns (input positions, output order).
        cols: Vec<usize>,
        /// Eliminate dropped annotations' effects from summaries.
        eliminate: bool,
    },
    /// Block nested-loop join (re-executes the inner per outer block).
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (re-executed per block).
        right: Box<PhysicalPlan>,
        /// Join predicate.
        pred: JoinPredicate,
    },
    /// Index join: probes a column index on the inner table per outer tuple.
    IndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner table.
        right_table: TableId,
        /// Outer join column.
        left_col: usize,
        /// Inner join column (must be indexed in the context).
        right_col: usize,
        /// Residual predicate applied after the index probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Index-based summary join (the paper's second `J` implementation,
    /// §5.2): for each outer tuple, evaluate the left summary expression
    /// and probe a Summary-BTree on the inner table for tuples whose label
    /// count matches.
    SummaryIndexJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Summary expression evaluated on each outer tuple; its integer
        /// value is the probe key.
        left_key: crate::expr::SummaryExpr,
        /// Registered Summary-BTree over the inner table's instance.
        index: String,
        /// The probed classifier label.
        label: String,
        /// Residual predicate applied after the probe.
        residual: Option<JoinPredicate>,
        /// Whether inner tuples carry summaries.
        with_summaries: bool,
    },
    /// Sort, in-memory or external.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort key (data column or summary expression — the `O` operator).
        key: SortKey,
        /// Descending order.
        desc: bool,
        /// Force the external (spilling) algorithm.
        disk: bool,
    },
    /// Group-by over column values: output = group cols + COUNT(*), with
    /// summaries merged across group members.
    GroupBy {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns (input positions).
        cols: Vec<usize>,
    },
    /// Duplicate elimination: tuples with equal data values collapse into
    /// one output tuple whose summary set is the merge of the duplicates'
    /// sets (the summary-aware DISTINCT of §2.2).
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
    /// LIMIT n.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Exchange/gather boundary: the input fragment (scan → filters →
    /// optional group-by — see [`parallel_fragment_shape`]) runs across a
    /// morsel-driven worker pool; this node gathers worker output (in morsel
    /// order, so results match the serial pipeline row for row) and feeds
    /// the serial operators above. With an effective DOP of 1 the fragment
    /// is delegated to the ordinary serial operators, bit-identically.
    Exchange {
        /// The parallel fragment.
        input: Box<PhysicalPlan>,
        /// Worker count; `0` inherits [`ExecConfig::dop`] at open.
        dop: usize,
    },
}

impl PhysicalPlan {
    /// One-line description of this node alone (no children) — the line
    /// EXPLAIN prints for it, and the label [`OpMetrics`] reports under.
    pub fn head(&self) -> String {
        match self {
            PhysicalPlan::SeqScan {
                table,
                with_summaries,
            } => format!(
                "SeqScan(table#{}{})",
                table.0,
                if *with_summaries { ", +summaries" } else { "" }
            ),
            PhysicalPlan::SummaryIndexScan {
                index,
                label,
                lo,
                hi,
                reverse,
                ..
            } => format!(
                "SummaryIndexScan({index}, {label} in [{}, {}]{})",
                lo.map(|v| v.to_string()).unwrap_or_else(|| "-∞".into()),
                hi.map(|v| v.to_string()).unwrap_or_else(|| "+∞".into()),
                if *reverse { ", desc" } else { "" }
            ),
            PhysicalPlan::BaselineIndexScan {
                index,
                label,
                from_normalized,
                ..
            } => format!(
                "BaselineIndexScan({index}, {label}{})",
                if *from_normalized {
                    ", propagate-from-normalized"
                } else {
                    ""
                }
            ),
            PhysicalPlan::DataIndexScan {
                table,
                col,
                lo,
                hi,
                lo_strict,
                hi_strict,
                ..
            } => {
                let mut bounds = String::new();
                if let Some(v) = lo {
                    bounds.push_str(&format!(", {} {v:?}", if *lo_strict { ">" } else { ">=" }));
                }
                if let Some(v) = hi {
                    bounds.push_str(&format!(", {} {v:?}", if *hi_strict { "<" } else { "<=" }));
                }
                format!("DataIndexScan(table#{}.col{col}{bounds})", table.0)
            }
            PhysicalPlan::Filter { .. } => "Filter(σ/S)".into(),
            PhysicalPlan::SummaryObjectFilter { .. } => "SummaryObjectFilter(F)".into(),
            PhysicalPlan::Project {
                cols, eliminate, ..
            } => format!(
                "Project(π {cols:?}{})",
                if *eliminate { ", eliminate" } else { "" }
            ),
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin(block)".into(),
            PhysicalPlan::IndexJoin {
                right_table,
                right_col,
                ..
            } => format!("IndexJoin(table#{}.col{right_col})", right_table.0),
            PhysicalPlan::SummaryIndexJoin { index, label, .. } => {
                format!("SummaryIndexJoin(J via {index} on {label})")
            }
            PhysicalPlan::Sort {
                key, desc, disk, ..
            } => format!(
                "Sort({}{}{})",
                if key.is_summary() { "O" } else { "data" },
                if *desc { ", desc" } else { "" },
                if *disk { ", external" } else { ", in-memory" }
            ),
            PhysicalPlan::GroupBy { cols, .. } => format!("GroupBy({cols:?})"),
            PhysicalPlan::Distinct { .. } => "Distinct(δ)".into(),
            PhysicalPlan::Limit { n, .. } => format!("Limit({n})"),
            PhysicalPlan::Exchange { dop, .. } => {
                if *dop == 0 {
                    "Exchange(gather, dop=auto)".into()
                } else {
                    format!("Exchange(gather, dop={dop})")
                }
            }
        }
    }

    /// Child subtrees in display order (outer before inner).
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. }
            | PhysicalPlan::BaselineIndexScan { .. }
            | PhysicalPlan::DataIndexScan { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::SummaryObjectFilter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::GroupBy { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Exchange { input, .. } => vec![input],
            PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::IndexJoin { left, .. } | PhysicalPlan::SummaryIndexJoin { left, .. } => {
                vec![left]
            }
        }
    }

    fn fmt_indent(&self, f: &mut std::fmt::Formatter<'_>, indent: usize) -> std::fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.head())?;
        for child in self.children() {
            child.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for PhysicalPlan {
    /// EXPLAIN-style tree rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_indent(f, 0)
    }
}

/// The indexes a session owns across queries. A context borrows the
/// database for one query at a time, but indexes are expensive to build and
/// live longer than any single borrow — `Session` (see [`crate::session`])
/// moves a registry into a short-lived context, runs queries, and takes the
/// registry back when the read guard drops.
#[derive(Default)]
pub struct IndexRegistry {
    pub(crate) summary: HashMap<String, SummaryBTree>,
    pub(crate) baseline: HashMap<String, BaselineIndex>,
    pub(crate) column: HashMap<(TableId, usize), ColumnIndex>,
}

impl IndexRegistry {
    /// Registered indexes across all three kinds.
    pub fn len(&self) -> usize {
        self.summary.len() + self.baseline.len() + self.column.len()
    }

    /// A registered Summary-BTree, by name.
    pub fn summary_index(&self, name: &str) -> Option<&SummaryBTree> {
        self.summary.get(name)
    }

    /// A registered baseline index, by name.
    pub fn baseline_index(&self, name: &str) -> Option<&BaselineIndex> {
        self.baseline.get(name)
    }

    /// A registered data-column index.
    pub fn column_index(&self, table: TableId, col: usize) -> Option<&ColumnIndex> {
        self.column.get(&(table, col))
    }

    /// Whether no index is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Work performed by one index-maintenance pass at plan open (the
/// `maintenance:` section of EXPLAIN ANALYZE).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Registered indexes examined.
    pub indexes_checked: u64,
    /// Indexes already stamped at the current revision (no work).
    pub indexes_fresh: u64,
    /// Stale-stamped indexes whose table's high-water mark proved untouched:
    /// re-stamped with zero maintenance work.
    pub indexes_skipped: u64,
    /// Indexes caught up by replaying the journal gap.
    pub indexes_replayed: u64,
    /// Individual journal changes folded into replayed indexes.
    pub deltas_applied: u64,
    /// Indexes bulk-rebuilt because the journal was truncated past their
    /// gap or replay was estimated costlier than a fresh build.
    pub indexes_rebuilt: u64,
    /// Rebuilds forced mid-replay (key-width growth, structural change).
    pub forced_rebuilds: u64,
    /// Registrations dropped because their summary instance no longer
    /// exists (an `ALTER TABLE … DROP` landed since the index was built).
    pub indexes_evicted: u64,
    /// Physical page transfers charged to the whole pass.
    pub physical_io: u64,
    /// Logical page accesses charged to the whole pass.
    pub logical_io: u64,
}

impl MaintenanceReport {
    /// Whether the pass did any index work at all (skips are free).
    pub fn did_work(&self) -> bool {
        self.indexes_replayed + self.indexes_rebuilt + self.forced_rebuilds > 0
    }

    /// Render as the indented `maintenance:` block of EXPLAIN ANALYZE.
    pub fn render(&self) -> String {
        let mut out = String::from("maintenance:\n");
        out.push_str(&format!(
            "  indexes: {} checked, {} fresh, {} skipped (untouched table), {} replayed, {} rebuilt\n",
            self.indexes_checked,
            self.indexes_fresh,
            self.indexes_skipped,
            self.indexes_replayed,
            self.indexes_rebuilt + self.forced_rebuilds,
        ));
        out.push_str(&format!(
            "  replay: {} deltas applied; io: {} physical, {} logical\n",
            self.deltas_applied, self.physical_io, self.logical_io,
        ));
        if self.indexes_evicted > 0 {
            out.push_str(&format!(
                "  evicted: {} (instance dropped)\n",
                self.indexes_evicted
            ));
        }
        out
    }
}

/// Replay beats a bulk rebuild when the gap is small relative to the
/// table: one replayed change costs a few B-Tree node touches, a rebuild
/// scans the whole summary storage / heap and re-sorts every key. The
/// optimizer's `CostModel::refresh_cost` (in `instn-opt`) prices the same
/// trade in io/cpu units; this is the executor's dimensionless mirror of
/// it, kept inline because `instn-query` cannot depend on `instn-opt`.
pub(crate) const REPLAY_CHANGE_FACTOR: u64 = 4;

/// Whether replaying `gap_changes` journal changes is estimated cheaper
/// than bulk-rebuilding an index over a table of `table_rows` rows.
pub(crate) fn replay_cheaper(gap_changes: u64, table_rows: u64) -> bool {
    gap_changes.saturating_mul(REPLAY_CHANGE_FACTOR) <= table_rows.max(16)
}

/// Catch one index up with the database: skip if its table is untouched,
/// replay the journal gap when possible and cheap, bulk rebuild otherwise.
///
/// Returns `Ok(false)` when the index's summary instance no longer exists
/// (an `ALTER TABLE … DROP` landed since it was built) — the registration
/// is unsalvageable and the caller must evict it.
fn refresh_index<I: MaintainableIndex>(
    db: &Database,
    idx: &mut I,
    report: &mut MaintenanceReport,
) -> Result<bool> {
    let rev = db.revision();
    report.indexes_checked += 1;
    let built = idx.built_revision();
    if built == rev {
        report.indexes_fresh += 1;
        return Ok(true);
    }
    let journal = db.journal();
    let table = idx.table();
    if journal.table_high_water(table) <= built {
        // Nothing touched this table since the index was built: the stamp
        // alone advances. This is the zero-work case the per-table
        // high-water marks exist for.
        idx.mark_synced(rev);
        report.indexes_skipped += 1;
        return Ok(true);
    }
    let table_rows = db.table(table)?.len() as u64;
    let replayable = journal
        .gap_changes(built, table)
        .is_some_and(|gap| replay_cheaper(gap, table_rows));
    if !replayable {
        return match idx.bulk_rebuild(db) {
            Ok(()) => {
                report.indexes_rebuilt += 1;
                Ok(true)
            }
            Err(CoreError::InstanceNotFound(_)) => {
                report.indexes_evicted += 1;
                Ok(false)
            }
            Err(e) => Err(e.into()),
        };
    }
    let mut rebuilt_mid_replay = false;
    for entry in journal
        .replay_range(built)
        .expect("gap verified replayable")
    {
        if !entry.touches(table) {
            continue;
        }
        match idx.apply_entry(db, entry) {
            Ok(out) => {
                report.deltas_applied += out.changes_applied;
                if out.rebuilt {
                    // The rebuild reflects the current state; later entries
                    // are already in and replaying them would double-apply.
                    report.forced_rebuilds += 1;
                    rebuilt_mid_replay = true;
                    break;
                }
            }
            // A structural entry whose forced rebuild finds the instance
            // gone: the registration points at a dropped instance.
            Err(CoreError::InstanceNotFound(_)) => {
                report.indexes_evicted += 1;
                return Ok(false);
            }
            Err(e) => return Err(e.into()),
        }
    }
    if !rebuilt_mid_replay {
        idx.mark_synced(rev);
        report.indexes_replayed += 1;
    }
    Ok(true)
}

/// Execution context: the database plus registered indexes.
pub struct ExecContext<'a> {
    /// The engine.
    pub db: &'a Database,
    summary_indexes: HashMap<String, SummaryBTree>,
    baseline_indexes: HashMap<String, BaselineIndex>,
    column_indexes: HashMap<(TableId, usize), ColumnIndex>,
    /// In-memory sort budget in tuples; larger sorts spill.
    pub sort_mem: usize,
    /// Parallel-execution knobs consulted by [`PhysicalPlan::Exchange`].
    pub config: ExecConfig,
    /// What the most recent [`ExecContext::refresh_stale_indexes`] pass did.
    last_maintenance: MaintenanceReport,
    /// Span collector for the current query, when the driver asked for one
    /// (see [`Session::execute_observed`](crate::session::Session));
    /// `execute_with_metrics` adds refresh/execute spans and imports the
    /// finished `OpMetrics` tree as per-operator child spans.
    pub trace: Option<instn_obs::QueryTrace>,
}

impl<'a> ExecContext<'a> {
    /// A context with no registered indexes.
    pub fn new(db: &'a Database) -> Self {
        Self {
            db,
            summary_indexes: HashMap::new(),
            baseline_indexes: HashMap::new(),
            column_indexes: HashMap::new(),
            sort_mem: DEFAULT_SORT_MEM,
            config: ExecConfig::default(),
            last_maintenance: MaintenanceReport::default(),
            trace: None,
        }
    }

    /// A context serving a previously accumulated index registry.
    pub fn with_registry(db: &'a Database, registry: IndexRegistry) -> Self {
        let mut ctx = Self::new(db);
        ctx.install_registry(registry);
        ctx
    }

    /// Move every registered index out of this context, leaving it empty.
    pub fn take_registry(&mut self) -> IndexRegistry {
        IndexRegistry {
            summary: std::mem::take(&mut self.summary_indexes),
            baseline: std::mem::take(&mut self.baseline_indexes),
            column: std::mem::take(&mut self.column_indexes),
        }
    }

    /// Adopt a registry's indexes (replacing same-named registrations).
    pub fn install_registry(&mut self, registry: IndexRegistry) {
        self.summary_indexes.extend(registry.summary);
        self.baseline_indexes.extend(registry.baseline);
        self.column_indexes.extend(registry.column);
    }

    /// A planner-oriented snapshot of the indexes installed in this
    /// context (names and targets only) — what seeds `PlannerConfig` when
    /// planning inside an already-open context (EXPLAIN ANALYZE).
    pub fn index_descriptors(&self) -> crate::session::IndexDescriptors {
        let mut d = crate::session::IndexDescriptors::default();
        for (name, idx) in &self.summary_indexes {
            d.summary
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        for (name, idx) in &self.baseline_indexes {
            d.baseline
                .push((name.clone(), idx.table(), idx.instance_name().to_string()));
        }
        d.column = self.column_indexes.keys().copied().collect();
        d.summary.sort();
        d.baseline.sort();
        d.column.sort();
        d
    }

    /// Catch every registered index up with the database's revision.
    ///
    /// An index registration outlives the mutations that happen around it;
    /// without this check a scan over a stale tree silently returns
    /// pre-mutation rows (deleted tuples resurface, inserts are invisible).
    /// Runs at every plan open. Per index, in order of preference:
    ///
    /// 1. fresh stamp → nothing,
    /// 2. table high-water mark `<= built_revision` → re-stamp, zero work
    ///    (a mutation elsewhere cannot invalidate this index),
    /// 3. journal gap `(built_revision, current]` retained and small →
    ///    replay it delta by delta ([`MaintainableIndex::apply_entry`]),
    /// 4. otherwise (journal truncated past the gap, or replay estimated
    ///    costlier than a fresh build) → bulk rebuild.
    ///
    /// The pass's work is recorded in the [`MaintenanceReport`] available
    /// from [`ExecContext::maintenance_report`] (EXPLAIN ANALYZE's
    /// `maintenance:` section).
    pub fn refresh_stale_indexes(&mut self) -> Result<()> {
        let mut report = MaintenanceReport::default();
        let before = self.db.stats().snapshot();
        let mut dead_summary = Vec::new();
        for (name, idx) in self.summary_indexes.iter_mut() {
            if !refresh_index(self.db, idx, &mut report)? {
                dead_summary.push(name.clone());
            }
        }
        for name in dead_summary {
            self.summary_indexes.remove(&name);
        }
        let mut dead_baseline = Vec::new();
        for (name, idx) in self.baseline_indexes.iter_mut() {
            if !refresh_index(self.db, idx, &mut report)? {
                dead_baseline.push(name.clone());
            }
        }
        for name in dead_baseline {
            self.baseline_indexes.remove(&name);
        }
        for idx in self.column_indexes.values_mut() {
            // Column indexes reference no summary instance; eviction
            // cannot trigger.
            refresh_index(self.db, idx, &mut report)?;
        }
        let spent = self.db.stats().snapshot().since(&before);
        report.physical_io = spent.total();
        report.logical_io = spent.logical_total();
        self.last_maintenance = report;
        // Publish the refresh ladder's decisions (replay vs rebuild vs
        // skip, and how many journal deltas were folded in) so `\metrics`
        // can show maintenance behavior across sessions. Registration is
        // idempotent; the lock here is per plan open, off the row path.
        let obs = self.db.metrics();
        if obs.is_enabled() && report.indexes_checked > 0 {
            obs.counter(
                "index_refresh_replays_total",
                "Indexes caught up by replaying the journal gap",
            )
            .add(report.indexes_replayed);
            obs.counter(
                "index_refresh_rebuilds_total",
                "Indexes bulk-rebuilt (journal truncated, replay costlier, or forced mid-replay)",
            )
            .add(report.indexes_rebuilt + report.forced_rebuilds);
            obs.counter(
                "index_refresh_skips_total",
                "Stale-stamped indexes re-stamped with zero work (table untouched)",
            )
            .add(report.indexes_skipped);
            obs.counter(
                "index_refresh_deltas_total",
                "Journal changes folded into replayed indexes",
            )
            .add(report.deltas_applied);
            obs.counter(
                "index_refresh_evictions_total",
                "Registrations dropped because their instance no longer exists",
            )
            .add(report.indexes_evicted);
        }
        Ok(())
    }

    /// What the most recent maintenance pass did (set by
    /// [`ExecContext::refresh_stale_indexes`] at every plan open).
    pub fn maintenance_report(&self) -> MaintenanceReport {
        self.last_maintenance
    }

    /// Register a Summary-BTree under a name.
    pub fn register_summary_index(&mut self, name: &str, index: SummaryBTree) {
        self.summary_indexes.insert(name.to_string(), index);
    }

    /// Register a baseline-scheme index under a name.
    pub fn register_baseline_index(&mut self, name: &str, index: BaselineIndex) {
        self.baseline_indexes.insert(name.to_string(), index);
    }

    /// Register a data-column index.
    pub fn register_column_index(&mut self, index: ColumnIndex) {
        self.column_indexes
            .insert((index.table(), index.column()), index);
    }

    /// Whether a Summary-BTree is registered under `name`.
    pub fn has_summary_index(&self, name: &str) -> bool {
        self.summary_indexes.contains_key(name)
    }

    /// Whether a column index exists on `(table, col)`.
    pub fn has_column_index(&self, table: TableId, col: usize) -> bool {
        self.column_indexes.contains_key(&(table, col))
    }

    /// Borrow a registered Summary-BTree.
    pub fn summary_index(&self, name: &str) -> Option<&SummaryBTree> {
        self.summary_indexes.get(name)
    }

    /// Execute a physical plan to completion, materializing its output.
    ///
    /// Runs the pull-based pipeline underneath: the plan is compiled to a
    /// tree of operators which is opened, drained, and closed.
    pub fn execute(&mut self, plan: &PhysicalPlan) -> Result<Vec<AnnotatedTuple>> {
        Ok(self.execute_with_metrics(plan)?.0)
    }

    /// Execute a plan and also return per-operator runtime counters (rows
    /// emitted, open count, I/O charged) — the EXPLAIN ANALYZE payload.
    pub fn execute_with_metrics(
        &mut self,
        plan: &PhysicalPlan,
    ) -> Result<(Vec<AnnotatedTuple>, OpMetrics)> {
        let refresh_span = self.trace.as_mut().map(|t| t.begin("index-refresh"));
        self.refresh_stale_indexes()?;
        if let Some(id) = refresh_span {
            let m = self.last_maintenance;
            if let Some(t) = self.trace.as_mut() {
                t.end_with_io(id, m.logical_io, m.physical_io);
            }
        }
        let exec_span = self.trace.as_mut().map(|t| t.begin("execute"));
        let mut root = compile(plan);
        root.open(self)?;
        let mut out = Vec::new();
        while let Some(t) = root.next(self)? {
            out.push(t);
        }
        root.close(self)?;
        let metrics = root.metrics();
        if let (Some(id), Some(t)) = (exec_span, self.trace.as_mut()) {
            t.end_with_io(id, metrics.logical_io, metrics.physical_io);
            metrics.attach_spans(t, Some(id));
        }
        Ok((out, metrics))
    }

    /// Open a plan as a pull stream without draining it. The caller pulls
    /// tuples one at a time with [`TupleStream::next_tuple`] and may stop
    /// early; no I/O happens beyond what the pulled tuples require.
    pub fn open_stream<'c>(&'c mut self, plan: &PhysicalPlan) -> Result<TupleStream<'c, 'a>> {
        self.refresh_stale_indexes()?;
        let mut root = compile(plan);
        root.open(self)?;
        Ok(TupleStream {
            ctx: self,
            root,
            done: false,
        })
    }

    fn table_of_baseline(&self, index: &str) -> Result<TableId> {
        let idx = self
            .baseline_indexes
            .get(index)
            .ok_or_else(|| QueryError::UnknownIndex(index.to_string()))?;
        // Find the table with this instance linked.
        for (tid, _) in self.db_tables() {
            if self.db.instance_by_name(tid, idx.instance_name()).is_ok() {
                return Ok(tid);
            }
        }
        Err(QueryError::UnknownIndex(index.to_string()))
    }

    fn db_tables(&self) -> Vec<(TableId, String)> {
        // The catalog enumerates tables densely from 0.
        let mut out = Vec::new();
        let mut i = 0u32;
        while let Ok(t) = self.db.table(TableId(i)) {
            out.push((TableId(i), t.name().to_string()));
            i += 1;
        }
        out
    }
}

/// A live, pull-based execution of a plan (see [`ExecContext::open_stream`]).
pub struct TupleStream<'c, 'a> {
    ctx: &'c mut ExecContext<'a>,
    root: OpNode,
    done: bool,
}

impl TupleStream<'_, '_> {
    /// Pull the next output tuple, or `None` once the plan is exhausted.
    pub fn next_tuple(&mut self) -> Result<Option<AnnotatedTuple>> {
        if self.done {
            return Ok(None);
        }
        let t = self.root.next(self.ctx)?;
        if t.is_none() {
            self.done = true;
        }
        Ok(t)
    }

    /// Snapshot of the per-operator counters accumulated so far.
    pub fn metrics(&self) -> OpMetrics {
        self.root.metrics()
    }

    /// Close the pipeline, releasing operator state, and return the final
    /// counters.
    pub fn close(mut self) -> Result<OpMetrics> {
        self.root.close(self.ctx)?;
        Ok(self.root.metrics())
    }
}

/// Per-operator runtime counters, mirroring the plan tree.
///
/// I/O counters are *inclusive* of children (like PostgreSQL's
/// `EXPLAIN (ANALYZE, BUFFERS)`): a parent's pulls charge everything its
/// subtree did while producing those tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMetrics {
    /// Operator label (the plan node's EXPLAIN line).
    pub label: String,
    /// Tuples this operator emitted.
    pub rows: u64,
    /// Times the operator was opened (the block NL join re-opens its inner).
    pub opens: u64,
    /// Physical page transfers charged while this subtree ran.
    pub physical_io: u64,
    /// Logical page accesses charged while this subtree ran.
    pub logical_io: u64,
    /// Child operators in display order.
    pub children: Vec<OpMetrics>,
    /// Per-worker breakdown of this operator (non-empty only for Exchange
    /// nodes that actually ran parallel): one entry per worker with its own
    /// rows / morsels (in `opens`) / I/O. The aggregate counters above are
    /// the associative merge of these.
    pub workers: Vec<OpMetrics>,
}

impl OpMetrics {
    /// Indented per-operator report for EXPLAIN ANALYZE.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    /// Associative, commutative-in-counters merge of two metric trees with
    /// the same shape: counters add component-wise, children zip-merge
    /// (extra children on `other` are appended). This is how per-worker
    /// metrics of a parallel fragment combine into the aggregate row
    /// without double-counting — inclusive I/O adds exactly once per
    /// worker because each worker charged a disjoint counter stripe.
    pub fn merge(&mut self, other: &OpMetrics) {
        self.rows += other.rows;
        self.opens += other.opens;
        self.physical_io += other.physical_io;
        self.logical_io += other.logical_io;
        let overlap = self.children.len().min(other.children.len());
        for (c, oc) in self.children[..overlap]
            .iter_mut()
            .zip(&other.children[..overlap])
        {
            c.merge(oc);
        }
        for oc in other.children.iter().skip(overlap) {
            self.children.push(oc.clone());
        }
    }

    /// Import this metrics tree into a [`instn_obs::QueryTrace`] as
    /// per-operator child spans under `parent`. Operator counters carry no
    /// wall-clock of their own (the executor charges I/O, not time, per
    /// node), so imported spans report inclusive I/O with zero wall;
    /// per-worker Exchange breakdowns attach as `worker-N` children.
    fn attach_spans(&self, trace: &mut instn_obs::QueryTrace, parent: Option<u64>) {
        let id = trace.attach(parent, &self.label, 0, self.logical_io, self.physical_io);
        for (i, w) in self.workers.iter().enumerate() {
            trace.attach(
                Some(id),
                &format!("worker-{i} ({})", w.label),
                0,
                w.logical_io,
                w.physical_io,
            );
        }
        for c in &self.children {
            c.attach_spans(trace, Some(id));
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(indent);
        let loops = if self.opens > 1 {
            format!(", loops={}", self.opens)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{pad}{} (rows={}{loops}, io={} physical / {} logical)",
            self.label, self.rows, self.physical_io, self.logical_io
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{pad}  [{}] rows={}, morsels={}, io={} physical / {} logical",
                w.label, w.rows, w.opens, w.physical_io, w.logical_io
            );
        }
        for c in &self.children {
            c.render_into(out, indent + 1);
        }
    }
}

/// A pull-based physical operator (Volcano style).
///
/// `open` acquires cursors or materializes pipeline-breaker state, `next`
/// yields one tuple at a time, `close` releases state. Operators receive the
/// [`ExecContext`] on every call instead of borrowing it, so the compiled
/// tree carries no lifetimes.
trait Operator {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;
    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>>;
    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()>;
    fn children(&self) -> Vec<&OpNode>;

    /// Metrics of child subtrees that did not run as `OpNode`s (the
    /// worker-merged fragment under an Exchange). Empty for serial ops.
    fn merged_children(&self) -> Vec<OpMetrics> {
        Vec::new()
    }

    /// Per-worker metric rows (Exchange only). Empty for serial ops.
    fn worker_metrics(&self) -> Vec<OpMetrics> {
        Vec::new()
    }

    /// Self-measured inclusive `(physical, logical)` I/O overriding the
    /// node's global-snapshot diff. An Exchange measures its subtree from
    /// per-worker counter stripes instead, so concurrent sessions charging
    /// the shared stats between the node's before/after snapshots cannot
    /// pollute (or double into) its attribution.
    fn measured_io(&self) -> Option<(u64, u64)> {
        None
    }
}

/// An operator plus its runtime counters. All pulls go through the node so
/// rows, opens, and I/O are metered uniformly.
struct OpNode {
    label: String,
    op: Box<dyn Operator>,
    rows: u64,
    opens: u64,
    physical_io: u64,
    logical_io: u64,
}

impl OpNode {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.opens += 1;
        let before = ctx.db.stats().snapshot();
        let r = self.op.open(ctx);
        self.charge(&before, ctx);
        r
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let before = ctx.db.stats().snapshot();
        let r = self.op.next(ctx);
        self.charge(&before, ctx);
        if let Ok(Some(_)) = &r {
            self.rows += 1;
        }
        r
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.op.close(ctx)
    }

    fn charge(&mut self, before: &instn_storage::IoSnapshot, ctx: &ExecContext<'_>) {
        let delta = ctx.db.stats().snapshot().since(before);
        self.physical_io += delta.total();
        self.logical_io += delta.logical_total();
    }

    fn metrics(&self) -> OpMetrics {
        let mut children: Vec<OpMetrics> = self.op.children().iter().map(|c| c.metrics()).collect();
        children.extend(self.op.merged_children());
        let (physical_io, logical_io) = self
            .op
            .measured_io()
            .unwrap_or((self.physical_io, self.logical_io));
        OpMetrics {
            label: self.label.clone(),
            rows: self.rows,
            opens: self.opens,
            physical_io,
            logical_io,
            children,
            workers: self.op.worker_metrics(),
        }
    }
}

/// Compile a plan tree into an operator tree. Plan parameters are cloned
/// into the operators (plans are small), keeping the tree `'static`.
fn compile(plan: &PhysicalPlan) -> OpNode {
    let op: Box<dyn Operator> = match plan {
        PhysicalPlan::SeqScan {
            table,
            with_summaries,
        } => Box::new(SeqScanOp {
            table: *table,
            with_summaries: *with_summaries,
            cursor: None,
        }),
        PhysicalPlan::SummaryIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            reverse,
        } => Box::new(SummaryIndexScanOp {
            index: index.clone(),
            label: label.clone(),
            lo: *lo,
            hi: *hi,
            propagate: *propagate,
            reverse: *reverse,
            table: None,
            cursor: None,
        }),
        PhysicalPlan::BaselineIndexScan {
            index,
            label,
            lo,
            hi,
            propagate,
            from_normalized,
        } => Box::new(BaselineIndexScanOp {
            index: index.clone(),
            label: label.clone(),
            lo: *lo,
            hi: *hi,
            propagate: *propagate,
            from_normalized: *from_normalized,
            table: None,
            oids: Vec::new(),
            pos: 0,
        }),
        PhysicalPlan::DataIndexScan {
            table,
            col,
            lo,
            hi,
            lo_strict,
            hi_strict,
            with_summaries,
        } => Box::new(DataIndexScanOp {
            table: *table,
            col: *col,
            lo: lo.clone(),
            hi: hi.clone(),
            lo_strict: *lo_strict,
            hi_strict: *hi_strict,
            with_summaries: *with_summaries,
            oids: Vec::new(),
            pos: 0,
        }),
        PhysicalPlan::Filter { input, pred } => Box::new(FilterOp {
            child: compile(input),
            pred: pred.clone(),
        }),
        PhysicalPlan::SummaryObjectFilter { input, pred } => Box::new(SummaryObjectFilterOp {
            child: compile(input),
            pred: pred.clone(),
        }),
        PhysicalPlan::Project {
            input,
            cols,
            eliminate,
        } => Box::new(ProjectOp {
            child: compile(input),
            cols: cols.clone(),
            eliminate: *eliminate,
        }),
        PhysicalPlan::NestedLoopJoin { left, right, pred } => Box::new(NestedLoopJoinOp {
            left: compile(left),
            right: compile(right),
            pred: pred.clone(),
            block: Vec::new(),
            inner: Vec::new(),
            inner_cached: false,
            li: 0,
            ri: 0,
            outer_done: false,
        }),
        PhysicalPlan::IndexJoin {
            left,
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        } => Box::new(IndexJoinOp {
            left: compile(left),
            right_table: *right_table,
            left_col: *left_col,
            right_col: *right_col,
            residual: residual.clone(),
            with_summaries: *with_summaries,
            current: None,
        }),
        PhysicalPlan::SummaryIndexJoin {
            left,
            left_key,
            index,
            label,
            residual,
            with_summaries,
        } => Box::new(SummaryIndexJoinOp {
            left: compile(left),
            left_key: left_key.clone(),
            index: index.clone(),
            label: label.clone(),
            residual: residual.clone(),
            with_summaries: *with_summaries,
            right_table: None,
            current: None,
        }),
        PhysicalPlan::Sort {
            input,
            key,
            desc,
            disk,
        } => Box::new(SortOp {
            child: compile(input),
            key: key.clone(),
            desc: *desc,
            disk: *disk,
            out: None,
        }),
        PhysicalPlan::GroupBy { input, cols } => Box::new(GroupByOp {
            child: compile(input),
            cols: cols.clone(),
            out: None,
        }),
        PhysicalPlan::Distinct { input } => Box::new(DistinctOp {
            child: compile(input),
            out: None,
        }),
        PhysicalPlan::Limit { input, n } => Box::new(LimitOp {
            child: compile(input),
            n: *n,
            emitted: 0,
        }),
        PhysicalPlan::Exchange { input, dop } => Box::new(ExchangeOp {
            plan: (**input).clone(),
            dop: *dop,
            serial: None,
            out: None,
            worker_stats: Vec::new(),
            fragment_metrics: None,
            measured: None,
        }),
    };
    OpNode {
        label: plan.head(),
        op,
        rows: 0,
        opens: 0,
        physical_io: 0,
        logical_io: 0,
    }
}

/// Streaming sequential scan (OID order).
struct SeqScanOp {
    table: TableId,
    with_summaries: bool,
    cursor: Option<instn_storage::ScanCursor>,
}

impl Operator for SeqScanOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.cursor = Some(ctx.db.table(self.table)?.scan_open());
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let cur = self.cursor.as_mut().expect("open() before next()");
        let Some((oid, values)) = ctx.db.table(self.table)?.scan_next(cur) else {
            return Ok(None);
        };
        if self.with_summaries {
            let summaries = ctx.db.summary_storage(self.table).read(oid)?;
            Ok(Some(AnnotatedTuple {
                source: Some((self.table, oid)),
                values,
                summaries,
            }))
        } else {
            Ok(Some(AnnotatedTuple::bare(self.table, oid, values)))
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }
}

/// Streaming Summary-BTree scan: a cursor is opened over the count range and
/// entries are fetched lazily, so a LIMIT above stops both the leaf walk and
/// the per-entry heap reads after k tuples.
struct SummaryIndexScanOp {
    index: String,
    label: String,
    lo: Option<u64>,
    hi: Option<u64>,
    propagate: bool,
    reverse: bool,
    table: Option<TableId>,
    cursor: Option<instn_index::EntryCursor>,
}

impl Operator for SummaryIndexScanOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let idx = ctx
            .summary_indexes
            .get_mut(&self.index)
            .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
        self.table = Some(idx.table());
        self.cursor = Some(idx.open_range_cursor(&self.label, self.lo, self.hi, self.reverse));
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let idx = ctx
            .summary_indexes
            .get(&self.index)
            .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
        let cur = self.cursor.as_mut().expect("open() before next()");
        let Some(e) = idx.cursor_next(cur) else {
            return Ok(None);
        };
        let values = idx.fetch_data_tuple(ctx.db, &e)?;
        let summaries = if self.propagate {
            idx.fetch_summaries(ctx.db, &e)?
        } else {
            Vec::new()
        };
        Ok(Some(AnnotatedTuple {
            source: Some((self.table.expect("set in open"), e.oid)),
            values,
            summaries,
        }))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.cursor = None;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }
}

/// Baseline-scheme index scan: the matching OID list is materialized at open
/// (the baseline index keeps it in memory anyway); the expensive part — the
/// per-OID probe + heap read indirection — happens lazily per pull.
struct BaselineIndexScanOp {
    index: String,
    label: String,
    lo: Option<u64>,
    hi: Option<u64>,
    propagate: bool,
    from_normalized: bool,
    table: Option<TableId>,
    oids: Vec<instn_storage::Oid>,
    pos: usize,
}

impl Operator for BaselineIndexScanOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let idx = ctx
            .baseline_indexes
            .get(&self.index)
            .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
        // The baseline index only knows OIDs; the owning table is resolved
        // through the instance the index was built on.
        self.oids = idx.search_range(&self.label, self.lo, self.hi);
        self.pos = 0;
        self.table = if self.oids.is_empty() {
            None
        } else {
            Some(ctx.table_of_baseline(&self.index)?)
        };
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let Some(&oid) = self.oids.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        let table = self.table.expect("resolved in open");
        // Extra indirection: OID-index probe + heap read.
        let values = ctx.db.table(table)?.get(oid)?;
        let summaries = if self.propagate {
            if self.from_normalized {
                // Re-assemble the classifier object from normalized rows
                // (the paper's Fig. 12 measures exactly this).
                let idx = ctx
                    .baseline_indexes
                    .get(&self.index)
                    .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
                idx.rebuild_object(ctx.db, oid)?
                    .map(|o| vec![o])
                    .unwrap_or_default()
            } else {
                ctx.db.summaries_of(table, oid)?
            }
        } else {
            Vec::new()
        };
        Ok(Some(AnnotatedTuple {
            source: Some((table, oid)),
            values,
            summaries,
        }))
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.oids = Vec::new();
        self.pos = 0;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }
}

/// Data-column index scan: the qualifying OID list (already in key order,
/// NULL band skipped) is materialized at open; heap reads happen lazily per
/// pull so a LIMIT above stops them.
struct DataIndexScanOp {
    table: TableId,
    col: usize,
    lo: Option<Value>,
    hi: Option<Value>,
    lo_strict: bool,
    hi_strict: bool,
    with_summaries: bool,
    oids: Vec<instn_storage::Oid>,
    pos: usize,
}

impl Operator for DataIndexScanOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let idx = ctx
            .column_indexes
            .get(&(self.table, self.col))
            .ok_or_else(|| {
                QueryError::UnknownIndex(format!("table#{}.col{}", self.table.0, self.col))
            })?;
        self.oids = idx.range(
            self.lo.as_ref(),
            self.hi.as_ref(),
            self.lo_strict,
            self.hi_strict,
        );
        self.pos = 0;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let Some(&oid) = self.oids.get(self.pos) else {
            return Ok(None);
        };
        self.pos += 1;
        let values = ctx.db.table(self.table)?.get(oid)?;
        if self.with_summaries {
            let summaries = ctx.db.summary_storage(self.table).read(oid)?;
            Ok(Some(AnnotatedTuple {
                source: Some((self.table, oid)),
                values,
                summaries,
            }))
        } else {
            Ok(Some(AnnotatedTuple::bare(self.table, oid, values)))
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext<'_>) -> Result<()> {
        self.oids = Vec::new();
        self.pos = 0;
        Ok(())
    }

    fn children(&self) -> Vec<&OpNode> {
        Vec::new()
    }
}

/// Tuple filter σ / summary selection `S` — fully pipelined.
struct FilterOp {
    child: OpNode,
    pred: Expr,
}

impl Operator for FilterOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        loop {
            let Some(t) = self.child.next(ctx)? else {
                return Ok(None);
            };
            if self.pred.eval_bool(&t)? {
                return Ok(Some(t));
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Summary object filter `F` — fully pipelined.
struct SummaryObjectFilterOp {
    child: OpNode,
    pred: ObjectPred,
}

impl Operator for SummaryObjectFilterOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let t = self.child.next(ctx)?;
        Ok(t.map(|mut t| {
            t.summaries.retain(|o| self.pred.matches(o));
            t
        }))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Projection with annotation-effect elimination — fully pipelined.
struct ProjectOp {
    child: OpNode,
    cols: Vec<usize>,
    eliminate: bool,
}

impl Operator for ProjectOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        let Some(mut t) = self.child.next(ctx)? else {
            return Ok(None);
        };
        if self.eliminate {
            if let Some((table, oid)) = t.source {
                let (_kept, removed) = ctx
                    .db
                    .annotation_store(table)
                    .partition_by_projection(oid, &self.cols);
                if !removed.is_empty() {
                    let resolver = ctx.db.text_resolver();
                    project_eliminate(&mut t.summaries, &removed, &resolver);
                }
            }
        }
        t.values = self
            .cols
            .iter()
            .map(|&i| t.values.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        Ok(Some(t))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Block nested-loop join. The outer side is pulled in blocks of
/// [`NL_BLOCK_SIZE`]; the inner build side is a pipeline breaker,
/// materialized once per block. When the first materialization fits the
/// sort budget the inner is cached and later blocks skip the re-scan.
struct NestedLoopJoinOp {
    left: OpNode,
    right: OpNode,
    pred: JoinPredicate,
    block: Vec<AnnotatedTuple>,
    inner: Vec<AnnotatedTuple>,
    inner_cached: bool,
    li: usize,
    ri: usize,
    outer_done: bool,
}

impl Operator for NestedLoopJoinOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.block.clear();
        self.inner.clear();
        self.inner_cached = false;
        self.li = 0;
        self.ri = 0;
        self.outer_done = false;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        loop {
            // Emit pending matches of the current block × inner.
            while self.li < self.block.len() {
                let l = &self.block[self.li];
                while self.ri < self.inner.len() {
                    let r = &self.inner[self.ri];
                    self.ri += 1;
                    if self.pred.matches(l, r) {
                        return Ok(Some(merge_pair(ctx.db, l, r)));
                    }
                }
                self.li += 1;
                self.ri = 0;
            }
            if self.outer_done {
                return Ok(None);
            }
            // Pull the next outer block.
            self.block.clear();
            self.li = 0;
            self.ri = 0;
            while self.block.len() < NL_BLOCK_SIZE.max(1) {
                match self.left.next(ctx)? {
                    Some(t) => self.block.push(t),
                    None => {
                        self.outer_done = true;
                        break;
                    }
                }
            }
            if self.block.is_empty() {
                return Ok(None);
            }
            // Block NL: the inner is re-executed (re-read) once per block —
            // unless an earlier materialization fit in memory and was kept.
            if !self.inner_cached {
                self.right.open(ctx)?;
                self.inner.clear();
                while let Some(t) = self.right.next(ctx)? {
                    self.inner.push(t);
                }
                self.right.close(ctx)?;
                self.inner_cached = self.inner.len() <= ctx.sort_mem;
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.block = Vec::new();
        self.inner = Vec::new();
        self.inner_cached = false;
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left, &self.right]
    }
}

/// Index join: streams the outer, probing a column index on the inner table
/// per outer tuple.
struct IndexJoinOp {
    left: OpNode,
    right_table: TableId,
    left_col: usize,
    right_col: usize,
    residual: Option<JoinPredicate>,
    with_summaries: bool,
    current: Option<(AnnotatedTuple, Vec<instn_storage::Oid>, usize)>,
}

impl Operator for IndexJoinOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        if !ctx.has_column_index(self.right_table, self.right_col) {
            return Err(QueryError::BadPlan(format!(
                "index join requires a column index on table {:?} col {}",
                self.right_table, self.right_col
            )));
        }
        self.current = None;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        loop {
            if self.current.is_some() {
                let (l, oids, pos) = self.current.as_mut().expect("checked above");
                while *pos < oids.len() {
                    let oid = oids[*pos];
                    *pos += 1;
                    let r = if self.with_summaries {
                        ctx.db.annotated_tuple(self.right_table, oid)?
                    } else {
                        let values = ctx.db.table(self.right_table)?.get(oid)?;
                        AnnotatedTuple::bare(self.right_table, oid, values)
                    };
                    if let Some(p) = &self.residual {
                        if !p.matches(l, &r) {
                            continue;
                        }
                    }
                    return Ok(Some(merge_pair(ctx.db, l, &r)));
                }
                self.current = None;
            }
            match self.left.next(ctx)? {
                Some(l) => {
                    let Some(key) = l.values.get(self.left_col) else {
                        continue;
                    };
                    let oids = ctx.column_indexes[&(self.right_table, self.right_col)].lookup(key);
                    self.current = Some((l, oids, 0));
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.current = None;
        self.left.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left]
    }
}

/// Index-based summary join (§5.2): streams the outer, probing a
/// Summary-BTree on the inner table per outer tuple.
struct SummaryIndexJoinOp {
    left: OpNode,
    left_key: crate::expr::SummaryExpr,
    index: String,
    label: String,
    residual: Option<JoinPredicate>,
    with_summaries: bool,
    right_table: Option<TableId>,
    current: Option<(AnnotatedTuple, Vec<instn_index::IndexEntry>, usize)>,
}

impl Operator for SummaryIndexJoinOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let idx = ctx
            .summary_indexes
            .get(&self.index)
            .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
        self.right_table = Some(idx.table());
        self.current = None;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        loop {
            if self.current.is_some() {
                let right_table = self.right_table.expect("set in open");
                let (l, entries, pos) = self.current.as_mut().expect("checked above");
                while *pos < entries.len() {
                    let e = &entries[*pos];
                    *pos += 1;
                    let idx = ctx
                        .summary_indexes
                        .get(&self.index)
                        .expect("checked in open");
                    let values = idx.fetch_data_tuple(ctx.db, e)?;
                    let summaries = if self.with_summaries {
                        idx.fetch_summaries(ctx.db, e)?
                    } else {
                        Vec::new()
                    };
                    let r = AnnotatedTuple {
                        source: Some((right_table, e.oid)),
                        values,
                        summaries,
                    };
                    if let Some(p) = &self.residual {
                        if !p.matches(l, &r) {
                            continue;
                        }
                    }
                    return Ok(Some(merge_pair(ctx.db, l, &r)));
                }
                self.current = None;
            }
            match self.left.next(ctx)? {
                Some(l) => {
                    let Some(count) = self.left_key.eval(&l).as_int() else {
                        continue;
                    };
                    if count < 0 {
                        continue;
                    }
                    let idx = ctx
                        .summary_indexes
                        .get_mut(&self.index)
                        .ok_or_else(|| QueryError::UnknownIndex(self.index.clone()))?;
                    let entries = idx.search_eq(&self.label, count as u64);
                    self.current = Some((l, entries, 0));
                }
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.current = None;
        self.left.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.left]
    }
}

/// Sort — a pipeline breaker: the input is drained at open, sorted (spilling
/// when over budget), and replayed.
struct SortOp {
    child: OpNode,
    key: SortKey,
    desc: bool,
    disk: bool,
    out: Option<std::vec::IntoIter<AnnotatedTuple>>,
}

impl Operator for SortOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)?;
        let mut rows = Vec::new();
        while let Some(t) = self.child.next(ctx)? {
            rows.push(t);
        }
        let sorted = if self.disk || rows.len() > ctx.sort_mem {
            external_sort(ctx.db, ctx.sort_mem, rows, &self.key, self.desc)?
        } else {
            mem_sort(rows, &self.key, self.desc)
        };
        self.out = Some(sorted.into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Group-by — a pipeline breaker: folds its input into the groups as it
/// drains it at open, then replays them in first-occurrence order.
struct GroupByOp {
    child: OpNode,
    cols: Vec<usize>,
    out: Option<std::vec::IntoIter<AnnotatedTuple>>,
}

impl Operator for GroupByOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)?;
        let mut st = AggState::new(self.cols.clone());
        while let Some(t) = self.child.next(ctx)? {
            st.absorb(t);
        }
        self.out = Some(st.finish(ctx.db).into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// DISTINCT — a pipeline breaker: drains its input at open, collapsing
/// equal data values and merging their summary sets, then replays the
/// survivors in first-occurrence order.
struct DistinctOp {
    child: OpNode,
    out: Option<std::vec::IntoIter<AnnotatedTuple>>,
}

impl Operator for DistinctOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.open(ctx)?;
        let mut groups = FoldGroups::default();
        while let Some(t) = self.child.next(ctx)? {
            // Typed, injective key: `Display` concatenation collided
            // `Int(1)` with `Text("1")` and separator-embedding strings
            // across columns.
            let key = crate::dataindex::composite_key(&t.values);
            groups.absorb(key, t.values, t.source, t.summaries);
        }
        let resolver = ctx.db.text_resolver();
        let rows: Vec<AnnotatedTuple> = groups
            .finish()
            .map(|g| AnnotatedTuple {
                // A row that met no duplicate keeps its provenance.
                source: if g.rows == 1 { g.source } else { None },
                values: g.values,
                summaries: g.summaries.finish(&resolver),
            })
            .collect();
        self.out = Some(rows.into_iter());
        Ok(())
    }

    fn next(&mut self, _ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out = None;
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// LIMIT — stops pulling its child after `n` rows, so lazy upstream scans
/// never pay for tuples beyond the cap. This is the early-termination point
/// of the pipeline.
struct LimitOp {
    child: OpNode,
    n: usize,
    emitted: usize,
}

impl Operator for LimitOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.emitted = 0;
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        if self.emitted >= self.n {
            return Ok(None);
        }
        match self.child.next(ctx)? {
            Some(t) => {
                self.emitted += 1;
                Ok(Some(t))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&self) -> Vec<&OpNode> {
        vec![&self.child]
    }
}

/// Whether `plan` is a fragment the morsel-driven parallel executor can run
/// worker-side: a chain of `Filter` / `SummaryObjectFilter` / `Project`
/// over a `SeqScan`, `DataIndexScan`, or `SummaryIndexScan` leaf, optionally
/// topped by one `GroupBy` (which runs as per-worker partial aggregation
/// merged at the gather). Everything else — sorts, top-k, join build sides,
/// the baseline scheme — keeps its serial semantics above the Exchange.
pub fn parallel_fragment_shape(plan: &PhysicalPlan) -> bool {
    split_fragment(plan).is_some()
}

/// Wrap every maximal parallelizable fragment of `plan` (see
/// [`parallel_fragment_shape`]) in a [`PhysicalPlan::Exchange`] with `dop`
/// workers (`0` = inherit the executing context's [`ExecConfig::dop`]).
/// `dop == 1` returns the plan unchanged. `LIMIT` subtrees are left serial:
/// an Exchange materializes its fragment, which would defeat the executor's
/// early-termination guarantee.
pub fn parallelize_plan(plan: &PhysicalPlan, dop: usize) -> PhysicalPlan {
    parallelize_plan_where(plan, dop, &|_| true)
}

/// [`parallelize_plan`] with a gate: `approve` sees each candidate fragment
/// and may veto the wrap (the optimizer passes a cost comparison here).
pub fn parallelize_plan_where(
    plan: &PhysicalPlan,
    dop: usize,
    approve: &dyn Fn(&PhysicalPlan) -> bool,
) -> PhysicalPlan {
    if dop == 1 {
        return plan.clone();
    }
    if parallel_fragment_shape(plan) {
        if approve(plan) {
            return PhysicalPlan::Exchange {
                input: Box::new(plan.clone()),
                dop,
            };
        }
        return plan.clone();
    }
    let rec = |p: &PhysicalPlan| Box::new(parallelize_plan_where(p, dop, approve));
    match plan {
        PhysicalPlan::Filter { input, pred } => PhysicalPlan::Filter {
            input: rec(input),
            pred: pred.clone(),
        },
        PhysicalPlan::SummaryObjectFilter { input, pred } => PhysicalPlan::SummaryObjectFilter {
            input: rec(input),
            pred: pred.clone(),
        },
        PhysicalPlan::Project {
            input,
            cols,
            eliminate,
        } => PhysicalPlan::Project {
            input: rec(input),
            cols: cols.clone(),
            eliminate: *eliminate,
        },
        PhysicalPlan::Sort {
            input,
            key,
            desc,
            disk,
        } => PhysicalPlan::Sort {
            input: rec(input),
            key: key.clone(),
            desc: *desc,
            disk: *disk,
        },
        PhysicalPlan::GroupBy { input, cols } => PhysicalPlan::GroupBy {
            input: rec(input),
            cols: cols.clone(),
        },
        PhysicalPlan::Distinct { input } => PhysicalPlan::Distinct { input: rec(input) },
        // Only the probe (outer) side parallelizes; the inner of a block NL
        // join is re-executed per block and join build sides stay serial.
        PhysicalPlan::NestedLoopJoin { left, right, pred } => PhysicalPlan::NestedLoopJoin {
            left: rec(left),
            right: right.clone(),
            pred: pred.clone(),
        },
        PhysicalPlan::IndexJoin {
            left,
            right_table,
            left_col,
            right_col,
            residual,
            with_summaries,
        } => PhysicalPlan::IndexJoin {
            left: rec(left),
            right_table: *right_table,
            left_col: *left_col,
            right_col: *right_col,
            residual: residual.clone(),
            with_summaries: *with_summaries,
        },
        PhysicalPlan::SummaryIndexJoin {
            left,
            left_key,
            index,
            label,
            residual,
            with_summaries,
        } => PhysicalPlan::SummaryIndexJoin {
            left: rec(left),
            left_key: left_key.clone(),
            index: index.clone(),
            label: label.clone(),
            residual: residual.clone(),
            with_summaries: *with_summaries,
        },
        // LIMIT keeps its whole subtree serial (early termination), an
        // existing Exchange is left as placed, and bare non-fragment
        // leaves have nothing to parallelize.
        PhysicalPlan::Limit { .. }
        | PhysicalPlan::Exchange { .. }
        | PhysicalPlan::SeqScan { .. }
        | PhysicalPlan::SummaryIndexScan { .. }
        | PhysicalPlan::BaselineIndexScan { .. }
        | PhysicalPlan::DataIndexScan { .. } => plan.clone(),
    }
}

/// One worker-side stage of a parallel fragment (applied per tuple).
#[derive(Clone)]
enum FragStage {
    Filter(Expr),
    ObjFilter(ObjectPred),
    Project { cols: Vec<usize>, eliminate: bool },
}

/// A decomposed parallel fragment: the leaf scan, the per-tuple stages in
/// bottom-up application order, the optional partial-aggregation columns,
/// and the plan-node labels (bottom-up, scan first) for metrics.
struct FragSpec {
    scan: PhysicalPlan,
    stages: Vec<FragStage>,
    group_cols: Option<Vec<usize>>,
    heads: Vec<String>,
}

fn split_fragment(plan: &PhysicalPlan) -> Option<FragSpec> {
    let (group_cols, group_head, mut node) = match plan {
        PhysicalPlan::GroupBy { input, cols } => (Some(cols.clone()), Some(plan.head()), &**input),
        other => (None, None, other),
    };
    let mut top_down: Vec<(FragStage, String)> = Vec::new();
    loop {
        match node {
            PhysicalPlan::Filter { input, pred } => {
                top_down.push((FragStage::Filter(pred.clone()), node.head()));
                node = input;
            }
            PhysicalPlan::SummaryObjectFilter { input, pred } => {
                top_down.push((FragStage::ObjFilter(pred.clone()), node.head()));
                node = input;
            }
            PhysicalPlan::Project {
                input,
                cols,
                eliminate,
            } => {
                top_down.push((
                    FragStage::Project {
                        cols: cols.clone(),
                        eliminate: *eliminate,
                    },
                    node.head(),
                ));
                node = input;
            }
            PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::DataIndexScan { .. }
            | PhysicalPlan::SummaryIndexScan { .. } => break,
            _ => return None,
        }
    }
    let scan = node.clone();
    let mut heads = vec![scan.head()];
    let mut stages = Vec::with_capacity(top_down.len());
    for (stage, head) in top_down.into_iter().rev() {
        stages.push(stage);
        heads.push(head);
    }
    heads.extend(group_head);
    Some(FragSpec {
        scan,
        stages,
        group_cols,
        heads,
    })
}

/// Leaf parameters resolved by the coordinator before spawning workers.
enum ResolvedSource {
    Heap {
        table: TableId,
        with_summaries: bool,
    },
    ByOid {
        table: TableId,
        with_summaries: bool,
    },
    Entries {
        table: TableId,
        propagate: bool,
    },
}

/// One unit of the shared work queue.
enum MorselInput {
    /// Inclusive OID range of a heap scan.
    Range(instn_storage::Oid, instn_storage::Oid),
    /// Explicit OID list (data-index scan output order).
    Oids(Vec<instn_storage::Oid>),
    /// Summary-BTree leaf entries (count order).
    Entries(Vec<instn_index::IndexEntry>),
}

/// What one morsel produced: pipelined rows, or a partial aggregate.
enum MorselOut {
    Rows(Vec<AnnotatedTuple>),
    Agg(AggState),
}

/// Everything one worker brings back from the pool.
struct WorkerOut {
    /// Rows surviving each fragment level: `[0]` = scan output, `[i+1]` =
    /// after stage `i`.
    stage_rows: Vec<u64>,
    /// Morsels this worker claimed.
    morsels: u64,
    /// Tuples (or partial groups) this worker contributed to the gather.
    rows_out: u64,
    /// Morsel outputs tagged with their queue index.
    outs: Vec<(usize, MorselOut)>,
    /// I/O charged to this worker's counter stripe.
    io: instn_storage::IoSnapshot,
}

/// Run one morsel through the fragment: produce source tuples, apply the
/// stages, collect rows or fold into a partial [`AggState`].
fn run_morsel(
    db: &Database,
    sidx: Option<&SummaryBTree>,
    source: &ResolvedSource,
    frag: &FragSpec,
    input: &MorselInput,
    stage_rows: &mut [u64],
) -> Result<MorselOut> {
    let mut rows = Vec::new();
    let mut agg = frag.group_cols.clone().map(AggState::new);
    let mut sink = |t: AnnotatedTuple| match &mut agg {
        Some(st) => st.absorb(t),
        None => rows.push(t),
    };
    match (input, source) {
        (
            MorselInput::Range(lo, hi),
            ResolvedSource::Heap {
                table,
                with_summaries,
            },
        ) => {
            let tbl = db.table(*table)?;
            let mut cur = tbl.scan_open_range(Some(*lo), Some(*hi));
            while let Some((oid, values)) = tbl.scan_next(&mut cur) {
                let t = annotate(db, *table, oid, values, *with_summaries)?;
                if let Some(t) = apply_stages(db, &frag.stages, t, stage_rows)? {
                    sink(t);
                }
            }
        }
        (
            MorselInput::Oids(oids),
            ResolvedSource::ByOid {
                table,
                with_summaries,
            },
        ) => {
            for &oid in oids {
                let values = db.table(*table)?.get(oid)?;
                let t = annotate(db, *table, oid, values, *with_summaries)?;
                if let Some(t) = apply_stages(db, &frag.stages, t, stage_rows)? {
                    sink(t);
                }
            }
        }
        (MorselInput::Entries(entries), ResolvedSource::Entries { table, propagate }) => {
            let idx = sidx.expect("coordinator resolved the summary index");
            for e in entries {
                let values = idx.fetch_data_tuple(db, e)?;
                let summaries = if *propagate {
                    idx.fetch_summaries(db, e)?
                } else {
                    Vec::new()
                };
                let t = AnnotatedTuple {
                    source: Some((*table, e.oid)),
                    values,
                    summaries,
                };
                if let Some(t) = apply_stages(db, &frag.stages, t, stage_rows)? {
                    sink(t);
                }
            }
        }
        _ => unreachable!("morsel kind always matches the resolved source"),
    }
    Ok(match agg {
        Some(st) => MorselOut::Agg(st),
        None => MorselOut::Rows(rows),
    })
}

/// Assemble a scanned tuple exactly as the serial scan operators do.
fn annotate(
    db: &Database,
    table: TableId,
    oid: instn_storage::Oid,
    values: Vec<Value>,
    with_summaries: bool,
) -> Result<AnnotatedTuple> {
    if with_summaries {
        Ok(AnnotatedTuple {
            source: Some((table, oid)),
            values,
            summaries: db.summary_storage(table).read(oid)?,
        })
    } else {
        Ok(AnnotatedTuple::bare(table, oid, values))
    }
}

/// Apply the fragment's per-tuple stages, replicating the serial
/// `FilterOp` / `SummaryObjectFilterOp` / `ProjectOp` semantics.
fn apply_stages(
    db: &Database,
    stages: &[FragStage],
    mut t: AnnotatedTuple,
    stage_rows: &mut [u64],
) -> Result<Option<AnnotatedTuple>> {
    stage_rows[0] += 1;
    for (i, stage) in stages.iter().enumerate() {
        match stage {
            FragStage::Filter(pred) => {
                if !pred.eval_bool(&t)? {
                    return Ok(None);
                }
            }
            FragStage::ObjFilter(pred) => {
                t.summaries.retain(|o| pred.matches(o));
            }
            FragStage::Project { cols, eliminate } => {
                if *eliminate {
                    if let Some((table, oid)) = t.source {
                        let (_kept, removed) = db
                            .annotation_store(table)
                            .partition_by_projection(oid, cols);
                        if !removed.is_empty() {
                            let resolver = db.text_resolver();
                            project_eliminate(&mut t.summaries, &removed, &resolver);
                        }
                    }
                }
                t.values = cols
                    .iter()
                    .map(|&c| t.values.get(c).cloned().unwrap_or(Value::Null))
                    .collect();
            }
        }
        stage_rows[i + 1] += 1;
    }
    Ok(Some(t))
}

/// The exchange/gather operator. At open it resolves the effective DOP:
/// `1` (and no simulated stall) delegates the fragment to the ordinary
/// serial operator tree — bit-identical output, metrics, and I/O charges —
/// while anything else splits the leaf into morsels on a shared queue and
/// drains it with a crossbeam-scoped worker pool. Workers return per-morsel
/// outputs which the gather reassembles **in morsel order**, so parallel
/// output equals the serial pipeline row for row, and partial aggregates
/// merge associatively in that same order.
struct ExchangeOp {
    plan: PhysicalPlan,
    dop: usize,
    serial: Option<OpNode>,
    out: Option<std::vec::IntoIter<AnnotatedTuple>>,
    worker_stats: Vec<OpMetrics>,
    fragment_metrics: Option<OpMetrics>,
    measured: Option<(u64, u64)>,
}

impl ExchangeOp {
    fn run_parallel(&mut self, ctx: &mut ExecContext<'_>, dop: usize) -> Result<()> {
        let frag = split_fragment(&self.plan).expect("shape checked by open");
        let db: &Database = ctx.db;
        let stats = Arc::clone(db.stats());
        // The coordinator pins the last stripe so fragment enumeration
        // (OID-index walk, index leaf drain) is attributable too; workers
        // are capped below at `PIN_STRIPES - 1` so no worker ever shares
        // it (a shared stripe would double-count in `measured_io`).
        let coord_slot = instn_storage::io::PIN_STRIPES - 1;
        let _coord_pin = IoStats::pin_worker(coord_slot);
        let coord_before = stats.worker_snapshot(coord_slot);
        let morsel_rows = ctx.config.morsel_rows.max(1);
        let (source, morsels, sidx): (ResolvedSource, Vec<MorselInput>, Option<&SummaryBTree>) =
            match &frag.scan {
                PhysicalPlan::SeqScan {
                    table,
                    with_summaries,
                } => (
                    ResolvedSource::Heap {
                        table: *table,
                        with_summaries: *with_summaries,
                    },
                    db.table(*table)?
                        .morsel_ranges(morsel_rows)
                        .into_iter()
                        .map(|(lo, hi)| MorselInput::Range(lo, hi))
                        .collect(),
                    None,
                ),
                PhysicalPlan::DataIndexScan {
                    table,
                    col,
                    lo,
                    hi,
                    lo_strict,
                    hi_strict,
                    with_summaries,
                } => {
                    let idx = ctx.column_indexes.get(&(*table, *col)).ok_or_else(|| {
                        QueryError::UnknownIndex(format!("table#{}.col{}", table.0, col))
                    })?;
                    let oids = idx.range(lo.as_ref(), hi.as_ref(), *lo_strict, *hi_strict);
                    (
                        ResolvedSource::ByOid {
                            table: *table,
                            with_summaries: *with_summaries,
                        },
                        oids.chunks(morsel_rows)
                            .map(|c| MorselInput::Oids(c.to_vec()))
                            .collect(),
                        None,
                    )
                }
                PhysicalPlan::SummaryIndexScan {
                    index,
                    label,
                    lo,
                    hi,
                    propagate,
                    reverse,
                } => {
                    let idx = ctx
                        .summary_indexes
                        .get_mut(index)
                        .ok_or_else(|| QueryError::UnknownIndex(index.clone()))?;
                    let table = idx.table();
                    let mut cur = idx.open_range_cursor(label, *lo, *hi, *reverse);
                    let mut entries = Vec::new();
                    while let Some(e) = idx.cursor_next(&mut cur) {
                        entries.push(e);
                    }
                    (
                        ResolvedSource::Entries {
                            table,
                            propagate: *propagate,
                        },
                        entries
                            .chunks(morsel_rows)
                            .map(|c| MorselInput::Entries(c.to_vec()))
                            .collect(),
                        ctx.summary_indexes.get(index),
                    )
                }
                _ => unreachable!("split_fragment only admits the three scan leaves"),
            };

        // Workers are bounded by the morsel count and by the reserved
        // stripes minus the coordinator's own; an empty morsel list still
        // gets one worker so the gather path is uniform.
        let worker_cap = morsels.len().clamp(1, instn_storage::io::PIN_STRIPES - 1);
        let n_workers = dop.clamp(1, worker_cap);
        // Morsel/gather timing handles, resolved once per Exchange run (the
        // registry mutex is never taken inside the worker loop). `None`
        // when observability is off: workers then skip the clock entirely.
        let obs = db.metrics();
        let morsel_obs = if obs.is_enabled() {
            Some((
                obs.histogram(
                    "exchange_morsel_ns",
                    "Per-morsel worker execution wall time (ns)",
                ),
                obs.counter(
                    "exchange_morsels_total",
                    "Morsels executed by parallel workers",
                ),
            ))
        } else {
            None
        };
        let gather_hist = obs.is_enabled().then(|| {
            obs.histogram(
                "exchange_gather_ns",
                "Gather-phase merge wall time per Exchange run (ns)",
            )
        });
        let next = AtomicUsize::new(0);
        let stall = ctx.config.io_stall;
        let frag_ref = &frag;
        let source_ref = &source;
        let morsels_ref = &morsels;
        let next_ref = &next;
        let joined: Vec<std::thread::Result<Result<WorkerOut>>> =
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..n_workers)
                    .map(|w| {
                        let stats = Arc::clone(&stats);
                        let morsel_obs = morsel_obs.clone();
                        scope.spawn(move |_| -> Result<WorkerOut> {
                            let _pin = IoStats::pin_worker(w);
                            let before = stats.worker_snapshot(w);
                            let mut wo = WorkerOut {
                                stage_rows: vec![0; frag_ref.stages.len() + 1],
                                morsels: 0,
                                rows_out: 0,
                                outs: Vec::new(),
                                io: Default::default(),
                            };
                            loop {
                                let i = next_ref.fetch_add(1, AtomicOrdering::Relaxed);
                                if i >= morsels_ref.len() {
                                    break;
                                }
                                let t0 = morsel_obs.as_ref().map(|_| std::time::Instant::now());
                                let m = run_morsel(
                                    db,
                                    sidx,
                                    source_ref,
                                    frag_ref,
                                    &morsels_ref[i],
                                    &mut wo.stage_rows,
                                )?;
                                if let (Some((hist, count)), Some(t0)) = (morsel_obs.as_ref(), t0) {
                                    hist.record(instn_obs::elapsed_ns(t0));
                                    count.inc();
                                }
                                wo.rows_out += match &m {
                                    MorselOut::Rows(r) => r.len() as u64,
                                    MorselOut::Agg(st) => st.len() as u64,
                                };
                                wo.outs.push((i, m));
                                wo.morsels += 1;
                                if !stall.is_zero() {
                                    std::thread::sleep(stall);
                                }
                            }
                            wo.io = stats.worker_snapshot(w).since(&before);
                            Ok(wo)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
            .unwrap_or_else(|e| std::panic::resume_unwind(e));

        let mut workers = Vec::with_capacity(n_workers);
        for j in joined {
            match j {
                Ok(Ok(wo)) => workers.push(wo),
                Ok(Err(e)) => return Err(e),
                Err(p) => std::panic::resume_unwind(p),
            }
        }

        // Gather in morsel order: deterministic, serial-identical output.
        let gather_t0 = gather_hist.as_ref().map(|_| std::time::Instant::now());
        let mut slots: Vec<Option<MorselOut>> = morsels.iter().map(|_| None).collect();
        for wo in &mut workers {
            for (i, m) in wo.outs.drain(..) {
                slots[i] = Some(m);
            }
        }
        let gathered = if let Some(cols) = &frag.group_cols {
            let mut acc = AggState::new(cols.clone());
            for slot in slots.into_iter().flatten() {
                let MorselOut::Agg(st) = slot else {
                    unreachable!("grouped fragments emit partial aggregates")
                };
                acc.merge(st);
            }
            acc.finish(db)
        } else {
            let mut v = Vec::new();
            for slot in slots.into_iter().flatten() {
                let MorselOut::Rows(r) = slot else {
                    unreachable!("ungrouped fragments emit rows")
                };
                v.extend(r);
            }
            v
        };
        if let (Some(hist), Some(t0)) = (gather_hist.as_ref(), gather_t0) {
            hist.record(instn_obs::elapsed_ns(t0));
        }

        let coord_io = stats.worker_snapshot(coord_slot).since(&coord_before);
        let mut total_io = coord_io;
        for wo in &workers {
            total_io.add_assign(&wo.io);
        }
        self.measured = Some((total_io.total(), total_io.logical_total()));
        self.worker_stats = workers
            .iter()
            .enumerate()
            .map(|(w, wo)| OpMetrics {
                label: format!("worker {w}"),
                rows: wo.rows_out,
                opens: wo.morsels,
                physical_io: wo.io.total(),
                logical_io: wo.io.logical_total(),
                children: Vec::new(),
                workers: Vec::new(),
            })
            .collect();
        let mut merged: Option<OpMetrics> = None;
        for wo in &workers {
            let m = fragment_metrics(&frag, wo);
            match &mut merged {
                None => merged = Some(m),
                Some(acc) => acc.merge(&m),
            }
        }
        self.fragment_metrics = merged;
        self.out = Some(gathered.into_iter());
        Ok(())
    }
}

/// One worker's view of the fragment as a metrics chain (scan innermost).
/// Inclusive I/O at every level is the worker's whole fragment I/O — all of
/// it happened at or below each chain node.
fn fragment_metrics(frag: &FragSpec, wo: &WorkerOut) -> OpMetrics {
    let (p, l) = (wo.io.total(), wo.io.logical_total());
    let mut node: Option<OpMetrics> = None;
    for (i, head) in frag.heads.iter().enumerate() {
        let rows = if i < wo.stage_rows.len() {
            wo.stage_rows[i]
        } else {
            wo.rows_out
        };
        node = Some(OpMetrics {
            label: head.clone(),
            rows,
            opens: wo.morsels,
            physical_io: p,
            logical_io: l,
            children: node.map(|n| vec![n]).unwrap_or_default(),
            workers: Vec::new(),
        });
    }
    node.expect("a fragment has at least its scan level")
}

impl Operator for ExchangeOp {
    fn open(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        let requested = if self.dop == 0 {
            ctx.config.dop
        } else {
            self.dop
        };
        let force_morsel = !ctx.config.io_stall.is_zero();
        if (requested <= 1 && !force_morsel) || split_fragment(&self.plan).is_none() {
            let mut node = compile(&self.plan);
            node.open(ctx)?;
            self.serial = Some(node);
            return Ok(());
        }
        self.run_parallel(ctx, requested.max(1))
    }

    fn next(&mut self, ctx: &mut ExecContext<'_>) -> Result<Option<AnnotatedTuple>> {
        if let Some(node) = &mut self.serial {
            return node.next(ctx);
        }
        Ok(self.out.as_mut().and_then(|it| it.next()))
    }

    fn close(&mut self, ctx: &mut ExecContext<'_>) -> Result<()> {
        self.out = None;
        match &mut self.serial {
            Some(node) => node.close(ctx),
            None => Ok(()),
        }
    }

    fn children(&self) -> Vec<&OpNode> {
        self.serial.as_ref().map(|n| vec![n]).unwrap_or_default()
    }

    fn merged_children(&self) -> Vec<OpMetrics> {
        self.fragment_metrics.clone().into_iter().collect()
    }

    fn worker_metrics(&self) -> Vec<OpMetrics> {
        self.worker_stats.clone()
    }

    fn measured_io(&self) -> Option<(u64, u64)> {
        self.measured
    }
}

/// Merge a joined pair: concatenate values; merge the summary sets with
/// common-annotation de-duplication.
fn merge_pair(db: &Database, l: &AnnotatedTuple, r: &AnnotatedTuple) -> AnnotatedTuple {
    let resolver = db.text_resolver();
    let mut values = l.values.clone();
    values.extend(r.values.iter().cloned());
    AnnotatedTuple {
        source: None,
        values,
        summaries: merge_summary_sets(&l.summaries, &r.summaries, &resolver),
    }
}

/// Rows keyed by a typed, injective key (`composite_key`) in
/// first-occurrence order, each key's summary sets folded into one
/// [`SummaryFold`] as the rows arrive: the state behind GROUP BY and
/// DISTINCT.
#[derive(Default)]
struct FoldGroups {
    order: Vec<Vec<u8>>,
    groups: HashMap<Vec<u8>, FoldGroup>,
}

/// One key's rows.
struct FoldGroup {
    /// The first row's values (under GROUP BY, its key columns).
    values: Vec<Value>,
    /// The first row's source.
    source: Option<(TableId, instn_storage::Oid)>,
    /// Rows folded in.
    rows: u64,
    summaries: SummaryFold,
}

impl FoldGroups {
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Fold one row in.
    fn absorb(
        &mut self,
        key: Vec<u8>,
        values: Vec<Value>,
        source: Option<(TableId, instn_storage::Oid)>,
        summaries: Vec<SummaryObject>,
    ) {
        match self.groups.get_mut(&key) {
            Some(g) => {
                g.rows += 1;
                g.summaries.absorb(summaries);
            }
            None => {
                let mut fold = SummaryFold::new();
                fold.absorb(summaries);
                self.order.push(key.clone());
                self.groups.insert(
                    key,
                    FoldGroup {
                        values,
                        source,
                        rows: 1,
                        summaries: fold,
                    },
                );
            }
        }
    }

    /// Fold in the groups of the rows that follow this state's own.
    /// `other`'s groups arrive in its first-occurrence order, so merging
    /// partials in morsel order reproduces the serial order exactly.
    fn merge(&mut self, other: FoldGroups) {
        let FoldGroups {
            order,
            groups: mut other_groups,
        } = other;
        for key in order {
            let g = other_groups.remove(&key).expect("listed in order");
            match self.groups.get_mut(&key) {
                Some(mine) => {
                    mine.rows += g.rows;
                    mine.summaries.absorb_fold(g.summaries);
                }
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, g);
                }
            }
        }
    }

    /// The groups in first-occurrence order.
    fn finish(self) -> impl Iterator<Item = FoldGroup> {
        let FoldGroups { order, mut groups } = self;
        order
            .into_iter()
            .map(move |k| groups.remove(&k).expect("inserted with its key"))
    }
}

/// A (possibly partial) COUNT(*) group-by state. The serial `GroupBy`
/// operator feeds one of these every input tuple; under the parallel
/// executor each worker builds one per morsel and the gather folds them
/// together with [`AggState::merge`] in morsel order. Merging counts is
/// exact, and merging summary folds matches the serial fold bit for bit
/// even when an annotation attaches to *multiple* tuples that straddle a
/// morsel boundary: [`SummaryFold::absorb_fold`] equals absorbing the
/// partial's rows one by one — see DESIGN.md §8.
struct AggState {
    cols: Vec<usize>,
    groups: FoldGroups,
}

impl AggState {
    fn new(cols: Vec<usize>) -> Self {
        AggState {
            cols,
            groups: FoldGroups::default(),
        }
    }

    fn len(&self) -> usize {
        self.groups.len()
    }

    /// Fold one input tuple into the state (the serial per-row step).
    fn absorb(&mut self, t: AnnotatedTuple) {
        // Group keys must hash; encode values with the typed, injective
        // `composite_key` (a `Display`-string key collided across types
        // and columns) while keeping the first occurrence's values for
        // output.
        let key_vals: Vec<Value> = self
            .cols
            .iter()
            .map(|&i| t.values.get(i).cloned().unwrap_or(Value::Null))
            .collect();
        let key = crate::dataindex::composite_key(&key_vals);
        self.groups.absorb(key, key_vals, None, t.summaries);
    }

    /// Combine the partial state of the rows that follow this one's.
    fn merge(&mut self, other: AggState) {
        self.groups.merge(other.groups);
    }

    /// Emit the grouped rows: key values plus the COUNT(*) column.
    fn finish(self, db: &Database) -> Vec<AnnotatedTuple> {
        let resolver = db.text_resolver();
        self.groups
            .finish()
            .map(|g| {
                let mut values = g.values;
                values.push(Value::Int(g.rows as i64));
                AnnotatedTuple {
                    source: None,
                    values,
                    summaries: g.summaries.finish(&resolver),
                }
            })
            .collect()
    }
}

/// External merge sort: spill sorted runs to a heap file, then k-way
/// merge reading them back (every spilled tuple is written and re-read,
/// charging I/O — the "Disk" sort of Figure 14).
fn external_sort(
    db: &Database,
    sort_mem: usize,
    rows: Vec<AnnotatedTuple>,
    key: &SortKey,
    desc: bool,
) -> Result<Vec<AnnotatedTuple>> {
    let stats: Arc<IoStats> = Arc::clone(db.stats());
    let mut spill = HeapFile::new(stats);
    let run_size = sort_mem.max(2);
    let mut runs: Vec<Vec<instn_storage::page::RecordId>> = Vec::new();
    let mut total = 0usize;
    for chunk in rows.chunks(run_size) {
        let sorted = mem_sort(chunk.to_vec(), key, desc);
        let mut run = Vec::with_capacity(sorted.len());
        for t in &sorted {
            run.push(spill.insert(&encode_annotated(t))?);
        }
        total += run.len();
        runs.push(run);
    }
    // K-way merge over run heads.
    let mut heads: Vec<usize> = vec![0; runs.len()];
    let mut out = Vec::with_capacity(total);
    let mut head_vals: Vec<Option<(Value, AnnotatedTuple)>> = Vec::with_capacity(runs.len());
    for (ri, run) in runs.iter().enumerate() {
        head_vals.push(read_head(&spill, run, heads[ri], key)?);
    }
    loop {
        let mut best: Option<usize> = None;
        for (ri, hv) in head_vals.iter().enumerate() {
            let Some((v, _)) = hv else { continue };
            let better = match &best {
                None => true,
                Some(b) => {
                    let (bv, _) = head_vals[*b].as_ref().unwrap();
                    let ord = v.cmp_sql(bv);
                    if desc {
                        ord == std::cmp::Ordering::Greater
                    } else {
                        ord == std::cmp::Ordering::Less
                    }
                }
            };
            if better {
                best = Some(ri);
            }
        }
        let Some(ri) = best else { break };
        let (_, t) = head_vals[ri].take().unwrap();
        out.push(t);
        heads[ri] += 1;
        head_vals[ri] = read_head(&spill, &runs[ri], heads[ri], key)?;
    }
    Ok(out)
}

fn read_head(
    spill: &HeapFile,
    run: &[instn_storage::page::RecordId],
    pos: usize,
    key: &SortKey,
) -> Result<Option<(Value, AnnotatedTuple)>> {
    match run.get(pos) {
        Some(rid) => {
            let t = decode_annotated(&spill.get(*rid)?)?;
            Ok(Some((key.eval(&t), t)))
        }
        None => Ok(None),
    }
}

/// Stable in-memory sort by key.
fn mem_sort(mut rows: Vec<AnnotatedTuple>, key: &SortKey, desc: bool) -> Vec<AnnotatedTuple> {
    rows.sort_by(|a, b| {
        let ord = key.eval(a).cmp_sql(&key.eval(b));
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
    rows
}

/// Serialize a tuple + summaries for sort spills.
fn encode_annotated(t: &AnnotatedTuple) -> Vec<u8> {
    let mut out = Vec::new();
    match t.source {
        Some((table, oid)) => {
            out.push(1);
            out.extend_from_slice(&table.0.to_le_bytes());
            out.extend_from_slice(&oid.0.to_le_bytes());
        }
        None => out.push(0),
    }
    let values = encode_tuple(&t.values);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    out.extend_from_slice(&values);
    out.extend_from_slice(&encode_objects(&t.summaries));
    out
}

fn decode_annotated(bytes: &[u8]) -> Result<AnnotatedTuple> {
    let corrupt = || QueryError::Core(instn_core::CoreError::Corrupt("spill record".into()));
    let mut pos = 0usize;
    let flag = *bytes.first().ok_or_else(corrupt)?;
    pos += 1;
    let source = if flag == 1 {
        let table = u32::from_le_bytes(
            bytes
                .get(pos..pos + 4)
                .ok_or_else(corrupt)?
                .try_into()
                .unwrap(),
        );
        pos += 4;
        let oid = u64::from_le_bytes(
            bytes
                .get(pos..pos + 8)
                .ok_or_else(corrupt)?
                .try_into()
                .unwrap(),
        );
        pos += 8;
        Some((TableId(table), instn_storage::Oid(oid)))
    } else {
        None
    };
    let vlen = u32::from_le_bytes(
        bytes
            .get(pos..pos + 4)
            .ok_or_else(corrupt)?
            .try_into()
            .unwrap(),
    ) as usize;
    pos += 4;
    let values = decode_tuple(bytes.get(pos..pos + vlen).ok_or_else(corrupt)?)?;
    pos += vlen;
    let summaries = decode_objects(bytes.get(pos..).ok_or_else(corrupt)?)?;
    Ok(AnnotatedTuple {
        source,
        values,
        summaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, SummaryExpr};
    use instn_annot::{Attachment, Category};
    use instn_core::instance::InstanceKind;
    use instn_index::PointerMode;
    use instn_mining::nb::NaiveBayes;
    use instn_storage::{ColumnType, Oid, Schema};

    fn classifier_kind() -> InstanceKind {
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train(
            "disease outbreak infection virus parasite lesion",
            "Disease",
        );
        model.train(
            "eating foraging migration song nesting stonewort",
            "Behavior",
        );
        InstanceKind::Classifier { model }
    }

    /// db with n birds; bird i: i disease annots + 1 behavior annot.
    fn setup(n: usize) -> (Database, TableId, Vec<Oid>) {
        let mut db = Database::new();
        let t = db
            .create_table(
                "Birds",
                Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
            )
            .unwrap();
        let mut oids = Vec::new();
        for i in 0..n {
            oids.push(
                db.insert_tuple(
                    t,
                    vec![Value::Int(i as i64), Value::Text(format!("fam{}", i % 3))],
                )
                .unwrap(),
            );
        }
        db.link_instance(t, "ClassBird1", classifier_kind(), true)
            .unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            for _ in 0..i {
                db.add_annotation(
                    t,
                    "disease outbreak infection",
                    Category::Disease,
                    "u",
                    vec![Attachment::row(oid)],
                )
                .unwrap();
            }
            db.add_annotation(
                t,
                "eating stonewort foraging",
                Category::Behavior,
                "u",
                vec![Attachment::row(oid)],
            )
            .unwrap();
        }
        (db, t, oids)
    }

    #[test]
    fn seq_scan_with_and_without_summaries() {
        let (db, t, _) = setup(5);
        let mut ctx = ExecContext::new(&db);
        let with = ctx
            .execute(&PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            })
            .unwrap();
        assert_eq!(with.len(), 5);
        assert!(with.iter().all(|r| r.summary_count() == 1));
        let without = ctx
            .execute(&PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            })
            .unwrap();
        assert!(without.iter().all(|r| r.summary_count() == 0));
    }

    #[test]
    fn filter_on_summary_predicate() {
        let (db, t, _) = setup(8);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Gt, 5),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 2, "tuples with 6 and 7 disease annots");
    }

    #[test]
    fn summary_index_scan_in_count_order() {
        let (db, t, oids) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx);
        let plan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 5);
        let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
        assert_eq!(got, oids[3..].to_vec(), "ascending disease count");
        assert!(rows.iter().all(|r| r.summary_count() == 1));
        // Reverse order.
        let plan_desc = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: true,
        };
        let rows = ctx.execute(&plan_desc).unwrap();
        let got: Vec<Oid> = rows.iter().filter_map(|r| r.oid()).collect();
        let mut expect = oids[3..].to_vec();
        expect.reverse();
        assert_eq!(got, expect);
    }

    #[test]
    fn baseline_index_scan_matches_summary_btree_results() {
        let (db, t, _) = setup(8);
        let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        let q = |ctx: &mut ExecContext, index: &str, baseline: bool| {
            let plan = if baseline {
                PhysicalPlan::BaselineIndexScan {
                    index: index.into(),
                    label: "Disease".into(),
                    lo: Some(2),
                    hi: Some(6),
                    propagate: true,
                    from_normalized: false,
                }
            } else {
                PhysicalPlan::SummaryIndexScan {
                    index: index.into(),
                    label: "Disease".into(),
                    lo: Some(2),
                    hi: Some(6),
                    propagate: true,
                    reverse: false,
                }
            };
            ctx.execute(&plan).unwrap()
        };
        let a = q(&mut ctx, "sb", false);
        let b = q(&mut ctx, "bl", true);
        assert_eq!(a.len(), b.len());
        let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
        let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
        assert_eq!(ao, bo);
    }

    #[test]
    fn summary_btree_costs_less_io_than_baseline() {
        let (db, t, _) = setup(30);
        let sb = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let bl = BaselineIndex::bulk_build(&db, t, "ClassBird1").unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sb", sb);
        ctx.register_baseline_index("bl", bl);
        db.stats().reset();
        ctx.execute(&PhysicalPlan::SummaryIndexScan {
            index: "sb".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: Some(20),
            propagate: false,
            reverse: false,
        })
        .unwrap();
        let sb_io = db.stats().snapshot().total();
        db.stats().reset();
        ctx.execute(&PhysicalPlan::BaselineIndexScan {
            index: "bl".into(),
            label: "Disease".into(),
            lo: Some(5),
            hi: Some(20),
            propagate: false,
            from_normalized: false,
        })
        .unwrap();
        let bl_io = db.stats().snapshot().total();
        assert!(
            sb_io < bl_io,
            "Summary-BTree {sb_io} I/Os vs baseline {bl_io}"
        );
    }

    #[test]
    fn projection_eliminates_cell_annotation_effects() {
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
            )
            .unwrap();
        let oid = db
            .insert_tuple(t, vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        db.link_instance(t, "C", classifier_kind(), false).unwrap();
        // One annotation on column 0, one on column 1.
        db.add_annotation(
            t,
            "disease outbreak",
            Category::Disease,
            "u",
            vec![Attachment::cells(oid, &[0])],
        )
        .unwrap();
        db.add_annotation(
            t,
            "disease virus",
            Category::Disease,
            "u",
            vec![Attachment::cells(oid, &[1])],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![0],
            eliminate: true,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows[0].values, vec![Value::Int(1)]);
        let obj = rows[0].summary_by_name("C").unwrap();
        let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
            panic!()
        };
        assert_eq!(
            c.count("Disease"),
            Some(1),
            "column-1 annotation eliminated"
        );
    }

    #[test]
    fn nested_loop_join_merges_summaries() {
        let (db, t, oids) = setup(4);
        let mut db = db;
        // Attach one annotation to both tuple 1 and tuple 2 (common).
        db.add_annotation(
            t,
            "disease on both",
            Category::Disease,
            "u",
            vec![Attachment::row(oids[1]), Attachment::row(oids[2])],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        // Self-join on id=id-1 shifted: join tuples with equal family.
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(1)),
            }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                pred: Expr::col_cmp(0, CmpOp::Eq, Value::Int(2)),
            }),
            pred: JoinPredicate::SummaryCmp {
                left: SummaryExpr::label_value("ClassBird1", "Disease"),
                op: CmpOp::Ne,
                right: SummaryExpr::label_value("ClassBird1", "Disease"),
            },
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 1);
        let merged = rows[0].summary_by_name("ClassBird1").unwrap();
        let instn_core::summary::Rep::Classifier(c) = &merged.rep else {
            panic!()
        };
        // t1: 1 own + shared = 2 disease; t2: 2 own + shared = 3; merged
        // should be 1 + 2 + 1(shared counted once) = 4, not 5.
        assert_eq!(
            c.count("Disease"),
            Some(4),
            "common annotation deduplicated"
        );
        assert_eq!(rows[0].values.len(), 4, "values concatenated");
        assert!(rows[0].source.is_none());
    }

    #[test]
    fn index_join_equals_nested_loop() {
        let (db, t, _) = setup(6);
        let mut db = db;
        let s = db
            .create_table(
                "S",
                Schema::of(&[("c1", ColumnType::Int), ("v", ColumnType::Text)]),
            )
            .unwrap();
        for i in 0..12i64 {
            db.insert_tuple(s, vec![Value::Int(i % 6), Value::Text(format!("s{i}"))])
                .unwrap();
        }
        let cidx = ColumnIndex::build(&db, s, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(cidx);
        let left = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let nl = PhysicalPlan::NestedLoopJoin {
            left: Box::new(left.clone()),
            right: Box::new(PhysicalPlan::SeqScan {
                table: s,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        let ij = PhysicalPlan::IndexJoin {
            left: Box::new(left),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: None,
            with_summaries: false,
        };
        let a = ctx.execute(&nl).unwrap();
        let b = ctx.execute(&ij).unwrap();
        assert_eq!(a.len(), 12);
        assert_eq!(a.len(), b.len());
        let mut ka: Vec<String> = a.iter().map(|r| format!("{:?}", r.values)).collect();
        let mut kb: Vec<String> = b.iter().map(|r| format!("{:?}", r.values)).collect();
        ka.sort();
        kb.sort();
        assert_eq!(ka, kb);
    }

    #[test]
    fn summary_index_join_equals_nested_loop() {
        // Two-version workload: V2 tuples with matching disease counts.
        let (db, t, _) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sij", idx);
        let probe_key = SummaryExpr::label_value("ClassBird1", "Disease");
        let pred = JoinPredicate::SummaryCmp {
            left: probe_key.clone(),
            op: CmpOp::Eq,
            right: SummaryExpr::label_value("ClassBird1", "Disease"),
        };
        let nl = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred,
        };
        let sij = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: probe_key,
            index: "sij".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: true,
        };
        let a = ctx.execute(&nl).unwrap();
        let b = ctx.execute(&sij).unwrap();
        assert_eq!(a.len(), 8, "distinct counts -> diagonal only");
        assert_eq!(a.len(), b.len());
        let keys = |rows: &[AnnotatedTuple]| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values)).collect();
            v.sort();
            v
        };
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn summary_index_join_respects_residual() {
        let (db, t, _) = setup(8);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("sij", idx);
        let plan = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
            index: "sij".into(),
            label: "Disease".into(),
            residual: Some(JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            }),
            with_summaries: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 8, "residual keeps the diagonal");
        // Unknown index errors.
        let bad = PhysicalPlan::SummaryIndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            left_key: SummaryExpr::label_value("ClassBird1", "Disease"),
            index: "missing".into(),
            label: "Disease".into(),
            residual: None,
            with_summaries: false,
        };
        assert!(matches!(
            ctx.execute(&bad),
            Err(QueryError::UnknownIndex(_))
        ));
    }

    #[test]
    fn index_join_without_index_errors() {
        let (db, t, _) = setup(2);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: t,
            left_col: 0,
            right_col: 0,
            residual: None,
            with_summaries: false,
        };
        assert!(matches!(ctx.execute(&plan), Err(QueryError::BadPlan(_))));
    }

    #[test]
    fn summary_sort_mem_and_disk_agree() {
        let (db, t, oids) = setup(9);
        let mut ctx = ExecContext::new(&db);
        let base = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let key = SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease"));
        let mem = PhysicalPlan::Sort {
            input: Box::new(base.clone()),
            key: key.clone(),
            desc: true,
            disk: false,
        };
        let disk = PhysicalPlan::Sort {
            input: Box::new(base),
            key,
            desc: true,
            disk: true,
        };
        let a = ctx.execute(&mem).unwrap();
        db.stats().reset();
        let b = ctx.execute(&disk).unwrap();
        let disk_io = db.stats().snapshot();
        let ao: Vec<Oid> = a.iter().filter_map(|r| r.oid()).collect();
        let bo: Vec<Oid> = b.iter().filter_map(|r| r.oid()).collect();
        let mut expect = oids.clone();
        expect.reverse();
        assert_eq!(ao, expect, "descending disease counts");
        assert_eq!(ao, bo, "disk sort agrees with memory sort");
        assert!(disk_io.heap_writes > 0, "disk sort spills");
    }

    #[test]
    fn external_sort_with_tiny_memory_spills_multiple_runs() {
        let (db, t, _) = setup(20);
        let mut ctx = ExecContext::new(&db);
        ctx.sort_mem = 4;
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            key: SortKey::Summary(SummaryExpr::label_value("ClassBird1", "Disease")),
            desc: false,
            disk: true,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 20);
        let counts: Vec<Value> = rows
            .iter()
            .map(|r| SummaryExpr::label_value("ClassBird1", "Disease").eval(r))
            .collect();
        for w in counts.windows(2) {
            assert!(w[0].cmp_sql(&w[1]) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn group_by_merges_summaries_and_counts() {
        let (db, t, _) = setup(9);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            cols: vec![1],
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "three families");
        let total: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
        assert_eq!(total, 9);
        // Each group's merged classifier counts all members' annotations.
        for r in &rows {
            let obj = r.summary_by_name("ClassBird1").unwrap();
            let instn_core::summary::Rep::Classifier(c) = &obj.rep else {
                panic!()
            };
            assert_eq!(
                c.count("Behavior"),
                Some(r.values[1].as_int().unwrap() as u64),
                "one behavior annotation per member"
            );
        }
    }

    #[test]
    fn summary_object_filter_keeps_tuples() {
        let (db, t, _) = setup(3);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::SummaryObjectFilter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: ObjectPred::NameEq("NoSuchInstance".into()),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "tuples survive with empty summary sets");
        assert!(rows.iter().all(|r| r.summary_count() == 0));
    }

    #[test]
    fn limit_truncates() {
        let (db, t, _) = setup(7);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            n: 3,
        };
        assert_eq!(ctx.execute(&plan).unwrap().len(), 3);
    }

    #[test]
    fn distinct_collapses_and_merges() {
        let (db, t, _) = setup(6);
        let mut ctx = ExecContext::new(&db);
        // Project to the family column only, then deduplicate.
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                cols: vec![1],
                eliminate: true,
            }),
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 3, "three families");
        // Merged summaries cover all underlying birds' annotations.
        let disease: i64 = rows
            .iter()
            .map(|r| {
                SummaryExpr::label_value("ClassBird1", "Disease")
                    .eval(r)
                    .as_int()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(disease, (0..6).sum::<i64>());
        // An input with no duplicates is unchanged.
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
        };
        assert_eq!(ctx.execute(&plan).unwrap().len(), 6);
    }

    #[test]
    fn explain_renders_the_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::SummaryIndexScan {
                        index: "idx".into(),
                        label: "Disease".into(),
                        lo: Some(5),
                        hi: None,
                        propagate: true,
                        reverse: true,
                    }),
                    pred: Expr::Const(Value::Bool(true)),
                }),
                key: SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
                desc: true,
                disk: true,
            }),
            n: 10,
        };
        let shown = format!("{plan}");
        assert!(shown.contains("Limit(10)"));
        assert!(shown.contains("Sort(O, desc, external)"));
        assert!(shown.contains("SummaryIndexScan(idx, Disease in [5, +∞], desc)"));
        // Indentation deepens down the tree.
        let lines: Vec<&str> = shown.lines().collect();
        assert!(lines[1].starts_with("  "));
        assert!(lines[3].starts_with("      "));
    }

    #[test]
    fn data_column_sort_and_like_filter() {
        let (db, t, _) = setup(10);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: false,
                }),
                pred: Expr::Like(Box::new(Expr::Column(1)), "fam%".into()),
            }),
            key: SortKey::Column(0),
            desc: true,
            disk: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 10);
        let ids: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        assert_eq!(ids, (0..10).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn combined_contains_join_predicate_executes() {
        // Snippets on both sides; the union must contain all keywords.
        let mut db = Database::new();
        let t = db
            .create_table("T", Schema::of(&[("id", ColumnType::Int)]))
            .unwrap();
        db.link_instance(
            t,
            "Snips",
            InstanceKind::Snippet {
                min_chars: 5,
                max_chars: 200,
            },
            false,
        )
        .unwrap();
        let a = db.insert_tuple(t, vec![Value::Int(1)]).unwrap();
        let b = db.insert_tuple(t, vec![Value::Int(2)]).unwrap();
        db.add_annotation(
            t,
            "alpha keyword here today",
            Category::Comment,
            "u",
            vec![Attachment::row(a)],
        )
        .unwrap();
        db.add_annotation(
            t,
            "beta keyword elsewhere now",
            Category::Comment,
            "u",
            vec![Attachment::row(b)],
        )
        .unwrap();
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: JoinPredicate::CombinedContains {
                instance: "Snips".into(),
                keywords: vec!["alpha".into(), "beta".into()],
            },
        };
        let rows = ctx.execute(&plan).unwrap();
        // Only cross pairs (a,b) and (b,a) have both keywords in the union;
        // (a,a) and (b,b) have one each.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn index_join_applies_residual_predicate() {
        let (db, t, _) = setup(6);
        let mut db = db;
        let s = db
            .create_table(
                "S2",
                Schema::of(&[("c1", ColumnType::Int), ("flag", ColumnType::Int)]),
            )
            .unwrap();
        for i in 0..6i64 {
            db.insert_tuple(s, vec![Value::Int(i), Value::Int(i % 2)])
                .unwrap();
        }
        let cidx = ColumnIndex::build(&db, s, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(cidx);
        // Join on id with a residual restricting to odd inner flags.
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: Some(JoinPredicate::SummaryCmp {
                // Degenerate summary predicate is awkward here; use DataEq on
                // the flag against itself via a data predicate instead:
                left: SummaryExpr::SetSize,
                op: CmpOp::Eq,
                right: SummaryExpr::SetSize,
            }),
            with_summaries: false,
        };
        let rows = ctx.execute(&plan).unwrap();
        assert_eq!(rows.len(), 6, "trivially-true residual keeps all matches");
        // A residual that never holds drops everything.
        let plan = PhysicalPlan::IndexJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            right_table: s,
            left_col: 0,
            right_col: 0,
            residual: Some(JoinPredicate::SummaryCmp {
                left: SummaryExpr::SetSize,
                op: CmpOp::Ne,
                right: SummaryExpr::SetSize,
            }),
            with_summaries: false,
        };
        assert!(ctx.execute(&plan).unwrap().is_empty());
    }

    #[test]
    fn query_error_display_variants() {
        let variants: Vec<QueryError> = vec![
            QueryError::UnknownTable("T".into()),
            QueryError::UnknownColumn("c".into()),
            QueryError::UnknownIndex("i".into()),
            QueryError::NotBoolean("5".into()),
            QueryError::BadPlan("m".into()),
            QueryError::Core(instn_core::CoreError::AnnotationNotFound(3)),
        ];
        for v in variants {
            assert!(!format!("{v}").is_empty());
        }
    }

    #[test]
    fn spill_roundtrip_preserves_tuples() {
        let (db, t, _) = setup(3);
        let rows = db.scan_annotated(t).unwrap();
        for r in &rows {
            let back = decode_annotated(&encode_annotated(r)).unwrap();
            assert_eq!(&back, r);
        }
    }

    /// The tentpole regression: LIMIT k over a (backward-pointer) summary
    /// index scan must read k heap pages, not table-size many — the pull
    /// pipeline stops the scan as soon as the cap is reached.
    #[test]
    fn limit_over_summary_index_scan_reads_proportional_to_k() {
        let (db, t, _) = setup(30);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx);
        let limited = |k: usize| PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: None,
                hi: None,
                propagate: false,
                reverse: true,
            }),
            n: k,
        };
        let heap_reads = |plan: &PhysicalPlan, ctx: &mut ExecContext<'_>| {
            db.stats().reset();
            let rows = ctx.execute(plan).unwrap();
            (rows.len(), db.stats().snapshot().heap_reads)
        };
        let (n3, io3) = heap_reads(&limited(3), &mut ctx);
        let (n10, io10) = heap_reads(&limited(10), &mut ctx);
        let (nall, io_all) = heap_reads(&limited(usize::MAX), &mut ctx);
        assert_eq!((n3, n10, nall), (3, 10, 30));
        // Backward pointers: exactly one heap read per produced tuple.
        assert_eq!(io3, 3, "k=3 reads 3 heap pages");
        assert_eq!(io10, 10, "k=10 reads 10 heap pages");
        assert_eq!(io_all, 30, "unlimited scan reads every tuple");
    }

    /// Once LIMIT has produced its k tuples, further pulls charge no I/O at
    /// all (the child is never pulled again).
    #[test]
    fn stream_stops_charging_io_after_limit_is_reached() {
        let (db, t, _) = setup(12);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::SummaryIndexScan {
                index: "idx".into(),
                label: "Disease".into(),
                lo: None,
                hi: None,
                propagate: true,
                reverse: true,
            }),
            n: 5,
        };
        let mut stream = ctx.open_stream(&plan).unwrap();
        for _ in 0..5 {
            assert!(stream.next_tuple().unwrap().is_some());
        }
        let at_cap = db.stats().snapshot();
        assert!(stream.next_tuple().unwrap().is_none());
        assert!(stream.next_tuple().unwrap().is_none());
        let after = db.stats().snapshot();
        assert_eq!(
            after.since(&at_cap).total(),
            0,
            "exhausted LIMIT performs no physical I/O"
        );
        assert_eq!(
            after.since(&at_cap).logical_total(),
            0,
            "exhausted LIMIT performs no logical I/O either"
        );
        let metrics = stream.close().unwrap();
        assert_eq!(metrics.rows, 5);
        assert_eq!(metrics.children[0].rows, 5, "scan produced only k tuples");
    }

    /// Block NL join: an inner that fits the sort budget is materialized
    /// once and reused across outer blocks instead of being re-executed.
    #[test]
    fn nl_join_caches_small_inner_across_blocks() {
        // Plain tables (no annotations): the outer spans three NL blocks.
        let mut db = Database::new();
        let outer = db
            .create_table("Outer", Schema::of(&[("k", ColumnType::Int)]))
            .unwrap();
        let inner = db
            .create_table("Inner", Schema::of(&[("k", ColumnType::Int)]))
            .unwrap();
        let n_outer = 2 * NL_BLOCK_SIZE + NL_BLOCK_SIZE / 2;
        for i in 0..n_outer {
            db.insert_tuple(outer, vec![Value::Int(i as i64 % 7)])
                .unwrap();
        }
        for i in 0..7 {
            db.insert_tuple(inner, vec![Value::Int(i)]).unwrap();
        }
        let plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(PhysicalPlan::SeqScan {
                table: outer,
                with_summaries: false,
            }),
            right: Box::new(PhysicalPlan::SeqScan {
                table: inner,
                with_summaries: false,
            }),
            pred: JoinPredicate::DataEq {
                left_col: 0,
                right_col: 0,
            },
        };
        // A: caching on (inner fits the default budget).
        let mut ctx = ExecContext::new(&db);
        db.stats().reset();
        let (rows_cached, metrics_cached) = ctx.execute_with_metrics(&plan).unwrap();
        let io_cached = db.stats().snapshot().total();
        // B: caching off (budget 0 — nothing "fits in memory").
        let mut ctx = ExecContext::new(&db);
        ctx.sort_mem = 0;
        db.stats().reset();
        let (rows_rescan, metrics_rescan) = ctx.execute_with_metrics(&plan).unwrap();
        let io_rescan = db.stats().snapshot().total();
        assert_eq!(rows_cached, rows_rescan, "caching must not change results");
        assert_eq!(rows_cached.len(), n_outer, "every outer row matches once");
        assert_eq!(
            metrics_cached.children[1].opens, 1,
            "cached inner is executed once"
        );
        assert_eq!(
            metrics_rescan.children[1].opens, 3,
            "uncached inner re-executes once per outer block"
        );
        assert!(
            io_rescan > io_cached,
            "re-scanning the inner costs I/O: {io_rescan} <= {io_cached}"
        );
    }

    /// execute_with_metrics reports rows emitted per operator, inclusively
    /// metered I/O, and a renderable tree.
    #[test]
    fn metrics_report_rows_per_operator() {
        let (db, t, _) = setup(6);
        let mut ctx = ExecContext::new(&db);
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
        };
        let (rows, metrics) = ctx.execute_with_metrics(&plan).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(metrics.label, "Filter(σ/S)");
        assert_eq!(metrics.rows, 2);
        assert_eq!(metrics.children.len(), 1);
        assert_eq!(metrics.children[0].label, "SeqScan(table#0, +summaries)");
        assert_eq!(metrics.children[0].rows, 6, "scan streamed all tuples");
        assert!(
            metrics.logical_io >= metrics.children[0].logical_io,
            "parent I/O is inclusive of its subtree"
        );
        let report = metrics.render();
        assert!(report.contains("Filter(σ/S) (rows=2"));
        assert!(report.contains("SeqScan(table#0, +summaries) (rows=6"));
    }

    /// The filter-over-scan fragment used by the parallel-executor tests.
    fn frag_plan(t: TableId) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: true,
            }),
            pred: Expr::label_cmp("ClassBird1", "Disease", CmpOp::Ge, 4),
        }
    }

    #[test]
    fn exchange_dop1_is_bit_identical_to_serial() {
        let (db, t, _) = setup(12);
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&frag_plan(t)).unwrap();
        let wrapped = PhysicalPlan::Exchange {
            input: Box::new(frag_plan(t)),
            dop: 1,
        };
        let (rows, metrics) = ctx.execute_with_metrics(&wrapped).unwrap();
        assert_eq!(rows, serial);
        // DOP 1 delegates to the ordinary serial operator tree: the child
        // metrics are the serial ones, no worker rows appear.
        assert!(metrics.workers.is_empty());
        assert_eq!(metrics.children.len(), 1);
        assert_eq!(metrics.children[0].label, "Filter(σ/S)");
        assert_eq!(metrics.children[0].rows, serial.len() as u64);
    }

    #[test]
    fn parallel_seq_scan_fragment_matches_serial_row_for_row() {
        let (db, t, _) = setup(30);
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4; // force several morsels
        let serial = ctx.execute(&frag_plan(t)).unwrap();
        for dop in [2, 3, 8] {
            let rows = ctx
                .execute(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop,
                })
                .unwrap();
            assert_eq!(
                rows, serial,
                "dop {dop}: morsel-order gather is serial-identical"
            );
        }
    }

    #[test]
    fn parallel_data_index_scan_matches_serial() {
        let (db, t, _) = setup(25);
        let idx = crate::dataindex::ColumnIndex::build(&db, t, 0).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_column_index(idx);
        ctx.config.morsel_rows = 3;
        let scan = PhysicalPlan::DataIndexScan {
            table: t,
            col: 0,
            lo: Some(Value::Int(5)),
            hi: Some(Value::Int(20)),
            lo_strict: false,
            hi_strict: true,
            with_summaries: true,
        };
        let serial = ctx.execute(&scan).unwrap();
        assert_eq!(serial.len(), 15);
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(scan),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial);
    }

    #[test]
    fn parallel_summary_index_scan_matches_serial() {
        let (db, t, _) = setup(20);
        let idx = SummaryBTree::bulk_build(&db, t, "ClassBird1", PointerMode::Backward).unwrap();
        let mut ctx = ExecContext::new(&db);
        ctx.register_summary_index("idx", idx);
        ctx.config.morsel_rows = 3;
        let scan = PhysicalPlan::SummaryIndexScan {
            index: "idx".into(),
            label: "Disease".into(),
            lo: Some(3),
            hi: None,
            propagate: true,
            reverse: false,
        };
        let serial = ctx.execute(&scan).unwrap();
        assert_eq!(serial.len(), 17);
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(scan),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial, "entry morsels gathered in key order");
    }

    #[test]
    fn parallel_two_phase_group_by_matches_serial() {
        let (db, t, _) = setup(40);
        let group = PhysicalPlan::GroupBy {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: t,
                    with_summaries: true,
                }),
                cols: vec![1],
                eliminate: false,
            }),
            cols: vec![0],
        };
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&group).unwrap();
        assert_eq!(serial.len(), 3, "three families");
        for morsel_rows in [1, 3, 7] {
            ctx.config.morsel_rows = morsel_rows;
            for dop in [2, 4, 8] {
                let rows = ctx
                    .execute(&PhysicalPlan::Exchange {
                        input: Box::new(group.clone()),
                        dop,
                    })
                    .unwrap();
                assert_eq!(
                    rows, serial,
                    "morsel_rows {morsel_rows} dop {dop}: partial-aggregate \
                     merge reproduces the serial group-by"
                );
            }
        }
    }

    #[test]
    fn exchange_over_non_fragment_plan_falls_back_to_serial() {
        let (db, t, _) = setup(10);
        let sort = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::SeqScan {
                table: t,
                with_summaries: false,
            }),
            key: SortKey::Column(0),
            desc: true,
            disk: false,
        };
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&sort).unwrap();
        let rows = ctx
            .execute(&PhysicalPlan::Exchange {
                input: Box::new(sort),
                dop: 4,
            })
            .unwrap();
        assert_eq!(rows, serial, "non-fragment input delegates to serial");
    }

    #[test]
    fn parallel_metrics_report_workers_and_merged_fragment() {
        let (db, t, _) = setup(24);
        let mut ctx = ExecContext::new(&db);
        ctx.config.morsel_rows = 4;
        let (rows, metrics) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 3,
            })
            .unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(metrics.rows, 20);
        assert!(!metrics.workers.is_empty(), "per-worker rows present");
        assert_eq!(
            metrics.workers.iter().map(|w| w.rows).sum::<u64>(),
            20,
            "worker contributions sum to the gather total"
        );
        assert_eq!(
            metrics.workers.iter().map(|w| w.opens).sum::<u64>(),
            6,
            "24 rows / morsel_rows 4 = 6 morsels claimed in total"
        );
        // The merged fragment chain hangs below the Exchange: Filter over
        // SeqScan, with rows summed across workers (no double-counting).
        assert_eq!(metrics.children.len(), 1);
        let filter = &metrics.children[0];
        assert_eq!(filter.label, "Filter(σ/S)");
        assert_eq!(filter.rows, 20);
        assert_eq!(filter.children.len(), 1);
        assert_eq!(filter.children[0].rows, 24, "scan saw every tuple once");
        // Inclusive I/O attribution survives the merge: the Exchange's
        // metered I/O covers the whole fragment, and the merged subtree
        // never exceeds it.
        assert!(metrics.physical_io >= filter.physical_io);
        assert!(metrics.logical_io >= filter.logical_io);
        let report = metrics.render();
        assert!(report.contains("Exchange(gather, dop=3)"), "{report}");
        assert!(report.contains("[worker 0]"), "{report}");
    }

    #[test]
    fn exchange_io_attribution_ignores_concurrent_noise() {
        let (db, t, _) = setup(24);
        // Quiet baseline: parallel run with nothing else happening.
        let quiet = {
            let mut ctx = ExecContext::new(&db);
            ctx.config.morsel_rows = 4;
            let (_, m) = ctx
                .execute_with_metrics(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop: 3,
                })
                .unwrap();
            m.logical_io
        };
        // Same run while an unpinned thread hammers the table: its reads
        // land in the hash-stripe band, not in the pinned worker stripes,
        // so the Exchange's metered I/O is unchanged.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let noisy = crossbeam::thread::scope(|scope| {
            let dbr = &db;
            let stop_ref = &stop;
            scope.spawn(move |_| {
                while !stop_ref.load(AtomicOrdering::Relaxed) {
                    let tbl = dbr.table(t).unwrap();
                    for _ in tbl.scan() {}
                }
            });
            let mut ctx = ExecContext::new(&db);
            ctx.config.morsel_rows = 4;
            let (_, m) = ctx
                .execute_with_metrics(&PhysicalPlan::Exchange {
                    input: Box::new(frag_plan(t)),
                    dop: 3,
                })
                .unwrap();
            stop.store(true, AtomicOrdering::Relaxed);
            m.logical_io
        })
        .unwrap();
        assert_eq!(
            noisy, quiet,
            "stripe-scoped attribution is immune to concurrent sessions"
        );
    }

    #[test]
    fn io_stall_forces_morsel_path_and_keeps_results_identical() {
        let (db, t, _) = setup(15);
        let mut ctx = ExecContext::new(&db);
        let serial = ctx.execute(&frag_plan(t)).unwrap();
        ctx.config.morsel_rows = 4;
        ctx.config.io_stall = Duration::from_micros(50);
        // Even at DOP 1 a non-zero stall takes the morsel path (the bench
        // harness needs like-for-like plumbing across the sweep).
        let (rows, metrics) = ctx
            .execute_with_metrics(&PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 1,
            })
            .unwrap();
        assert_eq!(rows, serial);
        assert!(!metrics.workers.is_empty(), "morsel path ran");
    }

    #[test]
    fn parallelize_plan_wraps_fragments_and_skips_limits() {
        let (_, t, _) = setup(1);
        // A fragment under a limit stays serial; a bare fragment wraps.
        let lim = PhysicalPlan::Limit {
            input: Box::new(frag_plan(t)),
            n: 3,
        };
        assert_eq!(parallelize_plan(&lim, 4), lim);
        let wrapped = parallelize_plan(&frag_plan(t), 4);
        assert_eq!(
            wrapped,
            PhysicalPlan::Exchange {
                input: Box::new(frag_plan(t)),
                dop: 4
            }
        );
        // DOP 1 never wraps anything.
        assert_eq!(parallelize_plan(&frag_plan(t), 1), frag_plan(t));
        // A sort above a fragment: the fragment below the sort wraps, the
        // sort itself stays serial above the gather.
        let sort = PhysicalPlan::Sort {
            input: Box::new(frag_plan(t)),
            key: SortKey::Column(0),
            desc: false,
            disk: false,
        };
        let par = parallelize_plan(&sort, 2);
        match par {
            PhysicalPlan::Sort { input, .. } => {
                assert!(matches!(*input, PhysicalPlan::Exchange { dop: 2, .. }))
            }
            other => panic!("sort stays on top, got {other:?}"),
        }
    }
}
