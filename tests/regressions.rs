//! Pinned regressions.
//!
//! 1. Group-by/distinct keys used to be built by concatenating `Display`
//!    renderings with a `\u{1}` separator, so distinct composite keys
//!    could collide (a `Text` value embedding the separator shifts value
//!    bytes across column boundaries; `Null` renders identically to
//!    `Text("NULL")`). Keys are now the typed, length-prefixed
//!    `composite_key` encoding from `instn-query::dataindex`.
//!
//! 2. An annotation attached to *multiple* tuples that straddle a morsel
//!    boundary was double-counted by the parallel gather merge: the
//!    cluster-group merge took no transitive closure, so one annotation
//!    could land in two groups and its TF vector was summed twice
//!    (DESIGN.md §8). The merge is now a canonical connected-components
//!    partition, making two-phase `GroupBy` exact for multi-tuple
//!    attachments — parallel output is bit-identical to serial.
use std::time::Duration;

use insightnotes::annot::{Attachment, Category};
use insightnotes::core::db::Database;
use insightnotes::core::instance::InstanceKind;
use insightnotes::mining::clustream::ClusterParams;
use insightnotes::mining::nb::NaiveBayes;
use insightnotes::prelude::{ExecConfig, ExecContext, PhysicalPlan};
use insightnotes::query::exec::parallelize_plan;
use insightnotes::storage::{ColumnType, Schema, Value};

/// Two text columns whose composite keys collide under the old
/// separator-concat encoding: `("a\u{1}b", "c")` and `("a", "b\u{1}c")`
/// both rendered as `"a\u{1}b\u{1}c"`.
#[test]
fn distinct_keys_with_embedded_separator_do_not_collide() {
    let mut db = Database::new();
    let t = db
        .create_table(
            "T",
            Schema::of(&[("x", ColumnType::Text), ("y", ColumnType::Text)]),
        )
        .unwrap();
    db.insert_tuple(
        t,
        vec![Value::Text("a\u{1}b".into()), Value::Text("c".into())],
    )
    .unwrap();
    db.insert_tuple(
        t,
        vec![Value::Text("a".into()), Value::Text("b\u{1}c".into())],
    )
    .unwrap();
    let mut ctx = ExecContext::new(&db);
    let plan = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
    };
    let rows = ctx.execute(&plan).unwrap();
    assert_eq!(rows.len(), 2, "separator-shifted keys are distinct rows");

    let group = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        cols: vec![0, 1],
    };
    assert_eq!(ctx.execute(&group).unwrap().len(), 2, "two groups, not one");
}

/// Mixed-type collision: `Null` and `Text("NULL")` display identically
/// but are different values (schema validation admits `Null` in any
/// column). The typed encoding tags each value, so e.g. `Int(1)` vs
/// `Text("1")` or `Null` vs `Text("NULL")` can never share a key.
#[test]
fn group_by_null_does_not_collide_with_text_null() {
    let mut db = Database::new();
    let t = db
        .create_table("T", Schema::of(&[("x", ColumnType::Text)]))
        .unwrap();
    db.insert_tuple(t, vec![Value::Null]).unwrap();
    db.insert_tuple(t, vec![Value::Text("NULL".into())])
        .unwrap();
    let mut ctx = ExecContext::new(&db);
    let group = PhysicalPlan::GroupBy {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
        cols: vec![0],
    };
    let rows = ctx.execute(&group).unwrap();
    assert_eq!(
        rows.len(),
        2,
        "NULL and the text 'NULL' are distinct groups"
    );

    let distinct = PhysicalPlan::Distinct {
        input: Box::new(PhysicalPlan::SeqScan {
            table: t,
            with_summaries: false,
        }),
    };
    assert_eq!(ctx.execute(&distinct).unwrap().len(), 2);
}

/// Deterministic multi-tuple workload: annotations attach to several
/// tuples each (LCG-driven), so morsel boundaries routinely split an
/// annotation's tuples across workers under every tested morsel size.
fn multituple_db(
    seed: u64,
    n_tuples: usize,
    n_annots: usize,
) -> (Database, insightnotes::storage::TableId) {
    let mut db = Database::new();
    let t = db
        .create_table(
            "Birds",
            Schema::of(&[("id", ColumnType::Int), ("family", ColumnType::Text)]),
        )
        .unwrap();
    let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
    model.train("disease outbreak infection virus", "Disease");
    model.train("eating foraging migration song", "Behavior");
    db.link_instance(t, "C", InstanceKind::Classifier { model }, true)
        .unwrap();
    db.link_instance(
        t,
        "S",
        InstanceKind::Snippet {
            min_chars: 5,
            max_chars: 400,
        },
        true,
    )
    .unwrap();
    db.link_instance(
        t,
        "K",
        InstanceKind::Cluster {
            params: ClusterParams::default(),
        },
        true,
    )
    .unwrap();
    let mut rng = seed;
    let mut next = || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    let mut oids = Vec::new();
    for i in 0..n_tuples {
        oids.push(
            db.insert_tuple(
                t,
                vec![
                    Value::Int(i as i64),
                    Value::Text(format!("fam{}", next() % 2)),
                ],
            )
            .unwrap(),
        );
    }
    let texts = [
        "disease outbreak infection virus spreading",
        "eating foraging migration song nesting",
        "disease virus bad infection",
        "song migration eating patterns",
    ];
    for a in 0..n_annots {
        let mut atts = Vec::new();
        for &o in &oids {
            if next() % 3 == 0 {
                atts.push(Attachment::row(o));
            }
        }
        if atts.is_empty() {
            atts.push(Attachment::row(oids[next() % oids.len()]));
        }
        db.add_annotation(t, texts[a % texts.len()], Category::Disease, "u", atts)
            .unwrap();
    }
    (db, t)
}

/// Failing-before/passing-after oracle for the double-count: with the
/// old first-overlap cluster merge, seed 5 diverged at `morsel_rows = 3,
/// dop = 2` (one annotation's TF vector summed into two groups at the
/// gather). Parallel `GroupBy` over multi-tuple attachments must equal
/// the serial fold exactly, for every tested morsel size and DOP. The
/// same holds for DISTINCT over a parallel scan, whose summary merge runs
/// above the gather; the corpus links a cluster instance, so both cover
/// the deferred cluster merge of the summary accumulator.
#[test]
fn parallel_group_by_multituple_annotations_match_serial() {
    let mut clustered = 0;
    for seed in 0..20u64 {
        let (db, t) = multituple_db(seed, 6, 5);
        let scan = PhysicalPlan::SeqScan {
            table: t,
            with_summaries: true,
        };
        let group_by = PhysicalPlan::GroupBy {
            input: Box::new(scan.clone()),
            cols: vec![1],
        };
        let distinct = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(scan),
                cols: vec![1],
                eliminate: true,
            }),
        };
        for plan in [group_by, distinct] {
            let mut ctx = ExecContext::new(&db);
            ctx.config = ExecConfig {
                dop: 1,
                morsel_rows: 1,
                io_stall: Duration::ZERO,
            };
            let serial = ctx.execute(&plan).unwrap();
            clustered += serial
                .iter()
                .filter_map(|r| r.summary_by_name("K"))
                .filter(|k| k.size() > 0)
                .count();
            for mr in [1usize, 2, 3] {
                for dop in [2usize, 4] {
                    let par = parallelize_plan(&plan, dop);
                    assert!(par.to_string().contains("Exchange"), "{par}");
                    let mut ctx2 = ExecContext::new(&db);
                    ctx2.config = ExecConfig {
                        dop,
                        morsel_rows: mr,
                        io_stall: Duration::ZERO,
                    };
                    let parallel = ctx2.execute(&par).unwrap();
                    assert_eq!(
                        parallel, serial,
                        "seed={seed} morsel_rows={mr} dop={dop} diverged on {plan}"
                    );
                }
            }
        }
    }
    assert!(clustered > 0, "the corpus must produce cluster groups");
}
