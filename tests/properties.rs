//! Property-based tests (proptest) over the core data structures and the
//! propagation-algebra invariants the paper's theorems rest on.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use insightnotes::annot::AnnotId;
use insightnotes::core::algebra::{merge_objects, project_eliminate};
use insightnotes::core::summary::{
    decode_objects, encode_objects, ClassifierRep, InstanceId, ObjId, Rep, SnippetEntry,
    SnippetRep, SummaryObject,
};
use insightnotes::index::itemize::{itemize_key, ItemizeWidth};
use insightnotes::opt::stats::LabelStats;
use insightnotes::storage::btree::BTree;
use insightnotes::storage::io::IoStats;
use insightnotes::storage::tuple::{decode_tuple, encode_tuple};
use insightnotes::storage::{HeapFile, Value};

// --------------------------------------------------------------------
// B-Tree vs a BTreeMap<Vec<u8>, Vec<u64>> model.
// --------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BtOp {
    Insert(u8, u64),
    Delete(u8, u64),
    Range(u8, u8),
}

fn bt_op() -> impl Strategy<Value = BtOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| BtOp::Insert(k % 32, v % 8)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| BtOp::Delete(k % 32, v % 8)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| BtOp::Range(a % 32, b % 32)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(bt_op(), 1..200)) {
        let mut tree: BTree<u64> = BTree::with_order(IoStats::new(), 6);
        let mut model: BTreeMap<Vec<u8>, Vec<u64>> = BTreeMap::new();
        for op in ops {
            match op {
                BtOp::Insert(k, v) => {
                    let key = vec![k];
                    tree.insert(&key, v);
                    model.entry(key).or_default().push(v);
                }
                BtOp::Delete(k, v) => {
                    let key = vec![k];
                    let model_has = model.get(&key).map(|vs| vs.contains(&v)).unwrap_or(false);
                    let tree_result = tree.delete(&key, &v);
                    prop_assert_eq!(tree_result.is_ok(), model_has);
                    if model_has {
                        let vs = model.get_mut(&key).unwrap();
                        let pos = vs.iter().position(|x| *x == v).unwrap();
                        vs.remove(pos);
                        if vs.is_empty() {
                            model.remove(&key);
                        }
                    }
                }
                BtOp::Range(a, b) => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let mut got: Vec<(Vec<u8>, u64)> =
                        tree.range(Some(&[lo]), Some(&[hi])).collect();
                    got.sort();
                    let mut want: Vec<(Vec<u8>, u64)> = model
                        .range(vec![lo]..=vec![hi])
                        .flat_map(|(k, vs)| vs.iter().map(move |v| (k.clone(), *v)))
                        .collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
            let model_len: usize = model.values().map(Vec::len).sum();
            prop_assert_eq!(tree.len(), model_len);
        }
        // Final full scan matches, in key order.
        let got_keys: Vec<Vec<u8>> = tree.range(None, None).map(|(k, _)| k).collect();
        let mut sorted = got_keys.clone();
        sorted.sort();
        prop_assert_eq!(got_keys, sorted, "range scan is key-ordered");
    }

    // ----------------------------------------------------------------
    // Heap file: insert/get/delete with arbitrary payload sizes
    // (including multi-page chained records).
    // ----------------------------------------------------------------

    #[test]
    fn heap_roundtrips_arbitrary_sizes(sizes in prop::collection::vec(0usize..30_000, 1..12)) {
        let mut heap = HeapFile::new(IoStats::new());
        let mut stored = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let payload = vec![(i % 251) as u8; *size];
            let rid = heap.insert(&payload).unwrap();
            stored.push((rid, payload));
        }
        for (rid, payload) in &stored {
            prop_assert_eq!(&heap.get(*rid).unwrap(), payload);
        }
        // Delete every other record; the rest must survive.
        for (i, (rid, _)) in stored.iter().enumerate() {
            if i % 2 == 0 {
                heap.delete(*rid).unwrap();
            }
        }
        for (i, (rid, payload)) in stored.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert!(heap.get(*rid).is_err());
            } else {
                prop_assert_eq!(&heap.get(*rid).unwrap(), payload);
            }
        }
    }

    // ----------------------------------------------------------------
    // Tuple and summary-object codecs.
    // ----------------------------------------------------------------

    #[test]
    fn tuple_codec_roundtrips(vals in prop::collection::vec(value_strategy(), 0..12)) {
        let bytes = encode_tuple(&vals);
        prop_assert_eq!(decode_tuple(&bytes).unwrap(), vals);
    }

    #[test]
    fn summary_object_codec_roundtrips(obj in classifier_strategy()) {
        let set = vec![obj];
        let bytes = encode_objects(&set);
        prop_assert_eq!(decode_objects(&bytes).unwrap(), set);
    }

    // ----------------------------------------------------------------
    // Itemization: lexicographic order of keys == numeric order of counts.
    // ----------------------------------------------------------------

    #[test]
    fn itemize_preserves_count_order(a in 0u64..1000, b in 0u64..1000) {
        let w = ItemizeWidth::default();
        if !w.fits(a) || !w.fits(b) {
            return Ok(());
        }
        let ka = itemize_key("Label", a, w);
        let kb = itemize_key("Label", b, w);
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    // ----------------------------------------------------------------
    // Merge algebra: commutativity of the classifier merge (up to element
    // order), and the project-before-merge equivalence behind the paper's
    // Theorems 1–2.
    // ----------------------------------------------------------------

    #[test]
    fn classifier_merge_is_commutative_in_counts(
        a_ids in prop::collection::hash_set(0u64..40, 0..20),
        b_ids in prop::collection::hash_set(0u64..40, 0..20),
    ) {
        let a = classifier_with("L", &a_ids);
        let b = classifier_with("L", &b_ids);
        let resolver = |_: AnnotId| None;
        let ab = merge_objects(&a, &b, &resolver);
        let ba = merge_objects(&b, &a, &resolver);
        let count = |o: &SummaryObject| match &o.rep {
            Rep::Classifier(c) => c.counts.clone(),
            _ => vec![],
        };
        prop_assert_eq!(count(&ab), count(&ba));
        // And the merged count is exactly the union size.
        let union: HashSet<u64> = a_ids.union(&b_ids).copied().collect();
        prop_assert_eq!(count(&ab)[0] as usize, union.len());
    }

    #[test]
    fn eliminate_commutes_with_merge(
        a_ids in prop::collection::hash_set(0u64..30, 1..15),
        b_ids in prop::collection::hash_set(0u64..30, 1..15),
        removed in prop::collection::hash_set(0u64..30, 0..10),
    ) {
        let a = classifier_with("L", &a_ids);
        let b = classifier_with("L", &b_ids);
        let removed_ids: Vec<AnnotId> = removed.iter().map(|&i| AnnotId(i)).collect();
        let resolver = |_: AnnotId| None;

        // eliminate-then-merge
        let mut ea = vec![a.clone()];
        let mut eb = vec![b.clone()];
        project_eliminate(&mut ea, &removed_ids, &resolver);
        project_eliminate(&mut eb, &removed_ids, &resolver);
        let m1 = merge_objects(&ea[0], &eb[0], &resolver);

        // merge-then-eliminate
        let mut m2 = vec![merge_objects(&a, &b, &resolver)];
        project_eliminate(&mut m2, &removed_ids, &resolver);

        let count = |o: &SummaryObject| match &o.rep {
            Rep::Classifier(c) => c.counts[0],
            _ => 0,
        };
        prop_assert_eq!(count(&m1), count(&m2[0]));
    }

    // ----------------------------------------------------------------
    // Snippet merge: source set is the union; no duplicates.
    // ----------------------------------------------------------------

    #[test]
    fn snippet_merge_is_source_union(
        a_ids in prop::collection::hash_set(0u64..30, 0..10),
        b_ids in prop::collection::hash_set(0u64..30, 0..10),
    ) {
        let a = snippet_with(&a_ids);
        let b = snippet_with(&b_ids);
        let resolver = |_: AnnotId| None;
        let m = merge_objects(&a, &b, &resolver);
        let Rep::Snippet(s) = &m.rep else { panic!() };
        let got: HashSet<u64> = s.entries.iter().map(|e| e.source.0).collect();
        let want: HashSet<u64> = a_ids.union(&b_ids).copied().collect();
        prop_assert_eq!(got.len(), s.entries.len(), "no duplicate sources");
        prop_assert_eq!(got, want);
    }

    // ----------------------------------------------------------------
    // Optimizer statistics: add/remove sequences keep min/max/ndistinct
    // consistent with a naive recomputation.
    // ----------------------------------------------------------------

    #[test]
    fn label_stats_match_naive_model(counts in prop::collection::vec(0u64..50, 1..60)) {
        let mut ls = LabelStats::default();
        for &c in &counts {
            ls.add(c);
        }
        // Remove the first third again.
        let keep = &counts[counts.len() / 3..];
        for &c in &counts[..counts.len() / 3] {
            ls.remove(c);
        }
        if keep.is_empty() {
            prop_assert_eq!(ls.total, 0);
            return Ok(());
        }
        prop_assert_eq!(ls.total as usize, keep.len());
        prop_assert_eq!(ls.min, *keep.iter().min().unwrap());
        prop_assert_eq!(ls.max, *keep.iter().max().unwrap());
        let distinct: HashSet<u64> = keep.iter().copied().collect();
        prop_assert_eq!(ls.num_distinct as usize, distinct.len());
        // Selectivity over the full range covers (almost) everything.
        let sel = ls.selectivity(None, None);
        prop_assert!(sel > 0.99, "full-range selectivity {sel}");
        // Every present value has non-zero point selectivity; values outside
        // the observed range have exactly zero. (Equi-width histograms
        // interpolate within buckets, so point estimates under-count — the
        // invariants are positivity and bounded support, not exactness.)
        for &c in &distinct {
            let p = ls.selectivity(Some(c), Some(c));
            prop_assert!(p > 0.0, "present value {c} has zero selectivity");
            prop_assert!(p <= 1.0);
        }
        prop_assert_eq!(ls.selectivity(Some(ls.max + 100), Some(ls.max + 200)), 0.0);
    }
}

// --------------------------------------------------------------------
// Persistence: dump → restore preserves every observable summary state,
// for randomly generated databases.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dump_restore_is_lossless(
        annots in prop::collection::vec((0usize..6, 0usize..3, any::<bool>()), 0..40),
    ) {
        use insightnotes::prelude::*;
        let mut db = Database::new();
        let t = db
            .create_table(
                "T",
                Schema::of(&[("id", ColumnType::Int), ("x", ColumnType::Text)]),
            )
            .unwrap();
        let mut model = NaiveBayes::new(vec!["Disease".into(), "Behavior".into()]);
        model.train("disease outbreak infection", "Disease");
        model.train("eating foraging song", "Behavior");
        db.link_instance(t, "C", InstanceKind::Classifier { model }, true).unwrap();
        db.link_instance(
            t,
            "S",
            InstanceKind::Snippet { min_chars: 10, max_chars: 80 },
            false,
        )
        .unwrap();
        let mut oids = Vec::new();
        for i in 0..6i64 {
            oids.push(db.insert_tuple(t, vec![Value::Int(i), Value::Text(format!("t{i}"))]).unwrap());
        }
        for (tuple, col, diseasey) in annots {
            let text = if diseasey {
                "disease outbreak infection spotted here"
            } else {
                "seen eating and foraging by the water"
            };
            let att = if col == 0 {
                Attachment::row(oids[tuple])
            } else {
                Attachment::cells(oids[tuple], &[col - 1])
            };
            db.add_annotation(t, text, Category::Other, "p", vec![att]).unwrap();
        }
        let restored = Database::restore(&db.dump().unwrap()).unwrap();
        let rt = restored.table_id("T").unwrap();
        for &oid in &oids {
            let a = db.summaries_of(t, oid).unwrap();
            let b = restored.summaries_of(rt, oid).unwrap();
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(&x.instance_name, &y.instance_name);
                prop_assert_eq!(&x.rep, &y.rep);
            }
            // Raw annotation sets agree too.
            prop_assert_eq!(
                db.annotation_store(t).for_tuple(oid),
                restored.annotation_store(rt).for_tuple(oid)
            );
        }
    }
}

// --------------------------------------------------------------------
// SQL front-end robustness: the parser never panics, and every statement
// it accepts round-trips through the lexer.
// --------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sql_parser_never_panics(input in "[ -~]{0,120}") {
        // Any printable-ASCII garbage must produce Ok or Err, not a panic.
        let _ = insightnotes::sql::parse(&input);
    }

    #[test]
    fn sql_parser_accepts_generated_selects(
        table in "[A-Za-z][A-Za-z0-9_]{0,10}",
        col in "[a-z][a-z0-9_]{0,8}",
        n in 0i64..1000,
        instance in "[A-Za-z][A-Za-z0-9]{0,8}",
        label in "[A-Za-z][A-Za-z0-9]{0,8}",
        desc in any::<bool>(),
        limit in prop::option::of(0usize..100),
    ) {
        let mut sql = format!(
            "SELECT {col} FROM {table} r WHERE \
             r.$.getSummaryObject('{instance}').getLabelValue('{label}') > {n}"
        );
        sql.push_str(&format!(
            " ORDER BY r.$.getSummaryObject('{instance}').getLabelValue('{label}') {}",
            if desc { "DESC" } else { "ASC" }
        ));
        if let Some(l) = limit {
            sql.push_str(&format!(" LIMIT {l}"));
        }
        let parsed = insightnotes::sql::parse(&sql);
        // Keyword collisions (e.g. a table named "select") may legitimately
        // fail to parse; anything else must succeed.
        let kw = ["select", "from", "where", "order", "group", "limit", "by",
                  "and", "or", "not", "like", "asc", "desc", "distinct"];
        if !kw.contains(&table.to_lowercase().as_str())
            && !kw.contains(&col.to_lowercase().as_str())
        {
            prop_assert!(parsed.is_ok(), "failed on: {sql}: {parsed:?}");
        }
    }
}

// --------------------------------------------------------------------
// Strategies / fixtures.
// --------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn classifier_strategy() -> impl Strategy<Value = SummaryObject> {
    (
        prop::collection::vec(
            ("[A-Z][a-z]{1,8}", prop::collection::vec(0u64..1000, 0..8)),
            1..5,
        ),
        any::<u64>(),
    )
        .prop_map(|(labels, oid)| {
            let mut rep = ClassifierRep::default();
            for (label, ids) in labels {
                rep.labels.push(label);
                rep.counts.push(ids.len() as u64);
                rep.elements.push(ids.into_iter().map(AnnotId).collect());
            }
            SummaryObject {
                obj_id: ObjId(oid),
                instance_id: InstanceId(1),
                instance_name: "P".into(),
                tuple_id: insightnotes::storage::Oid(oid % 97),
                rep: Rep::Classifier(rep),
            }
        })
}

fn classifier_with(label: &str, ids: &HashSet<u64>) -> SummaryObject {
    let mut sorted: Vec<u64> = ids.iter().copied().collect();
    sorted.sort_unstable();
    SummaryObject {
        obj_id: ObjId(1),
        instance_id: InstanceId(1),
        instance_name: "C".into(),
        tuple_id: insightnotes::storage::Oid(1),
        rep: Rep::Classifier(ClassifierRep {
            labels: vec![label.to_string()],
            counts: vec![sorted.len() as u64],
            elements: vec![sorted.into_iter().map(AnnotId).collect()],
        }),
    }
}

fn snippet_with(ids: &HashSet<u64>) -> SummaryObject {
    let mut sorted: Vec<u64> = ids.iter().copied().collect();
    sorted.sort_unstable();
    SummaryObject {
        obj_id: ObjId(2),
        instance_id: InstanceId(2),
        instance_name: "S".into(),
        tuple_id: insightnotes::storage::Oid(1),
        rep: Rep::Snippet(SnippetRep {
            entries: sorted
                .into_iter()
                .map(|i| SnippetEntry {
                    snippet: format!("snippet {i}"),
                    source: AnnotId(i),
                })
                .collect(),
        }),
    }
}
